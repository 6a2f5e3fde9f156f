package transport

import (
	"bytes"
	"testing"
	"time"
)

func TestNetworkDelivery(t *testing.T) {
	ta, tb, _, err := Pair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	want := Datagram{Source: "a", Destination: "b", Payload: []byte("hello")}
	if err := ta.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "a" || got.Destination != "b" || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestNetworkSourceDefaulting(t *testing.T) {
	ta, tb, _, _ := Pair("a", "b")
	ta.Send(Datagram{Destination: "b", Payload: []byte("x")})
	got, _ := tb.Receive()
	if got.Source != "a" {
		t.Fatalf("source = %q, want a", got.Source)
	}
}

func TestNetworkLoss(t *testing.T) {
	n := NewNetwork(Impairments{LossProb: 1.0})
	ta, _ := n.Attach("a", 0)
	n.Attach("b", 0)
	for i := 0; i < 10; i++ {
		ta.Send(Datagram{Destination: "b", Payload: []byte{byte(i)}})
	}
	if s := n.Links()["a->b"]; s.Offered != 10 || s.Lost != 10 {
		t.Fatalf("link stats = %+v, want 10 offered, 10 lost", s)
	}
	if ps := n.PortStats("b"); ps != (PortStats{}) {
		t.Fatalf("port stats = %+v, want nothing delivered", ps)
	}
}

func TestNetworkDuplication(t *testing.T) {
	n := NewNetwork(Impairments{DupProb: 1.0})
	ta, _ := n.Attach("a", 0)
	tb, _ := n.Attach("b", 0)
	ta.Send(Datagram{Destination: "b", Payload: []byte("dup")})
	one, _ := tb.Receive()
	two, _ := tb.Receive()
	if !bytes.Equal(one.Payload, two.Payload) {
		t.Fatal("duplicate differs from original")
	}
	if &one.Payload[0] == &two.Payload[0] {
		t.Fatal("duplicate shares the original's buffer")
	}
	if got := n.Links()["a->b"].Duplicated; got != 1 {
		t.Fatalf("Duplicated = %d, want 1", got)
	}
	if ps := n.PortStats("b"); ps.DeliveredClean != 1 || ps.DeliveredDup != 1 {
		t.Fatalf("port stats = %+v, want one clean copy and one duplicate", ps)
	}
}

func TestNetworkCorruption(t *testing.T) {
	n := NewNetwork(Impairments{CorruptProb: 1.0})
	ta, _ := n.Attach("a", 0)
	tb, _ := n.Attach("b", 0)
	orig := []byte("pristine payload")
	ta.Send(Datagram{Destination: "b", Payload: orig})
	got, _ := tb.Receive()
	if bytes.Equal(got.Payload, orig) {
		t.Fatal("payload not corrupted")
	}
	// Exactly one bit flipped.
	diff := 0
	for i := range orig {
		x := orig[i] ^ got.Payload[i]
		for x != 0 {
			diff += int(x & 1)
			x >>= 1
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want 1", diff)
	}
	if ps := n.PortStats("b"); ps.DeliveredCorrupt != 1 || ps.DeliveredClean != 0 {
		t.Fatalf("port stats = %+v, want one corrupt copy", ps)
	}
}

func TestNetworkReorder(t *testing.T) {
	n := NewNetwork(Impairments{ReorderProb: 0.5, Holdback: 5 * time.Millisecond, Seed: 7})
	ta, _ := n.Attach("a", 0)
	tb, _ := n.Attach("b", 0)
	const count = 50
	for i := 0; i < count; i++ {
		ta.Send(Datagram{Destination: "b", Payload: []byte{byte(i)}})
	}
	if !n.Quiesce(2 * time.Second) {
		t.Fatalf("%d held-back datagrams never delivered", n.Pending())
	}
	seen := make(map[byte]bool)
	outOfOrder := false
	last := -1
	for i := 0; i < count; i++ {
		got, err := tb.Receive()
		if err != nil {
			t.Fatal(err)
		}
		v := got.Payload[0]
		if seen[v] {
			t.Fatalf("datagram %d delivered twice", v)
		}
		seen[v] = true
		if int(v) < last {
			outOfOrder = true
		}
		last = int(v)
	}
	if !outOfOrder {
		t.Fatal("no reordering observed with ReorderProb=0.5")
	}
}

func TestNetworkNoRouteAndOverflow(t *testing.T) {
	n := NewNetwork(Impairments{})
	ta, _ := n.Attach("a", 1)
	ta.Send(Datagram{Destination: "nowhere", Payload: nil})
	if n.NoRoute() != 1 {
		t.Fatal("NoRoute not counted")
	}
	// Queue of length 1 at b: second datagram overflows.
	n.Attach("b", 1)
	ta.Send(Datagram{Destination: "b", Payload: []byte{1}})
	ta.Send(Datagram{Destination: "b", Payload: []byte{2}})
	if ps := n.PortStats("b"); ps.Overflow != 1 || ps.DeliveredClean != 1 {
		t.Fatalf("port stats = %+v, want 1 delivered, 1 overflow", ps)
	}
}

// TestCloseDetaches: closing a port takes its address off the network,
// as a host crash does. Copies addressed to it count as NoRoute, delayed
// ones in flight included, and a new Attach at the address starts with
// a fresh queue and zeroed counters.
func TestCloseDetaches(t *testing.T) {
	n := NewNetwork(Impairments{Delay: 20 * time.Millisecond})
	ta, _ := n.Attach("a", 0)
	tb, _ := n.Attach("b", 0)
	ta.Send(Datagram{Destination: "b", Payload: []byte{1}}) // in flight
	tb.Close()
	ta.Send(Datagram{Destination: "b", Payload: []byte{2}})
	if !n.Quiesce(2 * time.Second) {
		t.Fatal("delayed copies never landed")
	}
	if got := n.NoRoute(); got != 2 {
		t.Fatalf("NoRoute = %d, want 2 (one in flight at Close, one sent after)", got)
	}
	tb, err := n.Attach("b", 0)
	if err != nil {
		t.Fatalf("re-Attach after Close: %v", err)
	}
	if ps := n.PortStats("b"); ps != (PortStats{}) {
		t.Fatalf("re-attached port starts at %+v, want zero", ps)
	}
	ta.Send(Datagram{Destination: "b", Payload: []byte{3}})
	if got, err := tb.Receive(); err != nil || got.Payload[0] != 3 {
		t.Fatalf("re-attached port received %v, %v", got, err)
	}
}

// TestNetworkInject: an injected datagram bypasses the fault model and
// lands in the named queue, whatever its Destination says.
func TestNetworkInject(t *testing.T) {
	n := NewNetwork(Impairments{LossProb: 1})
	tb, _ := n.Attach("b", 0)
	n.Inject("b", Datagram{Source: "x", Destination: "elsewhere", Payload: []byte("forged")})
	got, err := tb.Receive()
	if err != nil || string(got.Payload) != "forged" || got.Destination != "elsewhere" {
		t.Fatalf("received %v, %v", got, err)
	}
	if ps := n.PortStats("b"); ps.Injected != 1 || ps.DeliveredClean != 0 {
		t.Fatalf("port stats = %+v, want one injection", ps)
	}
	if len(n.Links()) != 0 {
		t.Fatal("an injection drew from a link")
	}
}

// TestNetworkHeal: after Heal every direction, old and new, delivers at
// once and intact.
func TestNetworkHeal(t *testing.T) {
	n := NewNetwork(Impairments{LossProb: 1, Delay: time.Hour})
	ta, _ := n.Attach("a", 0)
	tb, _ := n.Attach("b", 0)
	tc, _ := n.Attach("c", 0)
	ta.Send(Datagram{Destination: "b", Payload: []byte{0}})
	n.Heal()
	ta.Send(Datagram{Destination: "b", Payload: []byte{1}})
	ta.Send(Datagram{Destination: "c", Payload: []byte{2}})
	for _, r := range []Transport{tb, tc} {
		if _, err := r.Receive(); err != nil {
			t.Fatal(err)
		}
	}
	if n.Pending() != 0 {
		t.Fatal("a healed link scheduled a delayed copy")
	}
	if s := n.Links()["a->b"]; s.Offered != 2 || s.Lost != 1 {
		t.Fatalf("a->b stats = %+v, want 2 offered, 1 lost before the heal", s)
	}
}

// TestImpairmentsRefused: a field another field's zero value would
// silently disable is refused, as is a probability outside [0, 1].
func TestImpairmentsRefused(t *testing.T) {
	for _, imp := range []Impairments{
		{ReorderProb: 0.5},
		{Holdback: time.Millisecond},
		{BurstEnter: 0.1, BurstExit: 0.5},
		{BurstLoss: 0.9},
		{BurstEnter: 0.1, BurstLoss: 0.9},
		{LossProb: 1.5},
		{DupProb: -0.1},
		{Jitter: -time.Millisecond},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNetwork(%+v) accepted", imp)
				}
			}()
			NewNetwork(imp)
		}()
	}
	for _, imp := range []Impairments{
		{},
		{ReorderProb: 0.5, Holdback: time.Millisecond},
		{BurstEnter: 0.1, BurstExit: 0.5, BurstLoss: 0.9},
		{Jitter: time.Millisecond},
	} {
		NewNetwork(imp)
	}
}

// TestLosslessSendReceiveAllocs pins the lossless fast path: a Send and
// its Receive cost one allocation, the payload clone. The fault model
// builds no slice and arms no timer when there is nothing to impair.
func TestLosslessSendReceiveAllocs(t *testing.T) {
	ta, tb, _, err := Pair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	dg := Datagram{Destination: "b", Payload: make([]byte, 64)}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := ta.Send(dg); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Receive(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("lossless Send+Receive = %v allocs/op, want 1 (the payload clone)", allocs)
	}
}

// TestSendBatchLeavesCallerSlice: SendBatch defaults an empty Source on
// its own copy of each datagram, as Send does, and never writes the
// caller's slice.
func TestSendBatchLeavesCallerSlice(t *testing.T) {
	ta, tb, _, err := Pair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	dgs := []Datagram{{Destination: "b", Payload: []byte{1}}, {Destination: "b", Payload: []byte{2}}}
	if n, err := SendBatch(ta, dgs); err != nil || n != 2 {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	for i, dg := range dgs {
		if dg.Source != "" {
			t.Errorf("dgs[%d].Source = %q after SendBatch, want the caller's empty value", i, dg.Source)
		}
	}
	for range dgs {
		if got, err := tb.Receive(); err != nil || got.Source != "a" {
			t.Fatalf("received %v, %v; want Source defaulted to a", got, err)
		}
	}
}

func TestCloseUnblocksReceive(t *testing.T) {
	n := NewNetwork(Impairments{})
	ta, _ := n.Attach("a", 0)
	done := make(chan error, 1)
	go func() {
		_, err := ta.Receive()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ta.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Receive returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Receive did not unblock on Close")
	}
	if err := ta.Send(Datagram{Destination: "b"}); err != ErrClosed {
		t.Fatalf("Send after Close returned %v, want ErrClosed", err)
	}
}

func TestDuplicateAttach(t *testing.T) {
	n := NewNetwork(Impairments{})
	n.Attach("a", 0)
	if _, err := n.Attach("a", 0); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := Datagram{Source: "a", Destination: "b", Payload: []byte{1, 2, 3}}
	c := d.Clone()
	c.Payload[0] = 99
	if d.Payload[0] != 1 {
		t.Fatal("Clone aliases payload")
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	ua, err := NewUDPTransport("alice", "127.0.0.1:0")
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer ua.Close()
	ub, err := NewUDPTransport("bob", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ub.Close()
	ua.AddPeer("bob", ub.LocalAddr().String())
	ub.AddPeer("alice", ua.LocalAddr().String())

	want := []byte("over real UDP")
	if err := ua.Send(Datagram{Destination: "bob", Payload: want}); err != nil {
		t.Fatal(err)
	}
	got, err := ub.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "alice" || got.Destination != "bob" || !bytes.Equal(got.Payload, want) {
		t.Fatalf("got %+v", got)
	}
}

// TestUDPTransportLearnPeers: a server with no static peer table
// answers to each client's observed UDP origin, and follows a client
// that re-binds to a new port mid-stream — on the single-datagram path,
// the recvmmsg batch path and the portable batch fallback alike.
func TestUDPTransportLearnPeers(t *testing.T) {
	for _, mode := range []struct {
		name            string
		batch, portable bool
	}{
		{"single", false, false},
		{"batch-mmsg", true, false},
		{"batch-portable", true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			server, err := NewUDPTransport("server", "127.0.0.1:0")
			if err != nil {
				t.Skipf("UDP unavailable: %v", err)
			}
			defer server.Close()
			server.SetPortableBatch(mode.portable)
			serverRecv := func() Datagram {
				t.Helper()
				if !mode.batch {
					dg, err := server.Receive()
					if err != nil {
						t.Fatal(err)
					}
					return dg
				}
				buf := make([]Datagram, 4)
				n, err := server.ReceiveBatch(buf)
				if err != nil || n != 1 {
					t.Fatalf("ReceiveBatch = %d, %v; want one datagram", n, err)
				}
				return buf[0]
			}
			serverSend := func(dg Datagram) error {
				if !mode.batch {
					return server.Send(dg)
				}
				_, err := server.SendBatch([]Datagram{dg})
				return err
			}
			newClient := func() *UDPTransport {
				t.Helper()
				c, err := NewUDPTransport("client", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				if err := c.AddPeer("server", server.LocalAddr().String()); err != nil {
					t.Fatal(err)
				}
				return c
			}
			roundTrip := func(c *UDPTransport, msg string) {
				t.Helper()
				if err := c.Send(Datagram{Destination: "server", Payload: []byte(msg)}); err != nil {
					t.Fatal(err)
				}
				if got := serverRecv(); got.Source != "client" || string(got.Payload) != msg {
					t.Fatalf("server got %+v, want %q from client", got, msg)
				}
				if err := serverSend(Datagram{Destination: "client", Payload: []byte("re:" + msg)}); err != nil {
					t.Fatalf("reply after learning: %v", err)
				}
				got, err := c.Receive()
				if err != nil {
					t.Fatal(err)
				}
				if got.Source != "server" || string(got.Payload) != "re:"+msg {
					t.Fatalf("learned-route reply = %+v", got)
				}
			}

			// Without learning, the server has no route back to an
			// unannounced client.
			client := newClient()
			if err := client.Send(Datagram{Destination: "server", Payload: []byte("hi")}); err != nil {
				t.Fatal(err)
			}
			serverRecv()
			if err := serverSend(Datagram{Destination: "client", Payload: []byte("yo")}); err == nil {
				t.Fatal("reply to unlearned client should fail without SetLearnPeers")
			}

			// With learning, one received frame teaches the reply route,
			// and a frame that confirms it leaves the table alone.
			server.SetLearnPeers(true)
			roundTrip(client, "hi2")
			roundTrip(client, "hi3")

			// The client re-binds: same principal, new port. The echo
			// must follow it, and nothing may reach the old socket.
			moved := newClient()
			roundTrip(moved, "moved")
			client.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			if dg, err := client.Receive(); err == nil {
				t.Fatalf("old socket still received %+v after the client moved", dg)
			}
		})
	}
}

// TestUDPSendBatchStopsAtUnmappedPeer: both batch send paths hand off
// exactly the datagrams that precede one with no UDP mapping and report
// that count with the error, as a loop of Send calls would.
func TestUDPSendBatchStopsAtUnmappedPeer(t *testing.T) {
	for _, portable := range []bool{false, true} {
		a, b := udpPair(t)
		a.SetPortableBatch(portable)
		dgs := make([]Datagram, 8)
		for i := range dgs {
			dgs[i] = Datagram{Destination: "ub", Payload: []byte{byte(i)}}
		}
		dgs[5].Destination = "stranger"
		n, err := a.SendBatch(dgs)
		if n != 5 || err == nil {
			t.Fatalf("portable=%v: SendBatch = %d, %v; want 5 and the mapping error", portable, n, err)
		}
		if got := collect(t, b, 5); len(got) != 5 {
			t.Fatalf("portable=%v: delivered %d, want 5", portable, len(got))
		}
	}
}

func TestUDPTransportNoPeer(t *testing.T) {
	ua, err := NewUDPTransport("alice", "127.0.0.1:0")
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer ua.Close()
	if err := ua.Send(Datagram{Destination: "stranger"}); err == nil {
		t.Fatal("send to unmapped peer succeeded")
	}
}
