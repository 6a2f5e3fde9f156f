package transport

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// udpPair binds two loopback UDP transports mapped at each other.
func udpPair(t testing.TB) (*UDPTransport, *UDPTransport) {
	t.Helper()
	a, err := NewUDPTransport("ua", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDPTransport("ub", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer("ub", b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("ua", a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// collect receives exactly want datagrams via ReceiveBatch, with a
// deadline so a lost-datagram bug fails instead of hanging.
func collect(t *testing.T, tr Transport, want int) []Datagram {
	t.Helper()
	out := make([]Datagram, 0, want)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]Datagram, 16)
		for len(out) < want {
			n, err := ReceiveBatch(tr, buf)
			if err != nil {
				t.Errorf("ReceiveBatch: %v", err)
				return
			}
			out = append(out, buf[:n]...)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out with %d/%d datagrams", len(out), want)
	}
	return out
}

// deliverySet canonicalises a batch of datagrams for multiset
// comparison (UDP may reorder even on loopback).
func deliverySet(dgs []Datagram) []string {
	out := make([]string, len(dgs))
	for i, dg := range dgs {
		out[i] = fmt.Sprintf("%s->%s:%x", dg.Source, dg.Destination, dg.Payload)
	}
	sort.Strings(out)
	return out
}

// TestUDPBatchFallbackEquivalence pins the BatchConn contract: the mmsg
// fast path and the portable loop fallback produce identical delivery
// sets for the same send sequence, in every pairing (mmsg→mmsg,
// mmsg→loop, loop→mmsg, loop→loop). On platforms without mmsg all four
// cases exercise the loop, and the test still verifies batch calls
// round-trip. mmsg-then-loop hands one socket from ReceiveBatch to
// Receive mid-stream: a GSO run split by the first call must come out of
// the second as separate frames, its queued remainder first.
func TestUDPBatchFallbackEquivalence(t *testing.T) {
	const N = 50
	mkBatch := func() []Datagram {
		dgs := make([]Datagram, N)
		for i := range dgs {
			dgs[i] = Datagram{
				Source:      "ua",
				Destination: "ub",
				Payload:     []byte(fmt.Sprintf("dg-%03d", i)),
			}
		}
		return dgs
	}
	var sets [][]string
	for _, mode := range []struct {
		name               string
		sendPort, recvPort bool
		handoff            bool // one ReceiveBatch, then Receive
	}{
		{"mmsg-to-mmsg", false, false, false},
		{"mmsg-to-loop", false, true, false},
		{"loop-to-mmsg", true, false, false},
		{"loop-to-loop", true, true, false},
		{"mmsg-then-loop", false, false, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			a, b := udpPair(t)
			a.SetPortableBatch(mode.sendPort)
			b.SetPortableBatch(mode.recvPort)
			dgs := mkBatch()
			sent, err := SendBatch(a, dgs)
			if err != nil {
				t.Fatal(err)
			}
			if sent != N {
				t.Fatalf("sent %d of %d", sent, N)
			}
			var got []Datagram
			if mode.handoff {
				// A one-slot ReceiveBatch takes one message: with GRO the
				// rest of its run stays queued and the second run stays in
				// the socket, so Receive must drain the one and split the
				// other.
				got = make([]Datagram, 1)
				if n, err := b.ReceiveBatch(got); err != nil || n != 1 {
					t.Fatalf("ReceiveBatch = %d, %v", n, err)
				}
				b.SetPortableBatch(true)
				for len(got) < N {
					b.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
					dg, err := b.Receive()
					if err != nil {
						t.Fatalf("Receive after %d datagrams: %v", len(got), err)
					}
					got = append(got, dg)
				}
			} else {
				got = collect(t, b, N)
			}
			sets = append(sets, deliverySet(got))
		})
	}
	for i := 1; i < len(sets); i++ {
		if len(sets[i]) != len(sets[0]) {
			t.Fatalf("mode %d delivered %d datagrams, mode 0 delivered %d", i, len(sets[i]), len(sets[0]))
		}
		for j := range sets[i] {
			if sets[i][j] != sets[0][j] {
				t.Fatalf("mode %d delivery set diverges at %d: %q vs %q", i, j, sets[i][j], sets[0][j])
			}
		}
	}
}

// TestNetworkBatchMatchesLoop pins the in-memory network's batched
// sends against a loop of single sends under an impaired fault model:
// the RNG draws per datagram in order either way, so with the same seed
// the two delivery sequences are identical.
func TestNetworkBatchMatchesLoop(t *testing.T) {
	imp := Impairments{LossProb: 0.2, DupProb: 0.1, ReorderProb: 0.15, CorruptProb: 0.1, Seed: 42}
	run := func(batch bool) ([]Datagram, NetworkStats) {
		n := NewNetwork(imp)
		sender, err := n.Attach("s", 512)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := n.Attach("r", 512)
		if err != nil {
			t.Fatal(err)
		}
		const N = 100
		dgs := make([]Datagram, N)
		for i := range dgs {
			dgs[i] = Datagram{Source: "s", Destination: "r", Payload: []byte{byte(i), byte(i >> 8)}}
		}
		if batch {
			if sent, err := SendBatch(sender, dgs); err != nil || sent != N {
				t.Fatalf("SendBatch = %d, %v", sent, err)
			}
		} else {
			for i := range dgs {
				if err := sender.Send(dgs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Flush()
		var out []Datagram
		buf := make([]Datagram, 32)
		for {
			got, err := ReceiveBatch(recv, buf)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, buf[:got]...)
			if len(recv.(*netPort).ch) == 0 {
				break
			}
		}
		return out, n.Stats()
	}
	loopOut, loopStats := run(false)
	batchOut, batchStats := run(true)
	if loopStats != batchStats {
		t.Fatalf("fault-model stats diverged:\nloop  %+v\nbatch %+v", loopStats, batchStats)
	}
	if len(loopOut) != len(batchOut) {
		t.Fatalf("delivered %d via loop, %d via batch", len(loopOut), len(batchOut))
	}
	for i := range loopOut {
		if loopOut[i].Source != batchOut[i].Source || string(loopOut[i].Payload) != string(batchOut[i].Payload) {
			t.Fatalf("delivery %d diverges: %v vs %v", i, loopOut[i], batchOut[i])
		}
	}
}

// BenchmarkUDPLoopbackBatch prices the batched socket layer on its own:
// 32 frames of 64 B through SendBatch and back out of ReceiveBatch over
// loopback, reported per datagram. Where mmsg is available the batch
// rides one GSO message out and, with GRO, one message in; either way
// one recvmmsg takes it, and the payload arena is the batch's only
// allocation — asserted before timing.
func BenchmarkUDPLoopbackBatch(b *testing.B) {
	const batch = 32
	a, r := udpPair(b)
	dgs := make([]Datagram, batch)
	for i := range dgs {
		dgs[i] = Datagram{Destination: "ub", Payload: make([]byte, 64)}
	}
	buf := make([]Datagram, batch)
	round := func() {
		if n, err := a.SendBatch(dgs); err != nil || n != batch {
			b.Fatalf("SendBatch = %d, %v", n, err)
		}
		for got := 0; got < batch; {
			n, err := r.ReceiveBatch(buf)
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
	}
	if mmsgAvailable {
		if allocs := testing.AllocsPerRun(100, round); allocs > 1 {
			b.Fatalf("%.2f allocations per batch, want at most 1 (the payload arena)", allocs)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/dgram")
}
