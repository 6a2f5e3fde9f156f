package l4

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/ip"
	"fbs/internal/principal"
)

// The full-stack integration: a ttcp-style bulk transfer where every
// packet traverses real IPv4 (checksums, DF sizing) with real FBS
// processing (flow classification, zero-message keying, keyed-MD5 MAC,
// DES-CBC encryption) at the paper's hook points, over the simplified
// TCP of this package. This is the closest executable analogue of the
// paper's testbed runs.

var (
	fsOnce sync.Once
	fsCA   *cert.Authority
)

func fbsStreamFixture(t *testing.T, secret ip.SecretPolicy, rto time.Duration) (*StreamStack, *StreamStack, ip.Addr) {
	t.Helper()
	fsOnce.Do(func() {
		ca, err := cert.NewAuthority("stream-root", 512)
		if err != nil {
			t.Fatal(err)
		}
		fsCA = ca
	})
	dir := cert.NewStaticDirectory()
	ver := &cert.Verifier{CAKey: fsCA.PublicKey(), CA: "stream-root"}

	w := &streamWire{peers: make(map[ip.Addr]*ip.Stack)}
	a := ip.Addr{10, 2, 0, 1}
	b := ip.Addr{10, 2, 0, 2}
	mk := func(addr ip.Addr) *ip.Stack {
		id, err := principal.NewIdentity(ip.Principal(addr), cryptolib.TestGroup)
		if err != nil {
			t.Fatal(err)
		}
		c, err := fsCA.Issue(id, time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		dir.Publish(c)
		hook, err := ip.NewFBSHook(core.Config{
			Identity:  id,
			Directory: dir,
			Verifier:  ver,
		}, secret)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ip.NewStack(ip.StackConfig{Addr: addr, Link: w.sender(addr), Hook: hook})
		if err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		w.peers[addr] = s
		w.mu.Unlock()
		return s
	}
	sa := mk(a)
	sb := mk(b)
	// The encrypted body grows by up to a DES block of padding beyond
	// the FBS header; SealOverhead is the worst-case sum.
	const secOverhead = core.SealOverhead
	ssa, err := NewStreamStack(sa, StreamConfig{RTO: rto, SecurityHeaderLen: secOverhead})
	if err != nil {
		t.Fatal(err)
	}
	ssb, err := NewStreamStack(sb, StreamConfig{RTO: rto, SecurityHeaderLen: secOverhead})
	if err != nil {
		t.Fatal(err)
	}
	return ssa, ssb, b
}

func TestTTCPThroughFBSStack(t *testing.T) {
	ssa, ssb, b := fbsStreamFixture(t, ip.AlwaysSecret, 30*time.Millisecond)
	const total = 128 * 1024
	data := make([]byte, total)
	lcg := cryptolib.NewLCGSeeded(1997)
	for i := range data {
		data[i] = byte(lcg.Uint32())
	}

	ln, err := ssb.Listen(5001)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		got, err := io.ReadAll(conn)
		if err != nil {
			return
		}
		done <- got
	}()

	start := time.Now()
	conn, err := ssa.Dial(b, 5001)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := conn.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	var got []byte
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("transfer timed out")
	}
	elapsed := time.Since(start)
	if !bytes.Equal(got, data) {
		t.Fatalf("payload corrupted through the FBS stack (%d in, %d out)", len(data), len(got))
	}
	t.Logf("ttcp through full FBS stack: %d KB in %v (%.0f kb/s)",
		total/1024, elapsed, float64(total)*8/elapsed.Seconds()/1000)
}

// The whole transfer must ride a handful of flows (two: data direction
// and ack direction) with exactly one master key computation per side.
func TestTTCPFlowEconomy(t *testing.T) {
	ssa, ssb, b := fbsStreamFixture(t, ip.AlwaysSecret, 30*time.Millisecond)
	ln, err := ssb.Listen(5002)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, conn)
	}()
	conn, err := ssa.Dial(b, 5002)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	if err := conn.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	hookA := stackHook(t, ssa)
	fam := hookA.Endpoint.Snapshot().FAM
	if fam.FlowsCreated != 1 {
		t.Errorf("sender created %d flows for one connection, want 1", fam.FlowsCreated)
	}
	ks := hookA.Endpoint.Snapshot().Keying
	if ks.MasterKeyComputes != 1 {
		t.Errorf("sender performed %d DH exponentiations, want 1", ks.MasterKeyComputes)
	}
	if fam.Lookups < 40 {
		t.Errorf("only %d datagrams classified; transfer too small to be meaningful", fam.Lookups)
	}
}

// TestBulkSendsEachSegmentOnce: on a lossless link a 64 KiB transfer
// puts each data segment on the wire once — ⌈65536 / MSS⌉ of them —
// whether the hook encrypts or only MACs. An ACK slides the window and
// never re-sends a segment still in flight. The RTO is long enough that
// no stall of a loaded host reaches it, so the count is the ACK clock's
// alone.
func TestBulkSendsEachSegmentOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		secret ip.SecretPolicy
	}{{"FBS-DES-MD5", ip.AlwaysSecret}, {"FBS-MAC-only", ip.NeverSecret}} {
		t.Run(tc.name, func(t *testing.T) {
			ssa, ssb, b := fbsStreamFixture(t, tc.secret, 10*time.Second)
			var segments atomic.Int64
			ssb.stack.Handle(ip.ProtoTCP, func(h *ip.Header, payload []byte) {
				if _, data, err := UnmarshalTCP(payload, h.Src, h.Dst); err == nil && len(data) > 0 {
					segments.Add(1)
				}
				ssb.input(h, payload)
			})
			ln, err := ssb.Listen(5003)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				if conn, err := ln.Accept(); err == nil {
					io.Copy(io.Discard, conn)
				}
			}()
			conn, err := ssa.Dial(b, 5003)
			if err != nil {
				t.Fatal(err)
			}
			const total = 64 * 1024
			if _, err := conn.Write(make([]byte, total)); err != nil {
				t.Fatal(err)
			}
			if err := conn.CloseWrite(); err != nil {
				t.Fatal(err)
			}
			mss := ssa.mss()
			if got, want := segments.Load(), int64((total+mss-1)/mss); got != want {
				t.Errorf("%d data segments for %d bytes at MSS %d, want %d", got, total, mss, want)
			}
		})
	}
}

// stackHook digs the FBS hook back out of the stream stack for metric
// assertions.
func stackHook(t *testing.T, ss *StreamStack) *ip.FBSHook {
	t.Helper()
	h, ok := ss.stack.Hook().(*ip.FBSHook)
	if !ok {
		t.Fatal("stack has no FBS hook")
	}
	return h
}
