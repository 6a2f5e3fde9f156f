package l4

import (
	"bytes"
	"io"
	"sync"
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

func fbsStreamFixture(t *testing.T) (*StreamStack, *StreamStack, ip.Addr) {
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
			Identity:   id,
			Directory:  dir,
			Verifier:   ver,
			SinglePass: true,
		}, ip.AlwaysSecret)
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
	ssa, err := NewStreamStack(sa, StreamConfig{RTO: 30 * time.Millisecond, SecurityHeaderLen: secOverhead})
	if err != nil {
		t.Fatal(err)
	}
	ssb, err := NewStreamStack(sb, StreamConfig{RTO: 30 * time.Millisecond, SecurityHeaderLen: secOverhead})
	if err != nil {
		t.Fatal(err)
	}
	return ssa, ssb, b
}

func TestTTCPThroughFBSStack(t *testing.T) {
	ssa, ssb, b := fbsStreamFixture(t)
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
	ssa, ssb, b := fbsStreamFixture(t)
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
