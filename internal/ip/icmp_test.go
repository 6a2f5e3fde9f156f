package ip

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestICMPEchoRoundTrip(t *testing.T) {
	f := func(id, seq uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		m := ICMPEcho{Type: ICMPEchoRequest, ID: id, Seq: seq, Payload: payload}
		back, err := UnmarshalICMPEcho(m.Marshal())
		if err != nil {
			return false
		}
		return back.ID == id && back.Seq == seq && bytes.Equal(back.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestICMPEchoRejectsCorruption(t *testing.T) {
	m := ICMPEcho{Type: ICMPEchoRequest, ID: 7, Seq: 1, Payload: []byte("ping data")}
	wire := m.Marshal()
	for i := range wire {
		c := append([]byte(nil), wire...)
		c[i] ^= 0x01
		if _, err := UnmarshalICMPEcho(c); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
	if _, err := UnmarshalICMPEcho(wire[:4]); err == nil {
		t.Fatal("truncated message accepted")
	}
}

// Ping between two FBS-enabled stacks: ICMP has no ports, so the
// 5-tuple policy degrades to a host-level flow (footnote 10) — and the
// echo still authenticates and decrypts end to end.
func TestPingThroughFBS(t *testing.T) {
	w := newFBSWorld(t)
	wr := &wire{}
	a, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.2")
	sa := w.fbsStack(t, wr, a, AlwaysSecret)
	sb := w.fbsStack(t, wr, b, AlwaysSecret)
	wr.peers = []*Stack{sa, sb}
	sb.ServeEcho()

	var reply *ICMPEcho
	sa.Handle(ProtoICMP, func(_ *Header, p []byte) {
		if m, err := UnmarshalICMPEcho(p); err == nil && m.Type == ICMPEchoReply {
			reply = m
		}
	})
	req := ICMPEcho{Type: ICMPEchoRequest, ID: 42, Seq: 1, Payload: []byte("fbs ping")}
	if err := sa.Output(ProtoICMP, b, req.Marshal(), false); err != nil {
		t.Fatal(err)
	}
	if reply == nil {
		t.Fatal("no echo reply")
	}
	if reply.ID != 42 || !bytes.Equal(reply.Payload, []byte("fbs ping")) {
		t.Fatalf("bad reply %+v", reply)
	}
	// Host-level flow: port fields of the classified flow are zero, so
	// a second ping shares the flow (one flow per host pair+proto).
	req.Seq = 2
	if err := sa.Output(ProtoICMP, b, req.Marshal(), false); err != nil {
		t.Fatal(err)
	}
	hook := sa.Hook().(*FBSHook)
	if got := hook.Endpoint.Snapshot().FAM.FlowsCreated; got != 1 {
		t.Fatalf("ICMP created %d flows, want 1 host-level flow", got)
	}
}

// Decoder fuzz: arbitrary bytes must never panic any parser in this
// package.
func TestDecodersNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		Unmarshal(b)
		UnmarshalICMPEcho(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
