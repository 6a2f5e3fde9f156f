package ip

import (
	"testing"

	"fbs/internal/core"
	"fbs/internal/cryptolib"
)

// corruptingWire delivers every frame twice — once intact, once with a
// seeded single-bit flip in the FBS-protected payload — so the stack's
// security hook must reject exactly one copy per transmission and
// classify it under the shared DropReason taxonomy.
type corruptingWire struct {
	wire
	rng *cryptolib.LCG
}

func (w *corruptingWire) sender(self Addr) LinkFunc {
	inner := w.wire.sender(self)
	return LinkFunc(func(frame []byte) error {
		if err := inner(append([]byte(nil), frame...)); err != nil {
			return err
		}
		// Flip one bit past the IP header, inside the FBS header or
		// body, on the duplicate copy.
		_, pay, err := Unmarshal(frame)
		if err != nil || len(pay) == 0 {
			return nil
		}
		off := len(frame) - len(pay)
		bad := append([]byte(nil), frame...)
		bit := w.rng.Uint32()
		idx := off + int(bit/8)%len(pay)
		bad[idx] ^= 1 << (bit % 8)
		return inner(bad)
	})
}

// TestFBSHookDropsUnderCorruption drives traffic through a wire that
// corrupts a duplicate of every frame and asserts exact reconciliation
// at the IP layer: every corrupted copy lands in a HookDrops bucket
// (never in a handler), and delivered + hook drops accounts for every
// packet the receiving stack accepted for local delivery.
func TestFBSHookDropsUnderCorruption(t *testing.T) {
	w := newFBSWorld(t)
	cw := &corruptingWire{rng: cryptolib.NewLCGSeeded(0xFA17)}
	a, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.2")
	mkStack := func(addr Addr) *Stack {
		id := w.publish(t, addr)
		hook, err := NewFBSHook(core.Config{
			Identity:  id,
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clk,
		}, AlwaysSecret)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStack(StackConfig{Addr: addr, Link: cw.sender(addr), Hook: hook, Now: w.clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sa, sb := mkStack(a), mkStack(b)
	cw.peers = []*Stack{sa, sb}

	var delivered int
	sb.Handle(ProtoUDP, func(_ *Header, p []byte) { delivered++ })
	const sends = 200
	payload := []byte{0x04, 0x00, 0x00, 0x35, 'c', 'h', 'a', 'o', 's', '!', '!', '!'}
	for i := 0; i < sends; i++ {
		if err := sa.Output(ProtoUDP, b, payload, false); err != nil {
			t.Fatal(err)
		}
	}

	st := sb.Stats()
	if delivered != sends {
		t.Errorf("clean copies delivered = %d, want %d", delivered, sends)
	}
	if st.DroppedHook != sends {
		t.Errorf("DroppedHook = %d, want one per corrupted copy (%d)", st.DroppedHook, sends)
	}
	var classified uint64
	for r := 0; r < core.NumDropReasons; r++ {
		classified += st.HookDrops[r]
	}
	if classified != st.DroppedHook {
		t.Errorf("HookDrops classify %d of %d hook drops — silent drop path", classified, st.DroppedHook)
	}
	if st.HookDrops[core.DropNone] != 0 {
		t.Errorf("%d hook drops unclassified (reason none)", st.HookDrops[core.DropNone])
	}
	// A single flipped bit in an authenticated encrypted datagram lands
	// in the MAC bucket almost always; whatever the seed chose, the
	// dominant bucket must be bad_mac and replay must stay empty (no
	// duplicate clean copies were sent).
	if st.HookDrops[core.DropBadMAC] == 0 {
		t.Error("corruption never produced a bad_mac drop")
	}
	if st.HookDrops[core.DropReplay] != 0 {
		t.Errorf("replay drops = %d without duplicate clean traffic", st.HookDrops[core.DropReplay])
	}
	// Conservation at the IP layer: everything locally addressed was
	// either handed to the handler or dropped by the hook.
	if got := uint64(delivered) + st.DroppedHook; got != st.Delivered+st.DroppedHook {
		t.Errorf("delivered mismatch: handler saw %d, stack counted %d", delivered, st.Delivered)
	}
}
