package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Attack-surface robustness: whatever arrives off the wire, the
// receive path returns an error rather than panicking or accepting.

func TestOpenNeverPanicsOnGarbage(t *testing.T) {
	w := newWorld(t)
	_, b, _ := endpointPair(t, w, nil)
	f := func(payload []byte, srcTag uint8) bool {
		src := "alice"
		if srcTag%3 == 0 {
			src = "nobody"
		}
		_, err := b.Open(transport.Datagram{
			Source:      principal.Address(src),
			Destination: "bob",
			Payload:     payload,
		})
		// Random bytes must never be accepted: a valid header demands a
		// valid 128-bit MAC, which random input cannot supply.
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenMutatedValidDatagram fuzzes structured mutations of a valid
// datagram: truncations, extensions, and header-field scrambles.
func TestOpenMutatedValidDatagram(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	sealed, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("a perfectly valid datagram body")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(sealed); err != nil {
		t.Fatal(err)
	}
	f := func(cut uint8, extend uint8, scramble []byte) bool {
		m := sealed.Clone()
		// Truncate.
		if int(cut) < len(m.Payload) && cut > 0 {
			m.Payload = m.Payload[:len(m.Payload)-int(cut)]
		}
		// Extend with junk.
		if extend > 0 {
			m.Payload = append(m.Payload, make([]byte, extend)...)
		}
		// Scramble bytes.
		for i, v := range scramble {
			if len(m.Payload) > 0 {
				m.Payload[(i*37)%len(m.Payload)] ^= v
			}
		}
		got, err := b.Open(m)
		if err != nil {
			return true
		}
		// The only acceptable acceptance is a byte-identical replay of
		// the unmodified datagram.
		return bytes.Equal(m.Payload, sealed.Payload) &&
			bytes.Equal(got.Payload, []byte("a perfectly valid datagram body"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestEndpointConcurrency hammers one endpoint pair from many
// goroutines; run with -race. Every accepted datagram must be intact.
func TestEndpointConcurrency(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	const senders = 8
	const perSender = 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				payload := []byte{byte(s), byte(i), 'p', 'a', 'y'}
				if err := a.SendTo("bob", payload, i%2 == 0); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	received := make(map[[2]byte]int)
	var rg sync.WaitGroup
	var rmu sync.Mutex
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				dg, err := b.Receive()
				if err == transport.ErrClosed {
					return
				}
				if err != nil {
					t.Errorf("unexpected rejection on clean network: %v", err)
					return
				}
				if len(dg.Payload) != 5 || dg.Payload[2] != 'p' {
					t.Errorf("mangled payload %x", dg.Payload)
					return
				}
				rmu.Lock()
				received[[2]byte{dg.Payload[0], dg.Payload[1]}]++
				done := len(received) == senders*perSender
				rmu.Unlock()
				if done {
					// Unblock the sibling receivers.
					b.Close()
					return
				}
			}
		}()
	}
	wg.Wait()
	// Receivers exit when everything arrived; closing b unblocks any
	// stragglers (the network is loss-free so all datagrams arrive).
	rg.Wait()
	rmu.Lock()
	defer rmu.Unlock()
	if len(received) != senders*perSender {
		t.Fatalf("received %d distinct datagrams, want %d", len(received), senders*perSender)
	}
	for k, c := range received {
		if c != 1 {
			t.Fatalf("datagram %v received %d times on a clean network", k, c)
		}
	}
}

// TestConcurrentSweeperAndTraffic races the background sweeper against
// live traffic; run with -race.
func TestConcurrentSweeperAndTraffic(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	stop := a.StartSweeper(time.Millisecond)
	defer stop()
	for i := 0; i < 200; i++ {
		if err := a.SendTo("bob", []byte{byte(i)}, true); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Receive(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlowKeyCachesAreSoftState holds the TFKC and RFKC to the paper's
// soft-state rule (Section 5.3) for every registered suite: a flow-key
// slot lost before every datagram costs a re-derivation, never a
// verdict. A sender that loses its TFKC before each seal still writes
// datagrams a warm receiver opens; a receiver that loses its RFKC before
// each open reaches the verdicts, drop reasons and bytes of an unflushed
// twin on the same stream — valid datagrams of two flows, a flipped body
// byte, a flipped tag byte, and the same flow's datagram relabelled as
// each other suite of its family. The MKC stays warm throughout, so no
// side computes a master key again.
func TestFlowKeyCachesAreSoftState(t *testing.T) {
	const offCipherMode = 3
	for _, s := range Suites() {
		t.Run(s.Name(), func(t *testing.T) {
			secret := s.ID() != CipherNone
			w := newWorld(t)
			cfg := func(c *Config) { c.Cipher = s.ID() }
			a, b, _ := endpointPair(t, w, cfg)
			twinTr, err := transport.NewNetwork(transport.Impairments{}).Attach("bob", 64)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewEndpoint(Config{Identity: w.principal(t, "bob"), Transport: twinTr,
				Directory: w.dir, Verifier: w.ver, Clock: w.clock, Cipher: s.ID()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { twin.Close() })

			flow := func(port uint16) *FlowID {
				return &FlowID{Src: "alice", Dst: "bob", Proto: 17, SrcPort: port, DstPort: 9}
			}
			seal := func(id *FlowID, payload string) transport.Datagram {
				t.Helper()
				wire, err := a.SealAppend(nil, transport.Datagram{Source: "alice", Destination: "bob",
					Payload: []byte(payload)}, id, secret)
				if err != nil {
					t.Fatal(err)
				}
				return transport.Datagram{Source: "alice", Destination: "bob", Payload: wire}
			}
			computes := func(e *Endpoint) uint64 { return e.Snapshot().Keying.MasterKeyComputes }
			// Warm every MKC: one datagram each way keys both pairs.
			warm := seal(flow(1), "warm")
			for _, r := range []*Endpoint{b, twin} {
				if _, err := r.Open(warm); err != nil {
					t.Fatalf("warm-up: %v", err)
				}
			}
			before := [3]uint64{computes(a), computes(b), computes(twin)}

			// The sender forgets its TFKC before every seal.
			for i := range 6 {
				a.tfkc.Flush()
				want := fmt.Sprintf("tfkc-loss %d", i)
				got, err := b.Open(seal(flow(1), want))
				if err != nil || string(got.Payload) != want {
					t.Fatalf("datagram %d sealed after a TFKC loss: %q, %v", i, got.Payload, err)
				}
			}

			// The receiver forgets its RFKC before every open; the twin
			// keeps its own.
			var stream []transport.Datagram
			for i := range 3 {
				stream = append(stream, seal(flow(1), fmt.Sprintf("rfkc-loss %d", i)))
			}
			stream = append(stream, seal(flow(2), "second flow"))
			mutate := func(dg transport.Datagram, fn func([]byte)) transport.Datagram {
				dg.Payload = bytes.Clone(dg.Payload)
				fn(dg.Payload)
				return dg
			}
			stream = append(stream,
				mutate(seal(flow(1), "flipped body"), func(p []byte) { p[len(p)-1] ^= 1 }),
				mutate(seal(flow(1), "flipped tag"), func(p []byte) { p[macValueOffset] ^= 1 }))
			for _, o := range Suites() {
				if o.ID() != s.ID() && o.ID() != CipherNone && s.ID() != CipherNone && o.AEAD() == s.AEAD() {
					stream = append(stream, mutate(seal(flow(1), "relabelled"), func(p []byte) {
						p[offCipherMode] = byte(o.ID())<<4 | p[offCipherMode]&0x0F
					}))
				}
			}
			stream = append(stream, seal(flow(1), "after the tampering"))
			refused := 0
			for i, dg := range stream {
				b.rfkc.Flush()
				got, err := b.Open(dg)
				want, wantErr := twin.Open(dg)
				if wantErr != nil {
					refused++
				}
				if DropReasonOf(err) != DropReasonOf(wantErr) || (err == nil) != (wantErr == nil) ||
					!bytes.Equal(got.Payload, want.Payload) {
					t.Errorf("datagram %d after an RFKC loss: %q, %v; the unflushed twin: %q, %v",
						i, got.Payload, err, want.Payload, wantErr)
				}
			}
			if valid := 5; refused != len(stream)-valid {
				t.Errorf("the twin refused %d of %d datagrams, want all but the %d valid ones", refused, len(stream), valid)
			}
			if got, want := b.Snapshot().Drops, twin.Snapshot().Drops; got != want {
				t.Errorf("drops after RFKC losses %v, the twin's %v", got, want)
			}
			if after := [3]uint64{computes(a), computes(b), computes(twin)}; after != before {
				t.Errorf("master key computes (sender, receiver, twin) %v → %v: a flow-key loss reached the MKC", before, after)
			}
		})
	}
}
