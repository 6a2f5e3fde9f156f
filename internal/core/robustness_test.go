package core

import (
	"bytes"
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
