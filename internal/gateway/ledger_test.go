package gateway

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// ledgerWatch polls Stats() as fast as it can until stopped. Accepted
// and ΣDrops are cumulative, so no poll may see either go backwards;
// with exact set (traffic stopped) every poll must see the same pair and
// the ledger identity must hold on each.
type ledgerWatch struct {
	stop  chan struct{}
	done  chan struct{}
	polls int
	err   error
}

func sumDrops(st Stats) (n uint64) {
	for _, v := range st.Drops {
		n += v
	}
	return n
}

func watchLedger(g *Gateway, exact bool) *ledgerWatch {
	w := &ledgerWatch{stop: make(chan struct{}), done: make(chan struct{})}
	first := g.Stats()
	lastAccepted, lastDrops := first.Accepted, sumDrops(first)
	go func() {
		defer close(w.done)
		for {
			select {
			case <-w.stop:
				return
			default:
			}
			st := g.Stats()
			accepted, drops := st.Accepted, sumDrops(st)
			w.polls++
			switch {
			case accepted < lastAccepted || drops < lastDrops:
				w.err = fmt.Errorf("poll %d: ledger went backwards: accepted %d → %d, drops %d → %d (epoch %d)",
					w.polls, lastAccepted, accepted, lastDrops, drops, st.Epoch)
			case exact && (accepted != lastAccepted || drops != lastDrops):
				w.err = fmt.Errorf("poll %d: ledger moved with traffic stopped: accepted %d → %d, drops %d → %d (epoch %d)",
					w.polls, lastAccepted, accepted, lastDrops, drops, st.Epoch)
			case exact && st.Received != accepted+drops+st.NoTenant+st.Absorbed+st.RetryStarved:
				w.err = fmt.Errorf("poll %d: identity fails with traffic stopped: %+v", w.polls, st)
			}
			if w.err != nil {
				return
			}
			lastAccepted, lastDrops = accepted, drops
		}
	}()
	return w
}

// finish stops the poller and fails the test on anything it saw.
func (w *ledgerWatch) finish(t *testing.T) {
	t.Helper()
	close(w.stop)
	<-w.done
	if w.err != nil {
		t.Fatal(w.err)
	}
}

// TestGatewayLedgerExactAcrossSwaps: with traffic stopped, every
// Stats() taken while the config is swapped 60 times and then shut down
// reads the same Accepted and ΣDrops and satisfies the identity — the
// groups a swap supersedes stay in the fold from the instant they leave
// the live epoch until they are drained into the retired total.
func TestGatewayLedgerExactAcrossSwaps(t *testing.T) {
	w := newGWWorld(t)
	cfg := &Config{Tenants: []TenantConfig{
		{Name: "alpha", Address: "gw-alpha", Shards: 2},
		{Name: "beta", Address: "gw-beta", Shards: 2},
		{Name: "gamma", Address: "gw-gamma", Shards: 2},
	}}
	g := w.gateway(cfg)
	client := w.client("client-l")
	const echoes = 30
	for i := 0; i < echoes; i++ {
		if err := client.SendTo(principal.Address(cfg.Tenants[i%3].Address), []byte("ping"), true); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := client.Receive(); err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
	}
	raw, err := w.net.Attach("raw-l", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const runts = 6
	for i := 0; i < runts; i++ {
		if err := raw.Send(transport.Datagram{Source: "raw-l", Destination: principal.Address(cfg.Tenants[i%3].Address), Payload: []byte{1, 2, 3}}); err != nil {
			t.Fatalf("runt %d: %v", i, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); g.Stats().Received < echoes+runts; {
		if time.Now().After(deadline) {
			t.Fatalf("gateway saw %d of %d datagrams", g.Stats().Received, echoes+runts)
		}
		time.Sleep(time.Millisecond)
	}
	if st := g.Stats(); st.Accepted != echoes || sumDrops(st) != runts {
		t.Fatalf("before the swaps: accepted %d drops %d, want %d and %d", st.Accepted, sumDrops(st), echoes, runts)
	}

	watch := watchLedger(g, true)
	for s := 0; s < 60; s++ {
		next, err := cfg.Clone()
		if err != nil {
			t.Fatal(err)
		}
		next.Tenants[0].FlowMaxPackets = uint64(1000 + s)
		if _, err := g.Swap(next); err != nil {
			t.Fatalf("swap %d: %v", s, err)
		}
		cfg = next
	}
	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	watch.finish(t)
	if watch.polls < 60 {
		t.Fatalf("only %d polls raced 60 swaps", watch.polls)
	}
	if st.Accepted != echoes || sumDrops(st) != runts {
		t.Fatalf("final: accepted %d drops %d, want %d and %d", st.Accepted, sumDrops(st), echoes, runts)
	}
	checkReconciliation(t, st)
}

// slowDirectory blocks lookups of one address until released, which
// keeps the datagram that needed it in flight inside its shard.
type slowDirectory struct {
	cert.Directory
	slow    principal.Address
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (d *slowDirectory) Lookup(addr principal.Address) (*cert.Certificate, error) {
	if addr == d.slow {
		d.once.Do(func() { close(d.entered) })
		<-d.release
	}
	return d.Directory.Lookup(addr)
}

// TestGatewayLedgerWhileSwapRetires holds the retire window open: a
// datagram stuck in a keying upcall keeps the superseded epoch from
// quiescing, so Swap sits between its commit and its drain for as long
// as the test likes. Everything the old epoch accepted must stay in
// Stats() throughout.
func TestGatewayLedgerWhileSwapRetires(t *testing.T) {
	w := newGWWorld(t)
	dir := &slowDirectory{Directory: w.dom.Directory(), slow: "client-slow",
		entered: make(chan struct{}), release: make(chan struct{})}
	opts := w.options()
	opts.Directory = dir
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := oneTenant()
	cfg.DrainTimeout = Duration(30 * time.Second)
	if err := g.Start(cfg); err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown(2 * time.Second) //nolint:errcheck // safety net
	release := sync.OnceFunc(func() { close(dir.release) })
	defer release() // before the Shutdown above, which would wait out a Swap still draining

	client := w.client("client-fast")
	const echoes = 20
	for i := 0; i < echoes; i++ {
		if err := client.SendTo("gw-edge", []byte("ping"), true); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := client.Receive(); err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
	}
	slow := w.client("client-slow")
	if err := slow.SendTo("gw-edge", []byte("stuck"), true); err != nil {
		t.Fatalf("slow send: %v", err)
	}
	<-dir.entered

	next, err := cfg.Clone()
	if err != nil {
		t.Fatal(err)
	}
	next.Tenants[0].FlowMaxPackets = 1000
	swapped := make(chan error, 1)
	go func() { _, err := g.Swap(next); swapped <- err }()
	for g.Epoch() != 2 { // the commit; the retire phase now waits on the stuck upcall
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		if st := g.Stats(); st.Accepted != echoes {
			t.Fatalf("poll %d while epoch 1 retires: accepted %d, want %d", i, st.Accepted, echoes)
		}
	}
	release()
	if err := <-swapped; err != nil {
		t.Fatalf("swap: %v", err)
	}
	if _, err := slow.Receive(); err != nil {
		t.Fatalf("stuck datagram's echo: %v", err)
	}
	st := g.Stats()
	if st.Accepted != echoes+1 {
		t.Fatalf("after the drain: accepted %d, want %d", st.Accepted, echoes+1)
	}
	checkReconciliation(t, st)
}
