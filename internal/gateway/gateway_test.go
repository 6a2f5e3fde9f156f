package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbs"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/obs"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// gwWorld is the in-memory harness: a domain (CA + directory), a
// lossless network, and a memoised identity store so a tenant keeps
// the same keys across config swaps — exactly what a daemon's
// provisioning state provides.
type gwWorld struct {
	t     testing.TB
	dom   *fbs.Domain
	net   *transport.Network
	clock *core.SimClock

	mu  sync.Mutex
	ids map[principal.Address]*principal.Identity
}

func newGWWorld(t testing.TB) *gwWorld {
	t.Helper()
	clock := core.NewSimClock(time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC))
	dom, err := fbs.NewDomain("gw-test", fbs.WithGroup(cryptolib.TestGroup), fbs.WithClock(clock))
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	return &gwWorld{
		t:     t,
		dom:   dom,
		net:   transport.NewNetwork(transport.Impairments{}),
		clock: clock,
		ids:   make(map[principal.Address]*principal.Identity),
	}
}

func (w *gwWorld) identity(tc TenantConfig) (*principal.Identity, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	addr := principal.Address(tc.Address)
	if id, ok := w.ids[addr]; ok {
		return id, nil
	}
	id, err := w.dom.NewPrincipal(addr)
	if err != nil {
		return nil, err
	}
	w.ids[addr] = id
	return id, nil
}

func (w *gwWorld) options() Options {
	return Options{
		Identity: w.identity,
		Listen: func(tc TenantConfig) (transport.Transport, error) {
			return w.net.Attach(principal.Address(tc.Address), 4096)
		},
		Directory: w.dom.Directory(),
		Verifier:  w.dom.Verifier(),
		Clock:     w.clock,
	}
}

func (w *gwWorld) gateway(cfg *Config) *Gateway {
	w.t.Helper()
	g, err := New(w.options())
	if err != nil {
		w.t.Fatalf("New: %v", err)
	}
	if err := g.Start(cfg); err != nil {
		w.t.Fatalf("Start: %v", err)
	}
	w.t.Cleanup(func() { g.Shutdown(2 * time.Second) }) //nolint:errcheck // idempotent safety net
	return g
}

func (w *gwWorld) client(addr string, opts ...func(*core.Config)) *core.Endpoint {
	w.t.Helper()
	ep, err := w.dom.NewEndpoint(principal.Address(addr), w.net, opts...)
	if err != nil {
		w.t.Fatalf("client %s: %v", addr, err)
	}
	w.t.Cleanup(func() { ep.Close() })
	return ep
}

func oneTenant() *Config {
	return &Config{Tenants: []TenantConfig{{
		Name:        "edge",
		Address:     "gw-edge",
		Shards:      2,
		ReplayCache: true,
	}}}
}

// checkReconciliation asserts the gateway-level drop-ledger identity:
// every datagram pulled off a listener is accounted exactly once.
func checkReconciliation(t *testing.T, st Stats) {
	t.Helper()
	if st.EchoFailures != 0 {
		t.Fatalf("echo failures: %d (seal-side drops would blur the ledger)", st.EchoFailures)
	}
	var drops uint64
	for _, v := range st.Drops {
		drops += v
	}
	accounted := st.Accepted + drops + st.NoTenant + st.Absorbed + st.RetryStarved
	if st.Received != accounted {
		t.Fatalf("ledger does not reconcile: received %d, accounted %d (accepted %d + drops %d + noTenant %d + absorbed %d + retryStarved %d)",
			st.Received, accounted, st.Accepted, drops, st.NoTenant, st.Absorbed, st.RetryStarved)
	}
}

func TestGatewayBootEchoDrain(t *testing.T) {
	w := newGWWorld(t)
	g := w.gateway(oneTenant())
	if g.Epoch() != 1 {
		t.Fatalf("epoch after Start = %d, want 1", g.Epoch())
	}

	client := w.client("client-1")
	const n = 40
	for i := 0; i < n; i++ {
		msg := fmt.Sprintf("ping-%03d", i)
		if err := client.SendTo("gw-edge", []byte(msg), true); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		dg, err := client.Receive()
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if string(dg.Payload) != msg {
			t.Fatalf("echo %d = %q, want %q", i, dg.Payload, msg)
		}
	}

	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st.Received != n || st.Accepted != n || st.Echoed != n {
		t.Fatalf("stats after drain: received %d accepted %d echoed %d, want %d each",
			st.Received, st.Accepted, st.Echoed, n)
	}
	checkReconciliation(t, st)

	if _, err := g.Swap(oneTenant()); err == nil {
		t.Fatal("Swap after Shutdown should be refused")
	}
	if g.CurrentConfig() != nil {
		t.Fatal("CurrentConfig should be nil after Shutdown")
	}
}

// TestGatewayRefusesNullMACForgery sends a tenant configured like the
// example config's edge tenant (AES-128-GCM, accept_suites pinned to the
// AEAD suites) what an adversary holding no key can write: a cleartext
// header claiming source alice with cipher none and MAC null. The
// gateway counts it as an algorithm drop and neither delivers nor
// echoes it.
func TestGatewayRefusesNullMACForgery(t *testing.T) {
	example, err := os.ReadFile("../../examples/fbsgw/gateway.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Parse(example)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AdminAddr, cfg.Tenants = "", cfg.Tenants[:1]
	if cfg.Tenants[0].Name != "edge" {
		t.Fatalf("first example tenant is %q, want edge", cfg.Tenants[0].Name)
	}
	w := newGWWorld(t)
	g := w.gateway(cfg)
	if _, err := w.dom.NewPrincipal("alice"); err != nil {
		t.Fatal(err)
	}
	raw, err := w.net.Attach("alice", 16)
	if err != nil {
		t.Fatal(err)
	}
	h := core.Header{Version: core.HeaderVersion, MAC: cryptolib.MACNull, Cipher: core.CipherNone,
		SFL: 0x5eed, Timestamp: core.TimestampOf(w.clock.Now())}
	forged := transport.Datagram{Source: "alice", Destination: principal.Address(cfg.Tenants[0].Address),
		Payload: append(h.Encode(nil), "forged"...)}
	if err := raw.Send(forged); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Received == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st.Received != 1 || st.Drops[core.DropAlgorithm.String()] != 1 || st.Accepted != 0 || st.Delivered != 0 || st.Echoed != 0 {
		t.Errorf("forgery: received %d drops %v accepted %d delivered %d echoed %d, want one algorithm drop and nothing else",
			st.Received, st.Drops, st.Accepted, st.Delivered, st.Echoed)
	}
	if ps := w.net.PortStats("alice"); ps.DeliveredClean != 0 {
		t.Errorf("%d datagrams came back to the forger", ps.DeliveredClean)
	}
	checkReconciliation(t, st)
}

// TestGatewaySwapUnderTrafficLossless is the tentpole scenario: clients
// stream round trips while the config is swapped repeatedly (including
// a shard-count change). Every datagram must reconcile, every swap must
// carry soft state, and the successor epochs must never redo a master
// key exponentiation for an established peer.
func TestGatewaySwapUnderTrafficLossless(t *testing.T) {
	w := newGWWorld(t)
	cfg := oneTenant()
	g := w.gateway(cfg)

	// Each client keeps a window of 32 in flight — a burst out, its 32
	// echoes back — so the listener's batches are deep, and swaps come
	// back to back for as long as the clients run (every other one
	// resharding, which the plane → plane handoff does not notice: a
	// tenant's shards share one key plane). Some land inside a batch,
	// which finishes, echoes included, under the epoch it pinned.
	const clients = 3
	const bursts = 12
	const total = clients * bursts * maxBatch
	var wg, keyed sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		ep := w.client(fmt.Sprintf("client-%d", c))
		wg.Add(1)
		keyed.Add(1)
		go func(c int, ep *core.Endpoint) {
			defer wg.Done()
			isKeyed := sync.OnceFunc(keyed.Done)
			defer isKeyed()
			for b := 0; b < bursts; b++ {
				burst := make([]transport.Datagram, maxBatch)
				for j := range burst {
					burst[j] = transport.Datagram{Destination: "gw-edge", Payload: []byte(fmt.Sprintf("c%d-%02d-%02d", c, b, j))}
				}
				if n, err := ep.SendBatch(burst, true); err != nil || n != maxBatch {
					errs <- fmt.Errorf("client %d burst %d: sent %d: %v", c, b, n, err)
					return
				}
				for j := range burst {
					dg, err := ep.Receive()
					if err != nil {
						errs <- fmt.Errorf("client %d burst %d echo %d: %w", c, b, j, err)
						return
					}
					if !bytes.Equal(dg.Payload, burst[j].Payload) {
						errs <- fmt.Errorf("client %d burst %d echo %d = %q, want %q", c, b, j, dg.Payload, burst[j].Payload)
						return
					}
				}
				isKeyed() // one burst echoed: the first epoch holds this peer's master key
			}
		}(c, ep)
	}

	keyed.Wait()
	watch := watchLedger(g, false) // cumulative counts never step back while epochs retire
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	var reports []*SwapReport
	for s := 0; ; s++ {
		select {
		case <-finished:
		default:
			next, err := cfg.Clone()
			if err != nil {
				t.Fatalf("clone: %v", err)
			}
			next.Tenants[0].FlowMaxPackets = uint64(1000 + s)
			next.Tenants[0].Shards = 2 + 2*(s%2)
			rep, err := g.Swap(next)
			if err != nil {
				t.Fatalf("swap %d under load: %v", s, err)
			}
			reports = append(reports, rep)
			cfg = next
			continue
		}
		break
	}
	close(errs)
	for err := range errs {
		t.Fatalf("%v\nstats: %+v", err, g.Stats())
	}
	watch.finish(t)

	for i, rep := range reports {
		if rep.DrainErr != "" {
			t.Fatalf("swap %d drain: %s", i, rep.DrainErr)
		}
		// Plane → plane, once: each peer's certificate and master key
		// cross exactly one time, whatever the shard counts on either side.
		if rep.Certs != clients || rep.MasterKeys != clients {
			t.Fatalf("swap %d handed off %d certs and %d master keys, want %d of each (one per peer, no fan-out)",
				i, rep.Certs, rep.MasterKeys, clients)
		}
	}

	// The live epoch must have been warmed, not re-keyed: zero
	// exponentiations across all its shards even though three peers
	// kept flowing straight through every swap.
	live, err := g.TenantSnapshot("edge")
	if err != nil {
		t.Fatal(err)
	}
	if n := live.Keying.MasterKeyComputes; n != 0 {
		t.Fatalf("epoch %d computed %d master keys after warm handoff, want 0", g.Epoch(), n)
	}

	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if want := uint64(1 + len(reports)); st.Swaps != want { // Start + reloads
		t.Fatalf("swaps = %d, want %d", st.Swaps, want)
	}
	if st.Received != total || st.Echoed != total {
		t.Fatalf("received %d echoed %d, want %d each (an in-flight datagram was lost across a swap)",
			st.Received, st.Echoed, total)
	}
	if st.RetryStarved != 0 {
		t.Fatalf("retry starved = %d, want 0", st.RetryStarved)
	}
	checkReconciliation(t, st)
}

func TestGatewayTenantAddRemoveAndSink(t *testing.T) {
	w := newGWWorld(t)
	cfg := &Config{Tenants: []TenantConfig{
		{Name: "alpha", Address: "gw-alpha"},
		{Name: "beta", Address: "gw-beta"},
	}}
	g := w.gateway(cfg)

	ca := w.client("client-a")
	if err := ca.SendTo("gw-alpha", []byte("hello-a"), true); err != nil {
		t.Fatalf("send alpha: %v", err)
	}
	if _, err := ca.Receive(); err != nil {
		t.Fatalf("echo alpha: %v", err)
	}

	// Reload: drop beta, add gamma as a sink.
	next := &Config{Tenants: []TenantConfig{
		{Name: "alpha", Address: "gw-alpha"},
		{Name: "gamma", Address: "gw-gamma", Mode: "sink"},
	}}
	if _, err := g.Swap(next); err != nil {
		t.Fatalf("swap: %v", err)
	}

	// Beta's listener must be released: its address is free to bind.
	tr, err := w.net.Attach("gw-beta", 1)
	if err != nil {
		t.Fatalf("removed tenant's listener still bound: %v", err)
	}
	tr.Close()

	// Gamma accepts but does not echo.
	if err := ca.SendTo("gw-gamma", []byte("to-sink"), true); err != nil {
		t.Fatalf("send gamma: %v", err)
	}
	// Alpha still echoes on its original, never-rebound listener.
	if err := ca.SendTo("gw-alpha", []byte("hello-again"), true); err != nil {
		t.Fatalf("send alpha post-swap: %v", err)
	}
	dg, err := ca.Receive()
	if err != nil {
		t.Fatalf("echo alpha post-swap: %v", err)
	}
	if string(dg.Payload) != "hello-again" {
		t.Fatalf("echo = %q, want hello-again (sink must not echo)", dg.Payload)
	}

	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st.Received != 3 || st.Accepted != 3 || st.Delivered != 3 || st.Echoed != 2 {
		t.Fatalf("stats: received %d accepted %d delivered %d echoed %d, want 3/3/3/2",
			st.Received, st.Accepted, st.Delivered, st.Echoed)
	}
	checkReconciliation(t, st)
}

func TestGatewayAdminAddrChangeRejected(t *testing.T) {
	w := newGWWorld(t)
	cfg := oneTenant()
	cfg.AdminAddr = "127.0.0.1:9180"
	g := w.gateway(cfg)

	next, err := cfg.Clone()
	if err != nil {
		t.Fatal(err)
	}
	next.AdminAddr = "127.0.0.1:9181"
	if _, err := g.Swap(next); err == nil || !strings.Contains(err.Error(), "admin_addr") {
		t.Fatalf("admin_addr change accepted across reload: %v", err)
	}
	if g.Epoch() != 1 {
		t.Fatalf("rejected swap advanced the epoch to %d", g.Epoch())
	}
}

func TestGatewaySwapRollbackReleasesNewListeners(t *testing.T) {
	w := newGWWorld(t)
	opts := w.options()
	inner := opts.Identity
	var failBroken atomic.Bool
	opts.Identity = func(tc TenantConfig) (*principal.Identity, error) {
		if failBroken.Load() && tc.Name == "broken" {
			return nil, fmt.Errorf("provisioning says no")
		}
		return inner(tc)
	}
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(oneTenant()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { g.Shutdown(time.Second) }) //nolint:errcheck

	failBroken.Store(true)
	bad, err := oneTenant().Clone()
	if err != nil {
		t.Fatal(err)
	}
	bad.Tenants = append(bad.Tenants, TenantConfig{Name: "broken", Address: "gw-broken"})
	if _, err := g.Swap(bad); err == nil {
		t.Fatal("swap with failing tenant should be rejected")
	}
	if g.Epoch() != 1 {
		t.Fatalf("failed swap advanced the epoch to %d", g.Epoch())
	}

	// The listener bound for the failed tenant must have been rolled
	// back — a corrected retry can bind it again.
	failBroken.Store(false)
	if _, err := g.Swap(bad); err != nil {
		t.Fatalf("retry after rollback: %v (listener leaked by failed swap?)", err)
	}

	// The original tenant kept serving throughout.
	client := w.client("client-r")
	if err := client.SendTo("gw-edge", []byte("still-here"), true); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := client.Receive(); err != nil {
		t.Fatalf("echo: %v", err)
	}
}

func TestGatewayAdminAPI(t *testing.T) {
	w := newGWWorld(t)
	cfg := oneTenant()
	g := w.gateway(cfg)
	srv := httptest.NewServer(g.ConfigHandler())
	defer srv.Close()

	do := func(method, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		return resp.StatusCode, buf.String()
	}

	// GET returns the live config.
	code, body := do(http.MethodGet, "")
	if code != http.StatusOK {
		t.Fatalf("GET: %d %s", code, body)
	}
	var got struct {
		Epoch  uint64 `json:"epoch"`
		Config Config `json:"config"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("GET body: %v", err)
	}
	if got.Epoch != 1 || len(got.Config.Tenants) != 1 || got.Config.Tenants[0].Name != "edge" {
		t.Fatalf("GET = %+v", got)
	}

	// POST swaps the full config.
	next, err := cfg.Clone()
	if err != nil {
		t.Fatal(err)
	}
	next.Tenants[0].AcceptSuites = []string{"AES-128-GCM", "ChaCha20-Poly1305"}
	b, _ := json.Marshal(next)
	code, body = do(http.MethodPost, string(b))
	if code != http.StatusOK {
		t.Fatalf("POST: %d %s", code, body)
	}
	var rep SwapReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil || rep.Epoch != 2 {
		t.Fatalf("POST report = %s (err %v)", body, err)
	}
	if g.Epoch() != 2 {
		t.Fatalf("epoch after POST = %d, want 2", g.Epoch())
	}

	// Invalid configs are refused without touching the epoch.
	if code, _ = do(http.MethodPost, `{"tenants":[]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("empty-tenant POST: %d, want 422", code)
	}
	if code, _ = do(http.MethodPost, `{"bogus":true}`); code != http.StatusBadRequest {
		t.Fatalf("unknown-field POST: %d, want 400", code)
	}
	if g.Epoch() != 2 {
		t.Fatalf("bad POSTs moved the epoch to %d", g.Epoch())
	}

	// PATCH mutates one knob via clone-and-swap.
	code, body = do(http.MethodPatch, `{"tenant":"edge","accept_suites":["AES-128-GCM"]}`)
	if code != http.StatusOK {
		t.Fatalf("PATCH: %d %s", code, body)
	}
	if g.Epoch() != 3 {
		t.Fatalf("epoch after PATCH = %d, want 3", g.Epoch())
	}
	cur := g.CurrentConfig()
	if len(cur.Tenants[0].AcceptSuites) != 1 || cur.Tenants[0].AcceptSuites[0] != "AES-128-GCM" {
		t.Fatalf("PATCH did not apply: %+v", cur.Tenants[0].AcceptSuites)
	}

	// flush_peer mutates in place — no new epoch.
	code, body = do(http.MethodPatch, `{"tenant":"edge","flush_peer":"client-x"}`)
	if code != http.StatusOK {
		t.Fatalf("PATCH flush_peer: %d %s", code, body)
	}
	if g.Epoch() != 3 {
		t.Fatalf("flush_peer minted a new epoch: %d", g.Epoch())
	}

	if code, _ = do(http.MethodPatch, `{"tenant":"nobody","accept_suites":["DES"]}`); code != http.StatusNotFound {
		t.Fatalf("PATCH unknown tenant: %d, want 404", code)
	}
	if code, _ = do(http.MethodPatch, `{"tenant":"edge"}`); code != http.StatusBadRequest {
		t.Fatalf("PATCH without mutation: %d, want 400", code)
	}
	if code, _ = do(http.MethodDelete, ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: %d, want 405", code)
	}
}

func TestGatewayFlushPeerForcesRekey(t *testing.T) {
	w := newGWWorld(t)
	// Single shard so the receive and echo paths share one KeyService
	// and the post-flush re-key costs exactly one exponentiation.
	g := w.gateway(&Config{Tenants: []TenantConfig{{Name: "edge", Address: "gw-edge"}}})
	client := w.client("client-f")

	roundTrip := func() {
		t.Helper()
		if err := client.SendTo("gw-edge", []byte("x"), true); err != nil {
			t.Fatalf("send: %v", err)
		}
		if _, err := client.Receive(); err != nil {
			t.Fatalf("echo: %v", err)
		}
	}
	roundTrip()

	computes := func() uint64 {
		t.Helper()
		s, err := g.TenantSnapshot("edge")
		if err != nil {
			t.Fatal(err)
		}
		return s.Keying.MasterKeyComputes
	}
	before := computes()
	roundTrip() // warm: no new exponentiation
	if c := computes(); c != before {
		t.Fatalf("warm round trip cost %d exponentiations", c-before)
	}

	if err := g.FlushPeer("edge", "client-f"); err != nil {
		t.Fatalf("FlushPeer: %v", err)
	}
	roundTrip() // cold again: exactly one re-key
	if c := computes(); c != before+1 {
		t.Fatalf("round trip after flush cost %d exponentiations, want 1", c-before)
	}
	if err := g.FlushPeer("nobody", "client-f"); err == nil {
		t.Fatal("FlushPeer for unknown tenant should fail")
	}
}

// TestGatewayFlushPeerForgetsRotatedIdentity: after a client's
// certificate is reissued, FlushPeer on an AEAD tenant of two shards
// leaves no shard holding a transmit or receive flow-key slot for it, so
// a datagram the client sealed under its old identity meets a key
// derived from the new certificate and is refused as a bad MAC.
func TestGatewayFlushPeerForgetsRotatedIdentity(t *testing.T) {
	w := newGWWorld(t)
	g := w.gateway(&Config{Tenants: []TenantConfig{{Name: "edge", Address: "gw-edge", Shards: 2, Suite: "AES-128-GCM"}}})
	client := w.client("client-r", func(c *core.Config) { c.Cipher = core.CipherAES128GCM })
	for range 3 {
		if err := client.SendTo("gw-edge", []byte("warm"), true); err != nil {
			t.Fatalf("send: %v", err)
		}
		if _, err := client.Receive(); err != nil {
			t.Fatalf("echo: %v", err)
		}
	}
	stale, err := client.Seal(transport.Datagram{Source: "client-r", Destination: "gw-edge", Payload: []byte("stale")}, true)
	if err != nil {
		t.Fatal(err)
	}
	slots := func() (tfkc, rfkc int) {
		t.Helper()
		s, err := g.TenantSnapshot("edge")
		if err != nil {
			t.Fatal(err)
		}
		return s.Caches[core.CacheTFKC].Used, s.Caches[core.CacheRFKC].Used
	}
	if tf, rf := slots(); tf == 0 || rf == 0 {
		t.Fatalf("before the flush the shards hold %d TFKC and %d RFKC slots; the warm-up keyed neither direction", tf, rf)
	}

	reissued, err := principal.NewIdentity("client-r", cryptolib.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.dom.Enroll(reissued); err != nil {
		t.Fatal(err)
	}
	if err := g.FlushPeer("edge", "client-r"); err != nil {
		t.Fatalf("FlushPeer: %v", err)
	}
	// The client is the tenant's only peer, so an empty cache on every
	// shard is exactly "no slot for the client".
	if tf, rf := slots(); tf != 0 || rf != 0 {
		t.Fatalf("after FlushPeer the shards still hold %d TFKC and %d RFKC slots", tf, rf)
	}

	before := g.Stats()
	w.net.Inject("gw-edge", stale)
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Received == before.Received {
		if time.Now().After(deadline) {
			t.Fatal("the gateway never received the stale datagram")
		}
		time.Sleep(time.Millisecond)
	}
	after := g.Stats()
	if after.Accepted != before.Accepted || after.Drops["bad_mac"] != before.Drops["bad_mac"]+1 {
		t.Fatalf("datagram sealed under the pre-rotation identity: accepted %d → %d, bad_mac drops %d → %d; want it refused as a bad MAC",
			before.Accepted, after.Accepted, before.Drops["bad_mac"], after.Drops["bad_mac"])
	}
}

func TestGatewayMetricsExposition(t *testing.T) {
	w := newGWWorld(t)
	g := w.gateway(oneTenant())
	client := w.client("client-m")
	if err := client.SendTo("gw-edge", []byte("probe"), true); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := client.Receive(); err != nil {
		t.Fatalf("echo: %v", err)
	}
	// The loop counts an echo once SendBatch returns, which is after the
	// client can have read it: wait for the count before scraping it.
	for deadline := time.Now().Add(2 * time.Second); g.Stats().Echoed < 1 && time.Now().Before(deadline); {
		runtime.Gosched()
	}

	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	if deepBatchCalls(t, out) != 0 {
		t.Fatalf("one datagram at a time produced a batch deeper than one:\n%s", out)
	}
	for _, want := range []string{
		"fbs_gateway_config_epoch 1",
		"fbs_gateway_received_total 1",
		"fbs_gateway_echoed_total 1",
		"fbs_gateway_accepted_total 1",
		`fbs_gateway_drops_total{reason="bad_mac"} 0`,
		`fbs_gateway_active_flows{tenant="edge"}`,
		`fbs_endpoint_received_total{tenant="edge",shard="0",config_epoch="1"}`,
		`fbs_endpoint_received_total{tenant="edge",shard="1",config_epoch="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// A window-32 burst reaches the loop as batches deeper than one, and
	// the size classes above "1" of the existing per-shard families say
	// so — "how deep are my receive batches" needs no new metric. (How
	// a burst splits into batches is up to the scheduler, so a burst is
	// repeated until one arrives deep; the first nearly always does.)
	for try := 0; ; try++ {
		burst := make([]transport.Datagram, maxBatch)
		for i := range burst {
			burst[i] = transport.Datagram{Destination: "gw-edge", Payload: []byte("burst")}
		}
		if n, err := client.SendBatch(burst, true); err != nil || n != maxBatch {
			t.Fatalf("burst: sent %d: %v", n, err)
		}
		for range burst {
			if _, err := client.Receive(); err != nil {
				t.Fatalf("burst echo: %v", err)
			}
		}
		buf.Reset()
		if err := reg.WriteText(&buf); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if deepBatchCalls(t, buf.String()) > 0 {
			break
		}
		if try == 20 {
			t.Fatalf("20 window-32 bursts and no OpenBatch call deeper than one:\n%s", buf.String())
		}
	}
}

// deepBatchCalls sums fbs_batch_open_calls_total over the size classes
// above "1" in a text exposition.
func deepBatchCalls(t *testing.T, exposition string) (calls uint64) {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, "fbs_batch_open_calls_total{") || strings.Contains(line, `size="1"`) {
			continue
		}
		n, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		calls += n
	}
	return calls
}

// TestGatewayRefusalLogIsRateLimited is the log-amplification bound: a
// flood of refusals inside one second writes at most one line per
// DropReason — not one per datagram — while the drop ledger still counts
// every one of them; the next second's first line reports how many went
// unlogged.
func TestGatewayRefusalLogIsRateLimited(t *testing.T) {
	w := newGWWorld(t)
	var mu sync.Mutex
	var lines []string
	opts := w.options()
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(oneTenant()); err != nil {
		t.Fatal(err)
	}
	refusalLines := func() (out []string) {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range lines {
			if strings.Contains(l, "refused datagram") {
				out = append(out, l)
			}
		}
		return out
	}

	client := w.client("client-1")
	sealed, err := client.Seal(transport.Datagram{Destination: "gw-edge", Payload: []byte("x")}, true)
	if err != nil {
		t.Fatal(err)
	}
	forged := sealed.Clone()
	forged.Payload[len(forged.Payload)-1] ^= 0x01
	runt := transport.Datagram{Source: "client-1", Destination: "gw-edge", Payload: []byte{0x01}}
	const flood = 10000
	l := &batchLoop{g: g}
	for i := 0; i < flood; i++ {
		if i%2 == 0 {
			l.dispatch([]transport.Datagram{forged})
		} else {
			l.dispatch([]transport.Datagram{runt})
		}
	}
	if got := refusalLines(); len(got) != 2 {
		t.Fatalf("%d refusals of two kinds logged %d lines, want 2:\n%s", flood, len(got), strings.Join(got, "\n"))
	}
	w.clock.Advance(refusalLogInterval)
	l.dispatch([]transport.Datagram{runt})
	got := refusalLines()
	if len(got) != 3 || !strings.Contains(got[2], fmt.Sprintf("%d more suppressed", flood/2-1)) {
		t.Fatalf("after the interval, want a third line reporting %d suppressed:\n%s", flood/2-1, strings.Join(got, "\n"))
	}

	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Drops["bad_mac"] != flood/2 || st.Drops["malformed"] != flood/2+1 {
		t.Fatalf("drop ledger moved with the log: %v", st.Drops)
	}
	checkReconciliation(t, st)
}

// TestGatewayRefusalLogPerTenant: the limiter keeps one slot per
// (tenant, DropReason), so one tenant's bad-MAC flood cannot mute the
// line another tenant's first bad MAC writes.
func TestGatewayRefusalLogPerTenant(t *testing.T) {
	w := newGWWorld(t)
	var mu sync.Mutex
	var lines []string
	opts := w.options()
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(&Config{Tenants: []TenantConfig{
		{Name: "a", Address: "gw-a"}, {Name: "b", Address: "gw-b"},
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Shutdown(2 * time.Second) }) //nolint:errcheck
	client := w.client("client-1")
	forge := func(tenant principal.Address) transport.Datagram {
		sealed, err := client.Seal(transport.Datagram{Destination: tenant, Payload: []byte("x")}, true)
		if err != nil {
			t.Fatal(err)
		}
		sealed.Payload[len(sealed.Payload)-1] ^= 0x01
		return sealed
	}
	l := &batchLoop{g: g}
	flood := forge("gw-a")
	for i := 0; i < 1000; i++ {
		l.dispatch([]transport.Datagram{flood})
	}
	l.dispatch([]transport.Datagram{forge("gw-b")})
	mu.Lock()
	defer mu.Unlock()
	perTenant := map[string]int{}
	for _, line := range lines {
		if strings.Contains(line, "refused datagram") && strings.Contains(line, "reason bad_mac") {
			perTenant[strings.Fields(line)[2]]++
		}
	}
	if perTenant["gw-a:"] != 1 || perTenant["gw-b:"] != 1 {
		t.Fatalf("bad-MAC lines per tenant = %v, want one each:\n%s", perTenant, strings.Join(lines, "\n"))
	}
}

// TestConfigFreshnessWindowFloor: header timestamps have minute
// resolution, so a freshness window under a minute refuses almost
// everything as stale; Validate says so instead of letting it boot.
func TestConfigFreshnessWindowFloor(t *testing.T) {
	for _, tc := range []struct {
		window time.Duration
		ok     bool
	}{
		{0, true}, // the 10m default
		{time.Nanosecond, false},
		{59 * time.Second, false},
		{time.Minute, true},
		{10 * time.Minute, true},
	} {
		cfg := oneTenant()
		cfg.Tenants[0].FreshnessWindow = Duration(tc.window)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("freshness_window %v: Validate = %v, want ok=%v", tc.window, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "resolution of header timestamps") {
			t.Errorf("freshness_window %v: error does not say why: %v", tc.window, err)
		}
	}
}

// TestConfigStateBudgetBounds: core.NewBudget quietly runs a negative
// limit unbudgeted, so a budget typo would boot and run without one;
// Validate names the tenant and the value instead.
func TestConfigStateBudgetBounds(t *testing.T) {
	for _, tc := range []struct {
		bytes int64
		ok    bool
	}{
		{0, true},         // unbudgeted
		{1 << 20, true},   // pressure at 80% (bench/gwbench, examples/fbsgw)
		{-1 << 20, false}, // negative limit: was silently unbudgeted
	} {
		cfg := oneTenant()
		cfg.Tenants[0].StateBudgetBytes = tc.bytes
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("state_budget_bytes %d: Validate = %v, want ok=%v", tc.bytes, err, tc.ok)
			continue
		}
		if err == nil {
			continue
		}
		for _, want := range []string{`"edge"`, strconv.FormatInt(tc.bytes, 10)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("state_budget_bytes %d: error lacks %s: %v", tc.bytes, want, err)
			}
		}
	}
}

// TestConfigAdmissionPrefilterBounds: core reads a negative admission
// value as "off" or as its default; Validate refuses it, naming the
// tenant.
func TestConfigAdmissionPrefilterBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		json string
		ok   bool
	}{
		{"defaults", `"admission": {"upcall_rate": 200}, "prefilter": {"enable": true}`, true},
		{"negative upcall_rate", `"admission": {"upcall_rate": -1}`, false},
		{"negative upcall_burst", `"admission": {"upcall_rate": 200, "upcall_burst": -1}`, false},
	} {
		_, err := Parse([]byte(`{"tenants": [{"name": "edge", "address": "gw-edge", ` + tc.json + `}]}`))
		if (err == nil) != tc.ok {
			t.Errorf("%s: Parse = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), `"edge"`) {
			t.Errorf("%s: error does not name the tenant: %v", tc.name, err)
		}
	}
}

// TestConfigRefusesAdmissionQuota: admission is a token bucket and
// nothing more; per-prefix fairness is the pre-filter's sketch, whose
// tuning is core's constants, as is the budget's 80% pressure mark. A
// config still carrying the old per-prefix quota's fields, a pre-filter
// tuning field or a high-water mark is refused by name rather than run
// without the setting it asks for.
func TestConfigRefusesAdmissionQuota(t *testing.T) {
	for _, tc := range []struct{ field, tenant string }{
		{"prefix_quota", `"admission": {"upcall_rate": 200, "prefix_quota": 2}`},
		{"prefix_len", `"admission": {"upcall_rate": 200, "prefix_len": 8}`},
		{"quota_window", `"admission": {"upcall_rate": 200, "quota_window": "1s"}`},
		{"epoch_interval", `"prefilter": {"enable": true, "epoch_interval": "64s"}`},
		{"cookie_ttl", `"prefilter": {"enable": true, "cookie_ttl": "128s"}`},
		{"prefix_len", `"prefilter": {"enable": true, "prefix_len": 8}`},
		{"shed_threshold", `"prefilter": {"enable": true, "shed_threshold": 32}`},
		{"decay_every", `"prefilter": {"enable": true, "decay_every": 1024}`},
		{"state_budget_high_water", `"state_budget_bytes": 1048576, "state_budget_high_water": 838860`},
	} {
		_, err := Parse([]byte(`{"tenants": [{"name": "edge", "address": "gw-edge", ` + tc.tenant + `}]}`))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
			t.Errorf("%s: Parse = %v, want the field refused by name", tc.tenant, err)
		}
	}
}

// nullTransport discards what is sent and has nothing to receive.
type nullTransport struct{}

func (nullTransport) Send(transport.Datagram) error { return nil }
func (nullTransport) Receive() (transport.Datagram, error) {
	return transport.Datagram{}, transport.ErrClosed
}
func (nullTransport) Close() error { return nil }

// FuzzGatewayConfig holds -check to what a swap builds: Parse never
// panics, every config it accepts realises each tenant through
// coreConfigFor and core.NewEndpoint, and Clone round-trips it.
func FuzzGatewayConfig(f *testing.F) {
	example, err := os.ReadFile("../../examples/fbsgw/gateway.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, tenant := range []string{
		`"flow_idle_timeout": "2m", "flow_max_packets": 1000, "state_budget_bytes": 1048576`,
		`"prefilter": {"enable": true}`,
		`"admission": {"upcall_rate": -1}`,
		`"admission": {"upcall_rate": 200, "upcall_burst": 50}`,
		`"state_budget_bytes": -1`,
		`"admission": {"upcall_rate": 200, "upcall_burst": 50}, "prefilter": {"enable": true}, "state_budget_bytes": 1048576`,
	} {
		f.Add([]byte(`{"tenants": [{"name": "edge", "address": "gw-edge", ` + tenant + `}]}`))
	}
	dom, err := fbs.NewDomain("gw-fuzz", fbs.WithGroup(cryptolib.TestGroup))
	if err != nil {
		f.Fatal(err)
	}
	id, err := dom.NewPrincipal("gw-fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg, err := Parse(b)
		if err != nil {
			return
		}
		for i := range cfg.Tenants {
			cc, err := cfg.Tenants[i].coreConfigFor()
			if err != nil {
				t.Fatalf("tenant %d: Parse accepted a config coreConfigFor refuses: %v", i, err)
			}
			cc.Identity, cc.Transport, cc.Directory, cc.Verifier = id, nullTransport{}, dom.Directory(), dom.Verifier()
			ep, err := core.NewEndpoint(cc)
			if err != nil {
				t.Fatalf("tenant %d: Parse accepted a config core.NewEndpoint refuses: %v", i, err)
			}
			ep.Close()
		}
		clone, err := cfg.Clone()
		if err != nil {
			t.Fatalf("Clone: %v", err)
		}
		// JSON cannot tell an empty list from an absent one, so the clone
		// is compared by its encoding, and a clone of the clone by value.
		want, _ := json.Marshal(cfg)
		if got, _ := json.Marshal(clone); !bytes.Equal(got, want) {
			t.Fatalf("Clone changed the config:\n%s\nbecame\n%s", want, got)
		}
		again, err := clone.Clone()
		if err != nil || !reflect.DeepEqual(again, clone) {
			t.Fatalf("a clone of the clone differs (%v):\n%+v\n%+v", err, clone, again)
		}
	})
}

// misaddressed wraps a tenant's in-memory port so a stream can carry
// what the in-memory network cannot route: it delivers by destination,
// so a frame for an unknown destination never reaches a listener, while
// a UDP socket takes whatever frame is sent to it. Datagrams from
// source "stray" come out re-addressed to a principal nobody keys for.
type misaddressed struct{ transport.BatchConn }

func (m misaddressed) ReceiveBatch(buf []transport.Datagram) (int, error) {
	n, err := m.BatchConn.ReceiveBatch(buf)
	for i := range buf[:n] {
		if buf[i].Source == "stray" {
			buf[i].Destination = "gw-nobody"
		}
	}
	return n, err
}

// TestGatewayBatchMatchesSingleLoop: the batch loop is the scalar loop.
// One seeded stream — two tenants, accepted traffic on four flows, an
// unknown destination, bad-MAC datagrams, runts and pre-filter challenge
// frames — is delivered once as bursts of 32 and once one datagram at a
// time; every client must get the same echoes in the same order and the
// two final Stats must be equal field for field.
func TestGatewayBatchMatchesSingleLoop(t *testing.T) {
	const streamLen = 8 * maxBatch
	type outcome struct {
		echoes map[string][]string // "client<-tenant" → echoed payloads, in order
		stats  Stats
		deep   bool // some OpenBatch call carried more than one datagram
	}
	run := func(burst int) outcome {
		w := newGWWorld(t)
		opts := w.options()
		listen := opts.Listen
		opts.Listen = func(tc TenantConfig) (transport.Transport, error) {
			tr, err := listen(tc)
			if err != nil {
				return nil, err
			}
			return misaddressed{tr.(transport.BatchConn)}, nil
		}
		g, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Start(&Config{Tenants: []TenantConfig{
			{Name: "alpha", Address: "gw-alpha", Shards: 2, ReplayCache: true, Prefilter: &PrefilterConfig{Enable: true}},
			{Name: "beta", Address: "gw-beta", SecretEcho: true},
		}}); err != nil {
			t.Fatal(err)
		}
		clients := []*core.Endpoint{w.client("c0"), w.client("c1"), w.client("c2")}
		injector, err := w.net.Attach("injector", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer injector.Close()

		// The same seed draws the same stream shape in both runs; the
		// sealed bytes differ (fresh keys and confounders per world),
		// which is why the comparison is on what the clients open.
		rng := rand.New(rand.NewSource(14))
		stream := make([]transport.Datagram, 0, streamLen)
		expect := make([]int, len(clients))
		for i := 0; i < streamLen; i++ {
			c := rng.Intn(len(clients))
			src := principal.Address(fmt.Sprintf("c%d", c))
			tenant := principal.Address("gw-alpha")
			if c == 1 && rng.Intn(2) == 0 {
				tenant = "gw-beta" // c1 talks to both tenants: a fourth flow
			}
			sealed, err := clients[c].Seal(transport.Datagram{
				Destination: tenant,
				Payload:     []byte(fmt.Sprintf("%s-%03d", src, i)),
			}, rng.Intn(2) == 0)
			if err != nil {
				t.Fatal(err)
			}
			switch kind := rng.Intn(20); kind {
			case 0:
				stream = append(stream, transport.Datagram{Source: "stray", Destination: tenant, Payload: sealed.Payload})
			case 1:
				sealed.Payload[len(sealed.Payload)-1] ^= 0x01
				stream = append(stream, sealed)
			case 2:
				stream = append(stream, transport.Datagram{Source: src, Destination: tenant, Payload: []byte{0x01}})
			case 3:
				frame := make([]byte, core.CookieFrameLen)
				frame[0], frame[1], frame[2] = core.CookieMagic, core.CookieKindChallenge, core.CookieVersion
				stream = append(stream, transport.Datagram{Source: src, Destination: "gw-alpha", Payload: frame})
			default:
				stream = append(stream, sealed)
				expect[c]++
			}
		}

		for i := 0; i < len(stream); i += burst {
			if n, err := transport.SendBatch(injector, stream[i:i+burst]); err != nil || n != burst {
				t.Fatalf("inject %d: sent %d: %v", i, n, err)
			}
			// The next burst leaves when this one is off the listeners,
			// so burst 1 never lets two datagrams share a batch.
			for deadline := time.Now().Add(10 * time.Second); g.Stats().Received < uint64(i+burst); {
				if time.Now().After(deadline) {
					t.Fatalf("gateway took %d of %d datagrams", g.Stats().Received, i+burst)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		out := outcome{echoes: make(map[string][]string)}
		for c, ep := range clients {
			for i := 0; i < expect[c]; i++ {
				dg, err := ep.Receive()
				if err != nil {
					t.Fatalf("c%d echo %d of %d: %v", c, i, expect[c], err)
				}
				key := fmt.Sprintf("c%d<-%s", c, dg.Source)
				out.echoes[key] = append(out.echoes[key], string(dg.Payload))
			}
		}
		for _, plane := range g.current.Load().tenants {
			bs := plane.grp.Snapshot().Batch
			for class := 1; class < core.NumBatchBuckets; class++ {
				out.deep = out.deep || bs.OpenCalls[class] > 0
			}
		}
		if out.stats, err = g.Shutdown(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		checkReconciliation(t, out.stats)
		return out
	}

	batched, single := run(maxBatch), run(1)
	if !batched.deep || single.deep {
		t.Fatalf("batch depth: bursts of %d deep=%v, single deep=%v; want true, false", maxBatch, batched.deep, single.deep)
	}
	if !reflect.DeepEqual(batched.echoes, single.echoes) {
		t.Fatalf("echoes differ:\nbatched %v\nsingle  %v", batched.echoes, single.echoes)
	}
	if !reflect.DeepEqual(batched.stats, single.stats) {
		t.Fatalf("final stats differ:\nbatched %+v\nsingle  %+v", batched.stats, single.stats)
	}
	st := single.stats
	if st.NoTenant == 0 || st.Absorbed == 0 || st.Drops["bad_mac"] == 0 || st.Drops["malformed"] == 0 || len(single.echoes) != 4 {
		t.Fatalf("the stream missed a case it is meant to carry: %+v, echo flows %d", st, len(single.echoes))
	}
}

// TestGatewayChurnOneExponentiationPerPeer is peer_churn in miniature:
// 64 peers each pay one visit of four datagrams, opened on
// ShardOfIncoming(peer, tenant) and echoed on ShardOfPair(tenant, peer) —
// two different shards for about half of them. The tenant's shards share
// one key plane, so the visit costs one exponentiation whichever shards
// it touches.
func TestGatewayChurnOneExponentiationPerPeer(t *testing.T) {
	const peers, visit = 64, 4
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			w := newGWWorld(t)
			ln := newScriptedListener(0)
			opts := w.options()
			opts.Listen = func(TenantConfig) (transport.Transport, error) { return ln, nil }
			g, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Start(&Config{Tenants: []TenantConfig{{Name: "edge", Address: "gw-edge", Shards: shards, SecretEcho: true, ReplayCache: true}}}); err != nil {
				t.Fatal(err)
			}
			l := &batchLoop{g: g}
			crossed := 0
			for p := 0; p < peers; p++ {
				name := fmt.Sprintf("churn-%d", p)
				client := w.client(name, func(c *core.Config) { c.Cipher = core.CipherAES128GCM })
				batch := make([]transport.Datagram, visit)
				for i := range batch {
					if batch[i], err = client.Seal(transport.Datagram{Destination: "gw-edge", Payload: []byte(fmt.Sprintf("%s-%d", name, i))}, true); err != nil {
						t.Fatal(err)
					}
				}
				l.dispatch(batch)
				if grp := g.current.Load().tenants["gw-edge"].grp; grp.ShardOfPair(principal.Address(name), "gw-edge") != grp.ShardOfPair("gw-edge", principal.Address(name)) {
					crossed++
				}
			}
			if crossed < peers/4 {
				t.Fatalf("only %d of %d peers were opened and echoed on different shards; the test needs them", crossed, peers)
			}
			snap, err := g.TenantSnapshot("edge")
			if err != nil {
				t.Fatal(err)
			}
			if got := snap.Caches[core.CacheMKC].Slots; got != shards*512 {
				t.Errorf("tenant MKC has %d slots, want shards × 512 = %d: a shard's key level is never smaller than the 2 × 256 flow-key slots it serves", got, shards*512)
			}
			if snap.Keying.MasterKeyComputes != peers || snap.Keying.CertFetches != peers {
				t.Errorf("%d peers cost %d exponentiations and %d certificate fetches, want one of each per peer",
					peers, snap.Keying.MasterKeyComputes, snap.Keying.CertFetches)
			}
			st, err := g.Shutdown(2 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st.Received != peers*visit || st.Accepted != peers*visit || st.Echoed != peers*visit || ln.sent.Load() != peers*visit {
				t.Fatalf("received %d accepted %d echoed %d sent %d, want %d each", st.Received, st.Accepted, st.Echoed, ln.sent.Load(), peers*visit)
			}
			checkReconciliation(t, st)
		})
	}
}

// TestGatewayChurnRevisitsHitTheKeyPlane is peer_churn with its
// revisits: gwbench's 256 principals (c000.lan …) visit a two-shard
// tenant round-robin for three rounds, each visit a fresh 4-datagram
// flow, so every visit misses the RFKC and asks the key plane. A plane
// no smaller than the flow-key caches it serves holds every peer's
// master key and certificate across rounds: one exponentiation and one
// certificate fetch per peer, as on the first round.
func TestGatewayChurnRevisitsHitTheKeyPlane(t *testing.T) {
	const peers, visit, rounds = 256, 4, 3
	w := newGWWorld(t)
	ln := newScriptedListener(0)
	opts := w.options()
	opts.Listen = func(TenantConfig) (transport.Transport, error) { return ln, nil }
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(&Config{Tenants: []TenantConfig{{Name: "bench", Address: "gw-bench", Shards: 2, Suite: "AES-128-GCM", SecretEcho: true}}}); err != nil {
		t.Fatal(err)
	}
	round := 0
	freshFlow := func(dg transport.Datagram) core.FlowID {
		return core.FlowID{Src: dg.Source, Dst: dg.Destination, Aux: uint64(round)}
	}
	clients := make([]*core.Endpoint, peers)
	for p := range clients {
		clients[p] = w.client(fmt.Sprintf("c%03d.lan", p), func(c *core.Config) {
			c.Cipher, c.Selector = core.CipherAES128GCM, freshFlow
		})
	}
	l := &batchLoop{g: g}
	for round = 0; round < rounds; round++ {
		for _, client := range clients {
			batch := make([]transport.Datagram, visit)
			for i := range batch {
				if batch[i], err = client.Seal(transport.Datagram{Destination: "gw-bench", Payload: []byte(fmt.Sprintf("%s-%d-%d", client.Addr(), round, i))}, true); err != nil {
					t.Fatal(err)
				}
			}
			l.dispatch(batch)
		}
	}
	snap, err := g.TenantSnapshot("bench")
	if err != nil {
		t.Fatal(err)
	}
	k := snap.Keying
	if k.MasterKeyRequests < peers*rounds {
		t.Fatalf("%d master-key requests for %d visits: a visit that hits the RFKC never asks the plane", k.MasterKeyRequests, peers*rounds)
	}
	if k.MasterKeyComputes != peers || k.CertFetches != peers {
		t.Errorf("%d peers × %d rounds cost %d exponentiations and %d certificate fetches, want one of each per peer",
			peers, rounds, k.MasterKeyComputes, k.CertFetches)
	}
	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const total = peers * visit * rounds
	if st.Received != total || st.Accepted != total || st.Echoed != total || ln.sent.Load() != total {
		t.Fatalf("received %d accepted %d echoed %d sent %d, want %d each", st.Received, st.Accepted, st.Echoed, ln.sent.Load(), total)
	}
	checkReconciliation(t, st)
}

// TestGatewaySwapWaitsForPinnedBatch drives what a swap landing inside a
// batch does: the batch holds epoch 1 from its first open to its last
// echo, with one datagram stuck in a keying upcall beside datagrams from
// peers that are already keyed. Swap commits epoch 2 and does not return
// until the batch ends, and every datagram of the batch is opened and
// echoed by epoch 1's groups, in arrival order.
func TestGatewaySwapWaitsForPinnedBatch(t *testing.T) {
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
	plane := g.current.Load().tenants["gw-edge"]

	// Two clients whose host pairs steer to different shards, each keyed
	// on epoch 1 by one echo through the listener.
	var clients [2]*core.Endpoint
	for i, found := 0, 0; found < 2; i++ {
		name := principal.Address(fmt.Sprintf("client-%d", i))
		if shard := plane.grp.ShardOfPair(name, "gw-edge"); clients[shard] == nil {
			clients[shard] = w.client(string(name))
			found++
		}
	}
	for c, ep := range clients {
		if err := ep.SendTo("gw-edge", []byte("hello"), true); err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		if _, err := ep.Receive(); err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	const warm = uint64(len(clients))
	slow := w.client("client-slow")
	const slowAt = maxBatch / 2
	batch := make([]transport.Datagram, maxBatch)
	for i := range batch {
		src := clients[i%2]
		if i == slowAt {
			src = slow
		}
		sealed, err := src.Seal(transport.Datagram{Destination: "gw-edge", Payload: []byte(fmt.Sprintf("dg-%02d", i))}, true)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = sealed
	}

	l := &batchLoop{g: g}
	batchDone := make(chan struct{})
	go func() { l.dispatch(batch); close(batchDone) }()
	<-dir.entered

	next, err := cfg.Clone()
	if err != nil {
		t.Fatal(err)
	}
	next.Tenants[0].FlowMaxPackets = 1000
	swapped := make(chan error, 1)
	go func() {
		_, err := g.Swap(next)
		// The batch counts its echoes as sent before it unpins.
		if echoed := g.Stats().Echoed; err == nil && echoed != warm+maxBatch {
			err = fmt.Errorf("Swap returned with %d of the batch's %d echoes sent", echoed-warm, maxBatch)
		}
		swapped <- err
	}()
	for g.Epoch() != 2 { // the commit; the retire phase now waits on the batch
		time.Sleep(100 * time.Microsecond)
	}
	// Swap must not return while the batch is stuck. A non-event has no
	// signal to wait on, so give an early return a moment to show.
	select {
	case err := <-swapped:
		t.Fatalf("Swap returned (%v) while a batch held epoch 1", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-swapped; err != nil {
		t.Fatalf("swap: %v", err)
	}
	<-batchDone

	for c, ep := range clients {
		for i := c; i < maxBatch; i += 2 {
			if i == slowAt {
				continue
			}
			dg, err := ep.Receive()
			if err != nil {
				t.Fatalf("client %d: %v", c, err)
			}
			if want := fmt.Sprintf("dg-%02d", i); string(dg.Payload) != want {
				t.Fatalf("client %d got %q, want %q", c, dg.Payload, want)
			}
		}
	}
	if dg, err := slow.Receive(); err != nil || string(dg.Payload) != fmt.Sprintf("dg-%02d", slowAt) {
		t.Fatalf("stuck datagram's echo: %q, %v", dg.Payload, err)
	}

	// Epoch 1's groups opened and sealed all of it; epoch 2's saw none.
	seals := func(s core.Snapshot) (n uint64) {
		for _, c := range s.SuiteSeals {
			n += c
		}
		return n
	}
	if old := plane.grp.Snapshot(); old.Received != warm+maxBatch || seals(old) != warm+maxBatch {
		t.Fatalf("epoch 1 opened %d and sealed %d, want %d each", old.Received, seals(old), warm+maxBatch)
	}
	if live, err := g.TenantSnapshot("edge"); err != nil || live.Received != 0 || seals(live) != 0 {
		t.Fatalf("epoch 2 opened %d and sealed %d of the batch (%v), want none", live.Received, seals(live), err)
	}
	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != warm+maxBatch || st.Accepted != warm+maxBatch || st.Echoed != warm+maxBatch {
		t.Fatalf("received %d accepted %d echoed %d, want %d each", st.Received, st.Accepted, st.Echoed, warm+maxBatch)
	}
	checkReconciliation(t, st)
}

// scriptedListener is a listener whose socket the test plays: Receive
// fails failures times — each the error an undecodable frame produces —
// and then blocks until Close; sends are counted and dropped.
type scriptedListener struct {
	failures atomic.Int64
	drained  chan struct{} // closed when the last scripted failure is out
	closed   chan struct{}
	sent     atomic.Uint64
}

func newScriptedListener(failures int64) *scriptedListener {
	s := &scriptedListener{drained: make(chan struct{}), closed: make(chan struct{})}
	s.failures.Store(failures)
	return s
}

func (s *scriptedListener) Receive() (transport.Datagram, error) {
	switch left := s.failures.Add(-1); {
	case left >= 0:
		return transport.Datagram{}, errors.New("transport: bad frame: truncated address length")
	case left == -1:
		close(s.drained)
	}
	<-s.closed
	return transport.Datagram{}, transport.ErrClosed
}

func (s *scriptedListener) Send(transport.Datagram) error { s.sent.Add(1); return nil }

func (s *scriptedListener) Close() error { close(s.closed); return nil }

// TestGatewayReceiveErrorLogIsRateLimited: an undecodable frame costs
// its sender one UDP datagram, so it may not buy a log line each. A
// flood of them inside one second writes one line and moves no counter.
func TestGatewayReceiveErrorLogIsRateLimited(t *testing.T) {
	w := newGWWorld(t)
	const flood = 10000
	ln := newScriptedListener(flood)
	var mu sync.Mutex
	var lines []string
	opts := w.options()
	opts.Listen = func(TenantConfig) (transport.Transport, error) { return ln, nil }
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(oneTenant()); err != nil {
		t.Fatal(err)
	}
	<-ln.drained
	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range lines {
		if strings.Contains(l, "receive:") {
			got = append(got, l)
		}
	}
	if len(got) != 1 || !strings.Contains(got[0], "bad frame") {
		t.Fatalf("%d failed receives logged %d lines, want 1 naming the error:\n%s", flood, len(got), strings.Join(got, "\n"))
	}
	if st.Received != 0 || st.Accepted != 0 || st.NoTenant != 0 || len(st.Drops) != 0 {
		t.Fatalf("failed receives moved the ledger: %+v", st)
	}
}

// dispatchRig is the in-process world of TestGatewayDispatchAllocs and
// BenchmarkGatewayDispatch: a gateway over scripted listeners with two
// two-shard SecretEcho tenants — edge, with neither admission nor the
// pre-filter, and guard, with both — three warm AES-128-GCM clients,
// and the gateway's receive loop, driven by calling dispatch directly.
// No replay cache, so the same sealed batch is accepted every time.
type dispatchRig struct {
	tb        testing.TB
	g         *Gateway
	l         *batchLoop
	listeners map[string]*scriptedListener
	clients   []*core.Endpoint
}

func newDispatchRig(tb testing.TB) *dispatchRig {
	tb.Helper()
	w := newGWWorld(tb)
	r := &dispatchRig{tb: tb, listeners: map[string]*scriptedListener{}}
	opts := w.options()
	opts.Listen = func(tc TenantConfig) (transport.Transport, error) {
		ln := newScriptedListener(0)
		r.listeners[tc.Address] = ln
		return ln, nil
	}
	g, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	// The guard tenant's admission burst keys the three clients.
	if err := g.Start(&Config{Tenants: []TenantConfig{
		{Name: "edge", Address: "gw-edge", Shards: 2, SecretEcho: true},
		{Name: "guard", Address: "gw-guard", Shards: 2, SecretEcho: true,
			Admission: &AdmissionConfig{UpcallRate: 1, UpcallBurst: 4}, Prefilter: &PrefilterConfig{Enable: true}},
	}}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { g.Shutdown(2 * time.Second) }) //nolint:errcheck
	r.g, r.l = g, &batchLoop{g: g}
	// The tenant's default suite on both legs, as a deployment has it
	// (the clients' own default is the paper's DES/keyed-MD5).
	gcm := func(c *core.Config) { c.Cipher = core.CipherAES128GCM }
	r.clients = []*core.Endpoint{w.client("client-0", gcm), w.client("client-1", gcm), w.client("client-2", gcm)}
	return r
}

// sealBatch seals a full batch of 64 B secret datagrams to dst, the
// clients taking equal thirds of it in turn.
func (r *dispatchRig) sealBatch(dst principal.Address) []transport.Datagram {
	batch := make([]transport.Datagram, maxBatch)
	for i := range batch {
		sealed, err := r.clients[i*len(r.clients)/maxBatch].Seal(transport.Datagram{Destination: dst, Payload: make([]byte, 64)}, true)
		if err != nil {
			r.tb.Fatal(err)
		}
		batch[i] = sealed
	}
	return batch
}

// refusedBatch readies the guard tenant and returns a batch it refuses
// without keying work: garbage, a bad MAC, a sketch shed and an
// admission shed. Each reason's one log line is written before it
// returns.
func (r *dispatchRig) refusedBatch() []transport.Datagram {
	guarded := r.sealBatch("gw-guard")
	r.l.dispatch(guarded) // keys the peers within the admission burst
	if sent := r.listeners["gw-guard"].sent.Load(); sent != maxBatch {
		r.tb.Fatalf("%d echoes from the guard tenant, want %d", sent, maxBatch)
	}
	// Spoofed first contacts from one prefix, shed by admission, heat
	// the prefix and climb the shard that steers the shed datagram to
	// the sketch rung.
	plane := r.g.current.Load().tenants["gw-guard"]
	shed := guarded[0]
	shed.Source = "spoof-00-shed"
	rung := plane.grp.Shard(plane.grp.ShardOfIncoming(shed))
	spoofs := make([]transport.Datagram, maxBatch)
	for n := 0; rung.Snapshot().Prefilter.Level < int(core.PrefilterSketch); n++ {
		if n == 1000 {
			r.tb.Fatal("a spoofed flood never climbed the pre-filter to the sketch rung")
		}
		for i := range spoofs {
			spoofs[i] = guarded[0]
			spoofs[i].Source = principal.Address(fmt.Sprintf("spoof-00-%d", n*maxBatch+i))
		}
		r.l.dispatch(spoofs)
	}
	forged := guarded[1].Clone()
	forged.Payload[len(forged.Payload)-1] ^= 1
	// A first contact from a cold prefix passes the sketch and meets the
	// spent admission bucket, until its own sheds heat the prefix too.
	overload := guarded[0]
	overload.Source = "spoof-01-gate"
	refused := []transport.Datagram{{Source: "client-1", Destination: "gw-guard", Payload: []byte{1, 2, 3}}, forged, shed, overload}
	r.l.dispatch(refused)
	return refused
}

// TestGatewayDispatchAllocs pins the loop's steady state: a full batch
// on the hit path (flows, keys and scratch warm) through dispatch —
// steer, OpenBatch, SealBatch, SendBatch — allocates nothing (at most
// two per datagram under -race). Nor do
// refusals: on a second tenant with admission and the pre-filter on, a
// batch of garbage, a bad MAC and a sketch shed costs no allocation at
// all.
func TestGatewayDispatchAllocs(t *testing.T) {
	r := newDispatchRig(t)
	batch := r.sealBatch("gw-edge")
	r.l.dispatch(batch) // keys the peers, grows the scratch
	const runs = 50
	perBatch := testing.AllocsPerRun(runs, func() { r.l.dispatch(batch) })
	// Under -race the scratch the loop recycles through a sync.Pool is
	// now and then rebuilt, because the race detector's pool drops what
	// it is given; the bound there stays the one it always was.
	ceiling := 0.0
	if raceEnabled {
		ceiling = 2
	}
	if perDatagram := perBatch / maxBatch; perDatagram > ceiling {
		t.Fatalf("dispatch allocates %.2f times per datagram (%.0f per batch of %d), want ≤ %v", perDatagram, perBatch, maxBatch, ceiling)
	}
	if sent, want := r.listeners["gw-edge"].sent.Load(), uint64((runs+2)*maxBatch); sent != want {
		t.Fatalf("%d echoes sent, want %d", sent, want)
	}
	t.Logf("dispatch: %.2f allocs per datagram", perBatch/maxBatch)

	refused := r.refusedBatch()
	plane := r.g.current.Load().tenants["gw-guard"]
	was := plane.grp.Snapshot().Drops
	if allocs := testing.AllocsPerRun(runs, func() { r.l.dispatch(refused) }); allocs != 0 {
		t.Fatalf("a refused batch allocates %.1f times, want 0", allocs)
	}
	now := plane.grp.Snapshot().Drops
	for _, reason := range []core.DropReason{core.DropMalformed, core.DropBadMAC, core.DropPrefilter, core.DropKeyingOverload} {
		if now[reason] == was[reason] {
			t.Errorf("the refused batch never reached %v: drops %v", reason, core.DropMap(now))
		}
	}
}

// BenchmarkGatewayDispatch prices the gateway's receive loop in process,
// in ns per datagram, on TestGatewayDispatchAllocs's world: the accepted
// batch (32 × 64 B AES-128-GCM from three warm clients through open,
// echo seal and send), the refused mix, and a batch of one. The accepted
// row asserts 0 allocs/op first, outside -race.
func BenchmarkGatewayDispatch(b *testing.B) {
	r := newDispatchRig(b)
	accepted := r.sealBatch("gw-edge")
	r.l.dispatch(accepted) // keys the peers, grows the scratch
	if raceEnabled {
		b.Log("-race: the accepted row's 0 allocs/op is not asserted")
	} else if allocs := testing.AllocsPerRun(50, func() { r.l.dispatch(accepted) }); allocs != 0 {
		b.Fatalf("an accepted batch allocates %.1f times, want 0", allocs)
	}
	for _, row := range []struct {
		name  string
		batch []transport.Datagram
	}{
		{"accepted", accepted},
		{"refused", r.refusedBatch()},
		{"one", accepted[:1]},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.l.dispatch(row.batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(row.batch)), "ns/dgram")
		})
	}
}

// TestGatewaySweeperExpiresIdleFlows gives the FAM's sweeper module its
// production caller: after the flow idle timeout, the function the
// gateway's ticker calls must empty the tenant's flow table, count the
// expirations, return the FAM's share of the state budget, and the
// goroutine that calls it must be gone after Shutdown.
func TestGatewaySweeperExpiresIdleFlows(t *testing.T) {
	w := newGWWorld(t)
	const n = 8
	clients := make([]*core.Endpoint, n)
	for i := range clients {
		clients[i] = w.client(fmt.Sprintf("sweep-client-%d", i))
	}
	before := runtime.NumGoroutine()

	cfg := oneTenant()
	cfg.Tenants[0].FlowIdleTimeout = Duration(5 * time.Minute)
	cfg.Tenants[0].StateBudgetBytes = 1 << 20
	g := w.gateway(cfg)
	for i, c := range clients {
		if err := c.SendTo("gw-edge", []byte("ping"), true); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := c.Receive(); err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
	}
	live, err := g.TenantSnapshot("edge")
	if err != nil {
		t.Fatal(err)
	}
	if live.ActiveFlows != n || live.FAM.Expirations != 0 {
		t.Fatalf("after %d echoes: %d active flows, %d expirations; want %d and 0", n, live.ActiveFlows, live.FAM.Expirations, n)
	}

	// Inside the idle timeout the sweeper leaves every flow alone.
	w.clock.Advance(4 * time.Minute)
	g.sweep()
	if s, _ := g.TenantSnapshot("edge"); s.ActiveFlows != n {
		t.Fatalf("sweep inside the idle timeout left %d active flows, want %d", s.ActiveFlows, n)
	}
	w.clock.Advance(2 * time.Minute)
	g.sweep()
	swept, err := g.TenantSnapshot("edge")
	if err != nil {
		t.Fatal(err)
	}
	if swept.ActiveFlows != 0 {
		t.Fatalf("active flows after the sweep = %d, want 0", swept.ActiveFlows)
	}
	if swept.FAM.Expirations != n {
		t.Fatalf("expirations = %d, want %d", swept.FAM.Expirations, n)
	}
	if got, want := live.Budget.Used-swept.Budget.Used, int64(n*core.CostFAMEntry); got != want {
		t.Fatalf("sweep released %d budget bytes, want %d (%d FAM entries)", got, want, n)
	}
	if st := g.Stats(); st.Tenants[0].ActiveFlows != 0 {
		t.Fatalf("Stats().Tenants[0].ActiveFlows = %d after the sweep, want 0", st.Tenants[0].ActiveFlows)
	}

	if _, err := g.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Shutdown joins the sweeper and the receive loops; the MKD daemons
	// of the closed shards finish exiting just after Close returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Shutdown, %d before Start", after, before)
	}
}
