package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
	t     *testing.T
	dom   *fbs.Domain
	net   *transport.Network
	clock *core.SimClock

	mu  sync.Mutex
	ids map[principal.Address]*principal.Identity
}

func newGWWorld(t *testing.T) *gwWorld {
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

func (w *gwWorld) client(addr string) *core.Endpoint {
	w.t.Helper()
	ep, err := w.dom.NewEndpoint(principal.Address(addr), w.net)
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

// TestGatewaySwapUnderTrafficLossless is the tentpole scenario: clients
// stream round trips while the config is swapped repeatedly (including
// a shard-count change). Every datagram must reconcile, every swap must
// carry soft state, and the successor epochs must never redo a master
// key exponentiation for an established peer.
func TestGatewaySwapUnderTrafficLossless(t *testing.T) {
	w := newGWWorld(t)
	cfg := oneTenant()
	g := w.gateway(cfg)

	const clients = 3
	const rounds = 60
	var done atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		ep := w.client(fmt.Sprintf("client-%d", c))
		wg.Add(1)
		go func(c int, ep *core.Endpoint) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				msg := fmt.Sprintf("c%d-%04d", c, i)
				if err := ep.SendTo("gw-edge", []byte(msg), true); err != nil {
					errs <- fmt.Errorf("client %d send %d: %w", c, i, err)
					return
				}
				dg, err := ep.Receive()
				if err != nil {
					errs <- fmt.Errorf("client %d echo %d: %w", c, i, err)
					return
				}
				if string(dg.Payload) != msg {
					errs <- fmt.Errorf("client %d echo %d = %q, want %q", c, i, dg.Payload, msg)
					return
				}
				done.Add(1)
			}
		}(c, ep)
	}

	const total = clients * rounds
	var reports []*SwapReport
	for s := 0; s < 3; s++ {
		for done.Load() < int64((s+1)*total/4) {
			time.Sleep(time.Millisecond)
		}
		next, err := cfg.Clone()
		if err != nil {
			t.Fatalf("clone: %v", err)
		}
		next.Tenants[0].FlowMaxPackets = uint64(1000 + s)
		if s == 1 {
			next.Tenants[0].Shards = 4 // resharding mid-flight: union fan-out handoff
		}
		rep, err := g.Swap(next)
		if err != nil {
			t.Fatalf("swap %d under load: %v", s, err)
		}
		reports = append(reports, rep)
		cfg = next
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, rep := range reports {
		if rep.DrainErr != "" {
			t.Fatalf("swap %d drain: %s", i, rep.DrainErr)
		}
		if rep.Certs == 0 || rep.MasterKeys == 0 {
			t.Fatalf("swap %d was cold (certs %d, master keys %d) — soft state not handed off",
				i, rep.Certs, rep.MasterKeys)
		}
	}

	// The live epoch must have been warmed, not re-keyed: zero
	// exponentiations across all its shards even though three peers
	// kept flowing straight through three swaps.
	ep := g.current.Load()
	for _, plane := range ep.tenants {
		for i := 0; i < plane.grp.NumShards(); i++ {
			if ks, _, _, _ := plane.grp.Shard(i).KeyStats(); ks.MasterKeyComputes != 0 {
				t.Fatalf("epoch %d shard %d computed %d master keys after warm handoff, want 0",
					ep.seq, i, ks.MasterKeyComputes)
			}
		}
	}

	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st.Swaps != 4 { // Start + 3 reloads
		t.Fatalf("swaps = %d, want 4", st.Swaps)
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
		var total uint64
		ep := g.current.Load()
		for _, plane := range ep.tenants {
			for i := 0; i < plane.grp.NumShards(); i++ {
				ks, _, _, _ := plane.grp.Shard(i).KeyStats()
				total += ks.MasterKeyComputes
			}
		}
		return total
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

	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"fbs_gateway_config_epoch 1",
		"fbs_gateway_received_total 1",
		"fbs_gateway_echoed_total 1",
		`fbs_gateway_active_flows{tenant="edge"}`,
		`fbs_endpoint_received_total{tenant="edge",shard="0",config_epoch="1"}`,
		`fbs_endpoint_received_total{tenant="edge",shard="1",config_epoch="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
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
	for i := 0; i < flood; i++ {
		if i%2 == 0 {
			g.handle(forged)
		} else {
			g.handle(runt)
		}
	}
	if got := refusalLines(); len(got) != 2 {
		t.Fatalf("%d refusals of two kinds logged %d lines, want 2:\n%s", flood, len(got), strings.Join(got, "\n"))
	}
	w.clock.Advance(refusalLogInterval)
	g.handle(runt)
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
