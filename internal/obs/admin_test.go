package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fbs"
	"fbs/internal/core"
	"fbs/internal/obs"
	obstrace "fbs/internal/obs/trace"
)

// adminWorld wires a live endpoint pair, a fully-sampled pipeline, and
// an admin plane — the end-to-end fixture for the introspection tests.
func adminWorld(t *testing.T) (*fbs.Endpoint, *fbs.Endpoint, *obs.Pipeline, *obs.Admin) {
	t.Helper()
	d, err := fbs.NewDomain("obs-test", fbs.WithGroup(fbs.TestGroup))
	if err != nil {
		t.Fatal(err)
	}
	net := fbs.NewNetwork(fbs.Impairments{})
	pipe := obs.NewPipeline(obstrace.Config{SampleEvery: 1})
	mk := func(addr fbs.Address) *fbs.Endpoint {
		ep, err := d.NewEndpoint(addr, net, func(c *fbs.Config) {
			c.Tracer = pipe
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	alice, bob := mk("alice"), mk("bob")

	reg := obs.NewRegistry()
	obs.RegisterEndpoint(reg, "alice", alice)
	obs.RegisterEndpoint(reg, "bob", bob)
	obs.RegisterPipeline(reg, "pair", pipe)
	admin := obs.NewAdmin(reg)
	admin.WatchEndpoint("alice", alice)
	admin.WatchEndpoint("bob", bob)
	admin.WatchTracer(pipe.Collector)
	return alice, bob, pipe, admin
}

func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestAdminPlane(t *testing.T) {
	alice, bob, pipe, admin := adminWorld(t)
	srv := httptest.NewServer(admin.Handler())
	defer srv.Close()

	// Drive some traffic, including one drop (stale reject via a bad
	// datagram is awkward here; corrupting a MAC is direct).
	for i := 0; i < 10; i++ {
		if err := alice.SendTo("bob", []byte("hello flows"), i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if _, err := bob.Receive(); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := alice.Seal(fbs.Datagram{Destination: "bob", Payload: []byte("x")}, false)
	if err != nil {
		t.Fatal(err)
	}
	sealed.Payload[len(sealed.Payload)-1] ^= 0xFF
	if _, err := bob.Open(sealed); err == nil {
		t.Fatal("corrupted datagram accepted")
	}

	// Batched traffic exercises the fbs_batch_* size-class families.
	var bdgs []fbs.Datagram
	for i := 0; i < 4; i++ {
		bdgs = append(bdgs, fbs.Datagram{Source: "alice", Destination: "bob", Payload: []byte("batch")})
	}
	bres := make([]fbs.BatchResult, len(bdgs))
	wire, n := alice.SealBatch(nil, bdgs, true, bres)
	if n != 4 {
		t.Fatalf("SealBatch sealed %d of 4", n)
	}
	var rdgs []fbs.Datagram
	for _, r := range bres {
		rdgs = append(rdgs, fbs.Datagram{Source: "alice", Destination: "bob", Payload: wire[r.Off : r.Off+r.Len]})
	}
	ores := make([]fbs.BatchResult, len(rdgs))
	if _, n := bob.OpenBatch(nil, rdgs, ores); n != 4 {
		t.Fatalf("OpenBatch accepted %d of 4", n)
	}

	metrics := get(t, srv, "/metrics")
	for _, want := range []string{
		`fbs_endpoint_sent_total{endpoint="alice"} 10`,
		`fbs_endpoint_received_total{endpoint="bob"} 14`,
		`fbs_endpoint_drops_total{endpoint="bob",reason="bad_mac"} 1`,
		`fbs_endpoint_suite_seals_total{endpoint="alice",suite="DES"} 15`,
		`fbs_endpoint_suite_opens_total{endpoint="bob",suite="DES"} 14`,
		`fbs_endpoint_suite_seals_total{endpoint="alice",suite="AES-128-GCM"} 0`,
		`fbs_cache_hits_total{endpoint="alice",cache="tfkc"}`,
		`fbs_cache_slots{endpoint="bob",cache="rfkc"}`,
		`fbs_fam_active_flows{endpoint="alice"} 1`,
		`fbs_stage_duration_ns_bucket{endpoint="pair",path="seal",stage="total",le="+Inf"}`,
		`fbs_stage_duration_ns_count{endpoint="pair",path="open",stage="total"}`,
		`fbs_keyservice_failures_total{endpoint="alice"}`,
		`fbs_keyservice_cert_fetches_total{endpoint="bob"}`,
		`fbs_budget_used_bytes{endpoint="alice"}`,
		`fbs_budget_denials_total{endpoint="bob"}`,
		`fbs_admission_admitted_total{endpoint="bob"}`,
		`fbs_admission_shed_total{endpoint="bob",cause="overload"}`,
		`fbs_replay_entries{endpoint="bob"}`,
		`fbs_pressure_sweeps_total{endpoint="alice"}`,
		`fbs_batch_seal_calls_total{endpoint="alice",size="4-7"} 1`,
		`fbs_batch_open_calls_total{endpoint="bob",size="4-7"} 1`,
		`fbs_batch_seal_calls_total{endpoint="alice",size="1"} 0`,
		`fbs_batch_seal_datagrams_total{endpoint="alice"} 4`,
		`fbs_batch_open_datagrams_total{endpoint="bob"} 4`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}

	flowsText := get(t, srv, "/flows")
	if !strings.Contains(flowsText, "alice") || !strings.Contains(flowsText, "cache tfkc") {
		t.Errorf("/flows text missing expected content:\n%s", flowsText)
	}
	var flows obs.FlowsReport
	if err := json.Unmarshal([]byte(get(t, srv, "/flows?json=1")), &flows); err != nil {
		t.Fatalf("/flows?json=1: %v", err)
	}
	if len(flows.Endpoints) != 2 {
		t.Fatalf("flows report has %d endpoints, want 2", len(flows.Endpoints))
	}
	if len(flows.Endpoints[0].Flows) != 1 {
		t.Errorf("alice should have 1 live flow, got %d", len(flows.Endpoints[0].Flows))
	}
	if flows.Endpoints[1].Drops["bad_mac"] != 1 {
		t.Errorf("bob drops = %v, want bad_mac:1", flows.Endpoints[1].Drops)
	}

	// Every stage the traffic crossed has a histogram on each path —
	// DES + keyed MD5 makes a MAC pass on every datagram and a cipher
	// pass on the secret ones; classification is seal-side only.
	for _, series := range []string{
		`path="seal",stage="fam_lookup"`, `path="seal",stage="flowkey_miss"`, `path="seal",stage="flowkey_hit"`,
		`path="seal",stage="mac"`, `path="seal",stage="crypt"`,
		`path="open",stage="flowkey_miss"`, `path="open",stage="flowkey_hit"`,
		`path="open",stage="mac"`, `path="open",stage="crypt"`,
	} {
		if !strings.Contains(metrics, `fbs_stage_duration_ns_count{endpoint="pair",`+series+"} ") {
			t.Errorf("/metrics has no stage histogram for %s", series)
		}
	}
	if strings.Contains(metrics, `path="open",stage="fam_lookup"`) {
		t.Error("/metrics reports flow classification on the open path")
	}

	// The flight recorder is /traces: one trace per traced datagram. The
	// in-memory network carries the trace ID, so the 10 sends and the
	// corrupted seal are each one trace across both endpoints; the batch
	// was sealed (4 traces) and then opened from bare wire bytes (4 more).
	var rec obstrace.Report
	if err := json.Unmarshal([]byte(get(t, srv, "/traces?json=1")), &rec); err != nil {
		t.Fatalf("/traces?json=1: %v", err)
	}
	if rec.Started != 19 || len(rec.Traces) != 19 {
		t.Errorf("%d traces started, %d assembled, want 19", rec.Started, len(rec.Traces))
	}
	known := make(map[uint64]bool)
	drops := 0
	for _, tr := range rec.Traces {
		known[tr.ID] = true
		if tr.Drop == "bad_mac" {
			drops++
		}
	}
	if drops != 1 {
		t.Errorf("/traces shows %d bad_mac drops, want 1", drops)
	}
	// Every histogram exemplar names a trace the same plane serves.
	exemplars := regexp.MustCompile(`# exemplar trace=0x([0-9a-f]+) `).FindAllStringSubmatch(metrics, -1)
	if len(exemplars) == 0 {
		t.Error("/metrics carries no exemplars")
	}
	for _, m := range exemplars {
		if id, err := strconv.ParseUint(m[1], 16, 64); err != nil || !known[id] {
			t.Errorf("exemplar trace %s is not in /traces (%v)", m[1], err)
		}
	}
	if !strings.Contains(get(t, srv, "/traces?n=5"), "5 traces assembled") {
		t.Error("/traces text output malformed")
	}
	if !strings.Contains(get(t, srv, "/debug/pprof/cmdline"), "") {
		t.Error("pprof unreachable")
	}

	// Latency snapshots must have consistent counts with the traffic.
	if n := pipe.StageSnapshot(true, "total").Count; n != 15 {
		t.Errorf("seal total count = %d, want 15", n)
	}
	if n := pipe.StageSnapshot(false, "total").Count; n != 15 {
		t.Errorf("open total count = %d, want 15", n)
	}
}

// TestShardGroupMetrics drives a batch through one shard of a sharded
// endpoint: the batch lands on the steered shard only, and steering is
// stable. (A gateway exposes each shard's families through
// EndpointFamilies with shard labels; the gateway tests read them.)
func TestShardGroupMetrics(t *testing.T) {
	d, err := fbs.NewDomain("obs-shard-test", fbs.WithGroup(fbs.TestGroup))
	if err != nil {
		t.Fatal(err)
	}
	net := fbs.NewNetwork(fbs.Impairments{})
	grp, err := d.NewShardedEndpoint("carol", 2, func(shard int) (fbs.Transport, error) {
		return net.Attach(fbs.Address(fmt.Sprintf("carol-%d", shard)), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { grp.Close() })
	if _, err := d.NewPrincipal("dave"); err != nil {
		t.Fatal(err)
	}

	home := grp.ShardOfPair("carol", "dave")
	dgs := make([]fbs.Datagram, 3)
	for i := range dgs {
		dgs[i] = fbs.Datagram{Source: "carol", Destination: "dave", Payload: []byte("shard me")}
	}
	res := make([]fbs.BatchResult, len(dgs))
	if _, n := grp.Shard(home).SealBatch(nil, dgs, true, res); n != 3 {
		t.Fatalf("SealBatch sealed %d of 3: %v", n, res)
	}

	if got := grp.Shard(home).Snapshot().Batch.SealDatagrams; got != 3 {
		t.Errorf("steered shard counted %d batch datagrams, want 3", got)
	}
	if got := grp.Shard(1 - home).Snapshot().Batch.SealDatagrams; got != 0 {
		t.Errorf("the other shard counted %d batch datagrams, want 0", got)
	}

	// Steering is a pure function of the flow hash: both shards agree,
	// and the datagram-level helper matches the pair-level one.
	if got := grp.ShardOfIncoming(fbs.Datagram{Source: "dave", Destination: "carol"}); got < 0 || got > 1 {
		t.Fatalf("ShardOfIncoming out of range: %d", got)
	}
	if grp.ShardOfPair("carol", "dave") != home {
		t.Fatal("ShardOfPair not stable across calls")
	}
}

func TestAdminTraces(t *testing.T) {
	d, err := fbs.NewDomain("obs-trace-test", fbs.WithGroup(fbs.TestGroup))
	if err != nil {
		t.Fatal(err)
	}
	net := fbs.NewNetwork(fbs.Impairments{})
	col := obstrace.New(obstrace.Config{SampleEvery: 1})
	mk := func(addr fbs.Address) *fbs.Endpoint {
		ep, err := d.NewEndpoint(addr, net, func(c *fbs.Config) {
			c.Tracer = col
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	alice, bob := mk("alice"), mk("bob")
	for i := 0; i < 3; i++ {
		if err := alice.SendTo("bob", []byte("trace me"), true); err != nil {
			t.Fatal(err)
		}
		if _, err := bob.Receive(); err != nil {
			t.Fatal(err)
		}
	}

	admin := obs.NewAdmin(obs.NewRegistry())
	admin.WatchTracer(col)
	srv := httptest.NewServer(admin.Handler())
	defer srv.Close()

	var rep obstrace.Report
	if err := json.Unmarshal([]byte(get(t, srv, "/traces?json=1")), &rep); err != nil {
		t.Fatalf("/traces?json=1: %v", err)
	}
	if rep.Started != 3 {
		t.Errorf("traces started = %d, want 3", rep.Started)
	}
	if len(rep.Traces) != 3 {
		t.Fatalf("traces assembled = %d, want 3", len(rep.Traces))
	}
	kinds := make(map[string]bool)
	for _, s := range rep.Traces[0].Spans {
		kinds[s.Kind] = true
	}
	for _, k := range []string{"seal", "classify", "crypto", "open", "parse"} {
		if !kinds[k] {
			t.Errorf("first trace missing %q span (have %v)", k, kinds)
		}
	}
	if rep.Traces[0].Drop != "" {
		t.Errorf("delivered trace carries drop %q", rep.Traces[0].Drop)
	}

	// The text waterfall: header, a trace line per trace, span rows.
	text := get(t, srv, "/traces")
	for _, want := range []string{
		"3 traces started",
		"spans=", " ok\n",
		"seal seal", "open open",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/traces text missing %q:\n%s", want, text)
		}
	}

	// ?n= tail-limits the assembled traces.
	if err := json.Unmarshal([]byte(get(t, srv, "/traces?json=1&n=1")), &rep); err != nil {
		t.Fatalf("/traces?json=1&n=1: %v", err)
	}
	if len(rep.Traces) != 1 {
		t.Errorf("n=1 returned %d traces", len(rep.Traces))
	}

	// With several collectors watched, "the newest K" is by start time
	// across all of them, not the tail of the one registered last.
	first, second := obstrace.New(obstrace.Config{SampleEvery: 1}), obstrace.New(obstrace.Config{SampleEvery: 1})
	base := time.Now()
	for i := 0; i < 6; i++ {
		c := first
		if i%2 == 0 {
			c = second
		}
		c.Span(core.Span{Trace: c.StartTrace(), Kind: core.SpanSeal, Seal: true, Start: base.Add(time.Duration(i) * time.Millisecond)})
	}
	both := obs.NewAdmin(nil)
	both.WatchTracer(first)
	both.WatchTracer(second)
	bsrv := httptest.NewServer(both.Handler())
	defer bsrv.Close()
	if err := json.Unmarshal([]byte(get(t, bsrv, "/traces?json=1&n=3")), &rep); err != nil {
		t.Fatalf("/traces?json=1&n=3: %v", err)
	}
	var offsets []time.Duration
	for _, tr := range rep.Traces {
		offsets = append(offsets, time.Duration(tr.StartNs-base.UnixNano()))
	}
	if fmt.Sprint(offsets) != "[3ms 4ms 5ms]" {
		t.Errorf("n=3 over two interleaved collectors returned traces started at %v, want the newest three in order", offsets)
	}
}

func TestAdminServe(t *testing.T) {
	_, _, _, admin := adminWorld(t)
	addr, stop, err := admin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestAdminServeGracefulStop is the regression test for the abrupt
// shutdown bug: Serve's stop function used to be srv.Close, which
// reset in-flight scrapes mid-body. Now it drains: a request that is
// already being served when stop is called completes with its full
// body, stop does not return until it has, and the route the slow
// handler rides is mounted through Admin.Handle.
func TestAdminServeGracefulStop(t *testing.T) {
	admin := obs.NewAdmin(nil)
	started := make(chan struct{})
	release := make(chan struct{})
	admin.Handle("/slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		fmt.Fprint(w, "slow-body-complete")
	}))
	addr, stop, err := admin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{body: string(b), err: err}
	}()
	<-started

	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()
	select {
	case err := <-stopped:
		t.Fatalf("stop returned (%v) while a request was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed across stop: %v", r.err)
	}
	if r.body != "slow-body-complete" {
		t.Fatalf("in-flight request body = %q, want the complete body", r.body)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	if _, err := http.Get("http://" + addr.String() + "/slow"); err == nil {
		t.Fatal("server still accepting connections after stop")
	}
}

// TestAdminServeStopDeadline pins the fallback: a handler that never
// finishes cannot wedge shutdown — past ShutdownTimeout the stop cuts
// it off and returns.
func TestAdminServeStopDeadline(t *testing.T) {
	admin := obs.NewAdmin(nil)
	admin.ShutdownTimeout = 30 * time.Millisecond
	started := make(chan struct{})
	release := make(chan struct{})
	admin.Handle("/wedge", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(started)
		<-release
	}))
	defer close(release)
	addr, stop, err := admin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/wedge")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	done := make(chan error, 1)
	go func() { done <- stop() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not fall back to a hard close at the deadline")
	}
}

func TestSamplingDisabledObservesNothing(t *testing.T) {
	pipe := obs.NewPipeline(obstrace.Config{})
	for i := 0; i < 100; i++ {
		if pipe.StartTrace() != 0 {
			t.Fatal("StartTrace fired with sampling disabled")
		}
	}
	pipe.SetSampleEvery(3)
	fired := 0
	for i := 0; i < 99; i++ {
		if pipe.StartTrace() != 0 {
			fired++
		}
	}
	if fired != 33 {
		t.Fatalf("1-in-3 sampling fired %d/99 times", fired)
	}
}
