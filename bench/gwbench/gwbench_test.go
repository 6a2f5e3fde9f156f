package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// builtGateway builds cmd/fbsgw into a temporary directory, or skips
// the test where the benchmark cannot run at all.
func builtGateway(t *testing.T) (root, out, bin string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH to build cmd/fbsgw with")
	}
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	probe.Close()
	if root, err = filepath.Abs("../.."); err != nil {
		t.Fatal(err)
	}
	out = t.TempDir()
	if bin, err = buildGateway(root, out); err != nil {
		t.Fatal(err)
	}
	return root, out, bin
}

// TestSmoke is one short pass of an accept-path and a refuse-path
// workload against a real fbsgw child, each followed by a short traced
// replay: it pins the output schema, the metric names, non-zero echoes
// and a zero ledger residual.
func TestSmoke(t *testing.T) {
	root, out, bin := builtGateway(t)
	fp := fingerprintOf(root, 1, 2)
	for _, name := range []string{"small_echo", "flood_mix"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w.traceDatagrams = 2000
		rc := runConfig{fbsgw: bin, dir: filepath.Join(out, "run"), seed: 1, seconds: 1, sessions: 1, warmDiv: 20, procs: 2}
		res, err := runOne(rc, w, true, fp, out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: incorrect: %v", name, res.Problems)
		}
		if res.Layers["client.echo_kpps"] <= 0 || res.Attempted == 0 {
			t.Errorf("%s: no echoes: %v", name, res.Layers)
		}
		if r := res.Layers["gateway.ledger_residual"]; r != 0 {
			t.Errorf("%s: ledger residual %v", name, r)
		}
		if name == "flood_mix" && res.Layers["client.flood_offered_kpps"] <= 0 {
			t.Errorf("%s: the flood never ran", name)
		}
		// The result line carries exactly the contract's keys and, per
		// mode, exactly the spec'd metric names.
		for _, mode := range []bool{false, true} {
			var line struct {
				Correct   *bool                 `json:"correct"`
				Attempted *uint64               `json:"attempted"`
				Failed    *uint64               `json:"failed"`
				Metrics   map[string]jsonMetric `json:"metrics"`
			}
			var keys map[string]json.RawMessage
			blob := []byte(res.jsonLine(mode))
			if err := json.Unmarshal(blob, &line); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(blob, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s: result keys %v", name, keys)
			}
			specs := endToEnd
			if mode {
				specs = perLayer()
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, mode, len(line.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := line.Metrics[s.name]
				if !ok || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", name, mode, s.name, m, ok)
				}
			}
		}
		if fi, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no trace written: %v", name, err)
		}
		if res.Layers["model.sum_us"] <= 0 || res.Layers["transport.recv_us"] <= 0 {
			t.Errorf("%s: empty traced layers: %v", name, res.Layers)
		}
	}
}

// TestUDPBacklog pins the flood's overflow guard's reading: datagrams
// nobody has received yet show as bytes queued on their socket.
func TestUDPBacklog(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer sink.Close()
	key := procUDPKey(sink.LocalAddr().String())
	if n, err := udpBacklog(key); err != nil || n != 0 {
		t.Fatalf("idle socket %s: backlog %d, %v", key, n, err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sink.WriteToUDP(make([]byte, 100), sink.LocalAddr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := udpBacklog(key); err != nil || n < 1000 {
		t.Errorf("ten queued datagrams: backlog %d, %v", n, err)
	}
	if _, err := udpBacklog(procUDPKey("127.0.0.1:0")); err == nil {
		t.Error("a port nobody holds has a backlog")
	}
}

// TestWarmGivesUp pins that set-up fails, with the gateway's log, when
// no echo will ever come: once with the gateway dead, once with it alive
// but the traffic going nowhere.
func TestWarmGivesUp(t *testing.T) {
	_, out, bin := builtGateway(t)
	w, err := workloadByName("small_echo")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	for _, dead := range []bool{true, false} {
		gw, err := startGateway(bin, out, w.gatewayConfig(), w.clientNames(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if dead {
			gw.kill()
		} else {
			gw.state.TenantUDP[tenantAddr] = sink.LocalAddr().String()
		}
		gen, err := newGenerator(gw.state, w, 1, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err = gen.warm(windowA, 1000, gw)
		gen.close()
		if !dead {
			gw.kill()
		}
		if err == nil {
			t.Errorf("dead=%v: warm succeeded with no gateway to answer", dead)
		} else if took := time.Since(start); took > 10*time.Second {
			t.Errorf("dead=%v: warm took %v to give up: %v", dead, took, err)
		}
	}
}

// TestBenchmarkJSONMatchesSpecs holds the root BENCHMARK.json and the
// tables in this package together.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the module root: %v", err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []entry, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, s)
			}
			if bounded && (g.Bound == nil || *g.Bound != s.bound) {
				t.Errorf("%s %s: bound differs from %v", kind, s.name, s.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer(), false)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v,
// n=4), the rule the acceptance check is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	med, q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v [%v, %v], want 5.5 [2.75, 8.25]", med, q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	med, q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if med != 3 || q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %v [%v, %v], want 3 [1, 4.5]", med, q1, q3)
	}
}
