package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runJSON(t *testing.T, kbps float64, p99 int64) string {
	return runJSONSamples(t, kbps, p99, 5000)
}

func runJSONSamples(t *testing.T, kbps float64, p99 int64, samples uint64) string {
	t.Helper()
	rows := []benchRow{{
		Section: "native", Config: "FBS DES+MD5", Kbps: kbps,
		SealLatency: &benchLatency{Count: samples, MeanNs: p99 / 2, P50Ns: p99 / 2, P95Ns: p99, P99Ns: p99},
	}}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestBenchCompareGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")

	// First run: no baseline, must pass and (with append) seed the file.
	if err := benchCompare(strings.NewReader(runJSON(t, 10000, 50000)), path, true); err != nil {
		t.Fatalf("first run: %v", err)
	}
	var entries []trajectoryEntry
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(entries[0].Rows) != 1 || entries[0].When == "" {
		t.Fatalf("trajectory after first append: %+v", entries)
	}

	// A run inside the envelope passes and appends.
	if err := benchCompare(strings.NewReader(runJSON(t, 8500, 90000)), path, true); err != nil {
		t.Fatalf("in-envelope run: %v", err)
	}

	// >20% throughput drop vs the latest committed run trips the gate,
	// and a failing run must NOT become the new baseline.
	err = benchCompare(strings.NewReader(runJSON(t, 6000, 90000)), path, true)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("throughput regression not gated: %v", err)
	}
	// p99 more than doubling trips it too.
	err = benchCompare(strings.NewReader(runJSON(t, 8500, 200000)), path, true)
	if err == nil {
		t.Fatal("p99 regression not gated")
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries = nil
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("failing runs were appended: %d entries", len(entries))
	}

	// A different fbsbench mode (suites section) has no baseline yet, so
	// it passes even though the latest entry is a native run.
	suites, err := json.Marshal([]benchRow{{Section: "suites", Config: "AES-128-GCM", Kbps: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := benchCompare(strings.NewReader(string(suites)), path, false); err != nil {
		t.Fatalf("new-key run: %v", err)
	}
}

// TestBenchCompareP99NeedsSamples: a p99 is gated only where it is a
// percentile. The figure8 GENERIC rows time 90 no-ops, so their "p99"
// is a maximum that doubles between identical runs.
func TestBenchCompareP99NeedsSamples(t *testing.T) {
	for _, tc := range []struct {
		samples uint64
		gated   bool
	}{{90, false}, {5000, true}} {
		path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
		if err := benchCompare(strings.NewReader(runJSONSamples(t, 10000, 50000, tc.samples)), path, true); err != nil {
			t.Fatalf("n=%d baseline: %v", tc.samples, err)
		}
		err := benchCompare(strings.NewReader(runJSONSamples(t, 10000, 200000, tc.samples)), path, false)
		if failed := err != nil; failed != tc.gated {
			t.Errorf("n=%d, seal p99 at 4x the committed: err = %v, gated should be %v", tc.samples, err, tc.gated)
		}
	}
}

func TestBenchCompareMissingTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.json")
	if err := benchCompare(strings.NewReader(runJSON(t, 1000, 1000)), path, false); err != nil {
		t.Fatalf("missing trajectory without -append should pass: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("trajectory file created without -append")
	}
}

// suitesDoc builds a complete suites-section document (the four rows
// fbsbench -suites emits) with the given AES-128-GCM throughput over a
// 100 Mb/s DES baseline.
func suitesDoc(t *testing.T, gcmKbps float64) string {
	t.Helper()
	rows := []benchRow{
		{Section: "suites", Config: "DES-CBC/keyed-MD5", Kbps: 100000},
		{Section: "suites", Config: "3DES-CBC/keyed-MD5", Kbps: 40000},
		{Section: "suites", Config: "AES-128-GCM", Kbps: gcmKbps},
		{Section: "suites", Config: "ChaCha20-Poly1305", Kbps: 700000},
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestValidateRefusesUnknownSection: the document comes from outside
// the program, so a section bench-validate has no checks for — "batch",
// which fbsbench emitted until its -batch mode was deleted, or a typo —
// is refused by name rather than waved through as validated.
func TestValidateRefusesUnknownSection(t *testing.T) {
	batch, err := json.Marshal([]benchRow{
		{Section: "batch", Config: "AES-128-GCM/b=1/s=1", Kbps: 100000},
		{Section: "batch", Config: "AES-128-GCM/b=32/s=1", Kbps: 400000},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = benchValidate(strings.NewReader(string(batch)))
	if err == nil || !strings.Contains(err.Error(), `unknown section "batch"`) {
		t.Fatalf("batch-only document: err = %v, want the section refused by name", err)
	}
	// One unknown row poisons an otherwise valid document.
	var rows []benchRow
	if err := json.Unmarshal([]byte(suitesDoc(t, 900000)), &rows); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, benchRow{Section: "stack", Config: "FBS DES+MD5", Kbps: 1})
	mixed, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	err = benchValidate(strings.NewReader(string(mixed)))
	if err == nil || !strings.Contains(err.Error(), `unknown section "stack"`) {
		t.Fatalf("suites + stack document: err = %v, want the section refused by name", err)
	}
	// The suites claim itself still gates: 4x DES is below the 5x floor.
	if err := benchValidate(strings.NewReader(suitesDoc(t, 400000))); err == nil || !strings.Contains(err.Error(), "below 5x") {
		t.Fatalf("4x suites run: err = %v, want the 5x claim enforced", err)
	}
}

// floodDoc serialises a minimal flood report the way fbschaos -json
// does (one object per line).
func floodDoc(t *testing.T, scenario string, ratio, floor float64, complete bool, violations []string) string {
	t.Helper()
	data, err := json.Marshal(struct {
		scenarioReportDoc
		Goodput float64
	}{scenarioReportDoc{
		Scenario:          scenario,
		Complete:          complete,
		PreParseShedRatio: ratio,
		PreParseShedFloor: floor,
		Violations:        violations,
	}, 1})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestValidateFloodReports(t *testing.T) {
	// A clean report above its committed floor passes.
	if err := benchValidate(strings.NewReader(floodDoc(t, "prefilter-sketch", 0.97, 0.9, true, nil))); err != nil {
		t.Fatalf("clean flood report rejected: %v", err)
	}
	// A ratio below the committed floor fails even when the harness's
	// own Violations list is empty — the gate re-derives the check.
	err := benchValidate(strings.NewReader(floodDoc(t, "prefilter-sketch", 0.5, 0.9, true, nil)))
	if err == nil || !strings.Contains(err.Error(), "below committed floor") || !strings.HasPrefix(err.Error(), "flood prefilter-sketch:") {
		t.Fatalf("under-floor report not gated, or not named by the kind of report it is: %v", err)
	}
	// Violations and incompleteness fail.
	if err := benchValidate(strings.NewReader(floodDoc(t, "spoof-10x", 0, 0, true, []string{"conservation broke"}))); err == nil {
		t.Fatal("report with violations accepted")
	}
	if err := benchValidate(strings.NewReader(floodDoc(t, "spoof-10x", 0, 0, false, nil))); err == nil {
		t.Fatal("incomplete report accepted")
	}
	// A mixed stream — bench rows then flood reports, as `make flood`
	// and CI pipe them — validates both document kinds.
	mixed := suitesDoc(t, 900000) + "\n" +
		floodDoc(t, "prefilter-challenge", 1.0, 0.9, true, nil) + "\n" +
		floodDoc(t, "churn-budget", 0, 0, true, nil) + "\n"
	if err := benchValidate(strings.NewReader(mixed)); err != nil {
		t.Fatalf("mixed stream rejected: %v", err)
	}
	// An object with no scenario name is not a scenario report.
	if err := benchValidate(strings.NewReader(`{"Foo": 1}`)); err == nil {
		t.Fatal("anonymous object accepted as a scenario report")
	}
	// An empty stream is still an error.
	if err := benchValidate(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestValidateLatency(t *testing.T) {
	good := &benchLatency{Count: 10, MeanNs: 900, P50Ns: 800, P95Ns: 1000, P99Ns: 1200}
	if err := validateLatency(good); err != nil {
		t.Fatalf("good latency rejected: %v", err)
	}
	for name, l := range map[string]*benchLatency{
		"zero-count":   {Count: 0, MeanNs: 900, P50Ns: 800, P95Ns: 1000, P99Ns: 1200},
		"unordered":    {Count: 10, MeanNs: 900, P50Ns: 800, P95Ns: 700, P99Ns: 1200},
		"p99-below":    {Count: 10, MeanNs: 900, P50Ns: 800, P95Ns: 1000, P99Ns: 900},
		"zero-mean":    {Count: 10, MeanNs: 0, P50Ns: 800, P95Ns: 1000, P99Ns: 1200},
		"mean-oforder": {Count: 10, MeanNs: 1 << 50, P50Ns: 800, P95Ns: 1000, P99Ns: 1200},
	} {
		if err := validateLatency(l); err == nil {
			t.Errorf("%s latency accepted", name)
		}
	}
}
