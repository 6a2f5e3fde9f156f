package main

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSurface pins the flag set: fbsbench is the in-process library
// loops (Figure 8 simulation, -native, -suites) and nothing else, so a
// new mode has to be argued for here as well as in main.
func TestFlagSurface(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, "-"+f.Name)
		}
	})
	want := []string{"-admin", "-bytes", "-json", "-native", "-suites"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// TestJSONContract pins the -json document fbsstat bench-validate (and
// through it `make bench-smoke`, ci-soak and ci-bench) consume: the rows
// `fbsbench -bytes 16384 -native -json` marshals must carry the fields
// validateBenchRows requires, under the names it reads them by.
func TestJSONContract(t *testing.T) {
	rows, err := run(16384, true, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(withHost(rows))
	if err != nil {
		t.Fatal(err)
	}
	var doc []map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	sections := map[string]int{}
	for i, row := range doc {
		var section, config string
		var kbps float64
		if err := json.Unmarshal(row["section"], &section); err != nil || section == "" {
			t.Fatalf("row %d: section = %s (%v)", i, row["section"], err)
		}
		if err := json.Unmarshal(row["config"], &config); err != nil || config == "" {
			t.Fatalf("row %d: config = %s (%v)", i, row["config"], err)
		}
		if err := json.Unmarshal(row["kbps"], &kbps); err != nil || kbps <= 0 {
			t.Fatalf("row %d (%s/%s): kbps = %s (%v), want > 0", i, section, config, row["kbps"], err)
		}
		var host runnerHost
		if err := json.Unmarshal(row["host"], &host); err != nil || host.NProc <= 0 || host.Go == "" || host.CPU == "" || host.Kernel == "" {
			t.Fatalf("row %d (%s/%s): host = %s (%v), want the runner fingerprint", i, section, config, row["host"], err)
		}
		sections[section]++
		if section != "native" {
			continue
		}
		for _, key := range []string{"seal_latency", "open_latency"} {
			var lat struct {
				Count uint64 `json:"count"`
				P50Ns int64  `json:"p50_ns"`
				P95Ns int64  `json:"p95_ns"`
				P99Ns int64  `json:"p99_ns"`
			}
			if err := json.Unmarshal(row[key], &lat); err != nil {
				t.Fatalf("native row %s: %s = %s (%v)", config, key, row[key], err)
			}
			if lat.Count == 0 || lat.P50Ns <= 0 || lat.P95Ns < lat.P50Ns || lat.P99Ns < lat.P95Ns {
				t.Fatalf("native row %s: %s = %+v, want samples and ordered quantiles", config, key, lat)
			}
		}
	}
	if sections["figure8"] != 6 || sections["native"] != 2 {
		t.Fatalf("sections = %v, want 6 figure8 rows and 2 native rows", sections)
	}
}
