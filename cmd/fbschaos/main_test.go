package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"fbs/internal/netsim"
)

const defaultSeed = 0xC4A05

// smallest returns the scenario of a standing matrix that offers the
// fewest datagrams.
func smallest[S any](matrix []S, size func(S) int) S {
	min := matrix[0]
	for _, sc := range matrix[1:] {
		if size(sc) < size(min) {
			min = sc
		}
	}
	return min
}

// decode serialises a report the way -json does and reads it back as a
// generic document.
func decode(t *testing.T, rep netsim.Report) map[string]any {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestFloodReportJSONContract pins the three fields fbsstat's
// validateScenarioReport reads from `fbschaos -json` (the documents
// `make flood` and ci-soak pipe into bench-validate): a healthy run of
// the smallest standing scenario of each of the five matrices must
// serialise its Scenario name, Complete: true and an empty Violations
// list under exactly those keys.
func TestFloodReportJSONContract(t *testing.T) {
	chaos := smallest(matrix(defaultSeed), func(sc netsim.ChaosScenario) int { return sc.Datagrams + sc.OutageDatagrams })
	flood := smallest(floodMatrix(defaultSeed, false), func(sc netsim.FloodScenario) int {
		return sc.Datagrams + sc.ChurnDatagrams + sc.SpoofDatagrams
	})
	crash := smallest(crashMatrix(defaultSeed), func(sc netsim.CrashScenario) int { return sc.Datagrams })
	reconfig := smallest(reconfigMatrix(defaultSeed), func(sc netsim.ReconfigScenario) int { return sc.Senders * sc.Datagrams })
	diff := smallest(diffMatrix(defaultSeed, 1000), func(d diffRun) int { return d.Sc.Ops })
	for _, r := range []runnable{
		entry(chaos.Name, chaos, netsim.RunChaos),
		entry(flood.Name, flood, netsim.RunFlood),
		entry(crash.Name, crash, netsim.RunCrashRestart),
		entry(reconfig.Name, reconfig, netsim.RunReconfig),
		entry(diff.Name, diff.Sc, netsim.RunDiff),
	} {
		rep, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		doc := decode(t, rep)
		if doc["Scenario"] != r.name {
			t.Errorf("%s: Scenario = %v", r.name, doc["Scenario"])
		}
		if doc["Complete"] != true {
			t.Errorf("%s: Complete = %v, want true", r.name, doc["Complete"])
		}
		if v, ok := doc["Violations"]; !ok {
			t.Errorf("%s: document has no Violations key", r.name)
		} else if v != nil && len(v.([]any)) != 0 {
			t.Errorf("%s: Violations = %v, want none", r.name, v)
		}
	}
}

// TestSeedIsARun: a scenario and a seed are a run. Every standing chaos,
// crash and reconfig scenario, run twice at the default seed, shows the
// same port classification, link faults, injections, send and accept
// totals and per-reason drops; a flood scenario the same report, less
// the fields that depend on when the keying plane and the budget sweep
// were scheduled. This is the executable form of "an RNG draw may not
// move": a harness change that reorders one fails here without a golden
// file.
func TestSeedIsARun(t *testing.T) {
	// ledger names the top-level keys compared; nil compares every key
	// but the volatile dotted paths.
	ledger := []string{"Port", "Port1", "Port2", "Links", "Injected", "Sent", "Accepted", "Accepted1", "Accepted2",
		"SenderDrops", "ReceiverDrops", "Drops1", "Drops2", "DownSends", "NoRoute", "RoundTrips", "Final"}
	// Prefilter.Epoch is the cookie epoch, wall-clock minutes.
	volatile := []string{"Keys.MasterKeyRequests", "Budget.Denials", "Prefilter.Epoch"}
	// Under a hard receiver budget, what is shed and what is kept follows
	// the pressure sweep's timing; the offered side is still the seed's.
	offered := []string{"ChurnAttempts", "ChurnOffered", "SpoofOffered", "SenderDrops", "Complete"}

	type seeded struct {
		runnable
		keys []string
	}
	var cases []seeded
	for _, sc := range matrix(defaultSeed) {
		cases = append(cases, seeded{entry(sc.Name, sc, netsim.RunChaos), ledger})
	}
	for _, sc := range crashMatrix(defaultSeed) {
		cases = append(cases, seeded{entry(sc.Name, sc, netsim.RunCrashRestart), ledger})
	}
	for _, sc := range reconfigMatrix(defaultSeed) {
		cases = append(cases, seeded{entry(sc.Name, sc, netsim.RunReconfig), ledger})
	}
	for _, sc := range floodMatrix(defaultSeed, true) {
		c := seeded{entry(sc.Name, sc, netsim.RunFlood), nil}
		if sc.HardBudget > 0 {
			c.keys = offered
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		var docs [2]map[string]any
		for i := range docs {
			rep, err := c.run()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			docs[i] = decode(t, rep)
			for _, path := range volatile {
				group, field, _ := strings.Cut(path, ".")
				if m, ok := docs[i][group].(map[string]any); ok {
					delete(m, field)
				}
			}
		}
		keys := c.keys
		if keys == nil {
			for k := range docs[0] {
				keys = append(keys, k)
			}
		}
		compared := 0
		for _, k := range keys {
			a, ok := docs[0][k]
			if !ok {
				continue
			}
			compared++
			if !reflect.DeepEqual(a, docs[1][k]) {
				t.Errorf("%s: %s differs between two runs at one seed:\n  %v\n  %v", c.name, k, a, docs[1][k])
			}
		}
		if compared < 3 {
			t.Errorf("%s: only %d ledger keys found in the report", c.name, compared)
		}
	}
}
