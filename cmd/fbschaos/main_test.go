package main

import (
	"encoding/json"
	"testing"

	"fbs/internal/netsim"
)

// TestFloodReportJSONContract pins the three fields fbsstat's
// validateFloodReport reads from `fbschaos -flood -json` (the document
// `make flood` and ci-soak pipe into bench-validate): a healthy run of
// the smallest standing flood scenario must serialise a Scenario name,
// Complete: true and an empty Violations list under exactly those keys.
func TestFloodReportJSONContract(t *testing.T) {
	matrix := floodMatrix(0xC4A05, false)
	smallest := matrix[0]
	for _, sc := range matrix[1:] {
		if sc.Datagrams+sc.ChurnDatagrams+sc.SpoofDatagrams < smallest.Datagrams+smallest.ChurnDatagrams+smallest.SpoofDatagrams {
			smallest = sc
		}
	}
	rep, err := netsim.RunFlood(smallest)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var scenario string
	var complete bool
	var violations []string
	if err := json.Unmarshal(doc["Scenario"], &scenario); err != nil || scenario != smallest.Name {
		t.Fatalf("Scenario = %s (%v), want %q", doc["Scenario"], err, smallest.Name)
	}
	if err := json.Unmarshal(doc["Complete"], &complete); err != nil || !complete {
		t.Fatalf("Complete = %s (%v), want true", doc["Complete"], err)
	}
	if raw, ok := doc["Violations"]; !ok {
		t.Fatal("document has no Violations key")
	} else if err := json.Unmarshal(raw, &violations); err != nil || len(violations) != 0 {
		t.Fatalf("Violations = %s (%v), want none", raw, err)
	}
}
