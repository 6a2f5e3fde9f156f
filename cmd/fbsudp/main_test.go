package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"fbs/internal/core"
)

// TestStatsJSONKeys pins the key set of the -stats-json document, the
// one machine-readable output this CLI has: its top level, and the
// "metrics" object scripts read traffic totals from.
func TestStatsJSONKeys(t *testing.T) {
	var s core.Snapshot
	s.Drops[core.DropBadMAC] = 3 // "drops" is omitted while empty
	blob, err := json.Marshal(newStatsReport("receiver", s))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	wantTop := []string{"active_flows", "caches", "drops", "fam", "key_service", "metrics", "mkd_upcalls", "prefilter", "role"}
	if got := keys(doc); !reflect.DeepEqual(got, wantTop) {
		t.Errorf("top-level keys = %v, want %v", got, wantTop)
	}
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	wantMetrics := []string{"BypassedReceived", "BypassedSent", "Drops", "Received", "ReceivedBytes", "Sent", "SentBytes", "SentSecret"}
	if got := keys(metrics); !reflect.DeepEqual(got, wantMetrics) {
		t.Errorf("metrics keys = %v, want %v", got, wantMetrics)
	}
	var drops map[string]uint64
	if err := json.Unmarshal(doc["drops"], &drops); err != nil || !reflect.DeepEqual(drops, map[string]uint64{"bad_mac": 3}) {
		t.Errorf("drops = %v (%v), want the non-zero reasons by name", drops, err)
	}
	var caches []core.CacheInfo
	if err := json.Unmarshal(doc["caches"], &caches); err != nil || len(caches) != core.NumCaches {
		t.Errorf("caches = %v (%v), want one entry per cache", caches, err)
	}
}
