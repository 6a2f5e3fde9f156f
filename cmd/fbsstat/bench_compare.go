package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// The perf-trajectory gate: a fresh fbsbench run may not lose more than
// kbpsDropLimit of a row's committed throughput, and its seal p99 may
// not more than double. The thresholds are deliberately loose — the
// 1-second wall-clock phases are noisy — so a trip means a real
// regression, not scheduler jitter.
const (
	kbpsDropLimit = 0.20
	p99GrowLimit  = 2.0
	// p99MinSamples is where a p99 becomes a percentile: ten samples
	// beyond it. Below that it is the maximum of a handful of timings
	// (the figure8 GENERIC rows time 90 no-ops) and is not gated.
	p99MinSamples = 1000
	// trajectoryKeep bounds the committed history; the gate only ever
	// reads the most recent run per row, older entries are context for
	// humans plotting the trajectory.
	trajectoryKeep = 50
)

// trajectoryEntry is one committed fbsbench run in BENCH_trajectory.json.
type trajectoryEntry struct {
	// When is the run's wall-clock timestamp (RFC 3339, UTC).
	When string `json:"when"`
	// Rows is the fbsbench -json document verbatim.
	Rows []benchRow `json:"rows"`
}

// rowKey identifies a measurement across runs: figure-8 rows repeat a
// config per workload, so the workload is part of the identity.
func rowKey(r benchRow) string {
	if r.Workload != "" {
		return r.Section + "/" + r.Workload + "/" + r.Config
	}
	return r.Section + "/" + r.Config
}

// lastRun finds the most recent committed measurement of key, scanning
// entries newest-first. Runs of different fbsbench modes interleave in
// the trajectory (native, suites), so the latest entry need not carry
// every key.
func lastRun(entries []trajectoryEntry, key string) (benchRow, string, bool) {
	for i := len(entries) - 1; i >= 0; i-- {
		for _, r := range entries[i].Rows {
			if rowKey(r) == key {
				return r, entries[i].When, true
			}
		}
	}
	return benchRow{}, "", false
}

// benchCompare reads a fresh fbsbench -json document from r and gates
// it against the committed trajectory at path: any row whose throughput
// dropped more than kbpsDropLimit, or whose seal p99 (where both rows
// carry p99MinSamples timings) more than p99GrowLimit-ed, versus its
// last committed measurement fails the run.
// With appendRun set, a passing run is appended to the trajectory file
// (creating it if absent) so it becomes the next baseline.
func benchCompare(r io.Reader, path string, appendRun bool) error {
	var rows []benchRow
	if err := json.NewDecoder(r).Decode(&rows); err != nil {
		return fmt.Errorf("decoding bench JSON: %w", err)
	}
	if len(rows) == 0 {
		return fmt.Errorf("bench JSON is an empty result set")
	}
	var entries []trajectoryEntry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("decoding %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	var failures []string
	compared := 0
	for _, cur := range rows {
		key := rowKey(cur)
		prev, when, ok := lastRun(entries, key)
		if !ok {
			fmt.Printf("  %-40s %10.0f kb/s (no baseline)\n", key, cur.Kbps)
			continue
		}
		compared++
		status := "ok"
		if prev.Kbps > 0 && cur.Kbps < (1-kbpsDropLimit)*prev.Kbps {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"%s: throughput %.0f kb/s is down %.0f%% from %.0f kb/s (%s)",
				key, cur.Kbps, 100*(1-cur.Kbps/prev.Kbps), prev.Kbps, when))
		}
		if cur.SealLatency != nil && prev.SealLatency != nil && prev.SealLatency.P99Ns > 0 {
			if n := min(cur.SealLatency.Count, prev.SealLatency.Count); n < p99MinSamples {
				status += fmt.Sprintf(", p99 not gated (n=%d)", n)
			} else if float64(cur.SealLatency.P99Ns) > p99GrowLimit*float64(prev.SealLatency.P99Ns) {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf(
					"%s: seal p99 %v is more than %.0fx the committed %v (%s)",
					key, time.Duration(cur.SealLatency.P99Ns), p99GrowLimit,
					time.Duration(prev.SealLatency.P99Ns), when))
			}
		}
		fmt.Printf("  %-40s %10.0f kb/s vs %.0f kb/s @ %s %s\n", key, cur.Kbps, prev.Kbps, when, status)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "bench-compare:", f)
		}
		return fmt.Errorf("%d of %d rows regressed past the trajectory gate", len(failures), compared)
	}

	if appendRun {
		entries = append(entries, trajectoryEntry{
			When: time.Now().UTC().Format(time.RFC3339), Rows: rows,
		})
		if len(entries) > trajectoryKeep {
			entries = entries[len(entries)-trajectoryKeep:]
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("trajectory: %d rows appended to %s (%d runs kept)\n", len(rows), path, len(entries))
	}
	fmt.Printf("bench-compare ok: %d rows gated against trajectory, %d new\n", compared, len(rows)-compared)
	return nil
}
