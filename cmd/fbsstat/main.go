// Command fbsstat is the CLI companion to the FBS admin plane: it
// queries a running process's introspection endpoints (started with
// -admin on fbsudp or fbsbench, or wired via internal/obs.Admin) and
// renders them with the same formatters the plane itself uses.
//
// Usage:
//
//	fbsstat -addr 127.0.0.1:6060 metrics    # raw Prometheus exposition
//	fbsstat -addr 127.0.0.1:6060 flows      # netstat-style live flows
//	fbsstat -addr 127.0.0.1:6060 trace      # the flight recorder: per-datagram trace waterfalls
//	fbsstat trace -f traces.json            # render a dumped trace artifact
//	fbsbench -json | fbsstat bench-validate # sanity-check bench output
//	fbsstat bench-compare -append < fbsbench.json  # gate vs BENCH_trajectory.json
//
// bench-validate reads an fbsbench -json document on stdin and exits
// non-zero unless it is a non-empty result set with plausible values;
// `make bench-smoke` uses it to keep the bench harness honest in CI.
// When the document carries a "suites" section (fbsbench -suites) it
// additionally checks the suite matrix is complete and that AES-128-GCM
// clears 5x the DES-CBC/keyed-MD5 baseline throughput. A row whose
// section fbsbench does not emit is refused by name, not skipped.
// The input is a stream: JSON arrays are bench result sets, JSON
// objects are serialised scenario reports (fbschaos -json, any matrix),
// whose reconciliation and — where one is declared — committed
// pre-parse shed floor are re-asserted offline; `make flood` pipes the
// overload, crash and reconfiguration matrices through this gate.
//
// bench-compare reads the same document and gates it against the
// committed perf trajectory (BENCH_trajectory.json): a row that lost
// more than 20% throughput, or whose seal p99 more than doubled (gated
// only where both rows carry enough samples for a p99 to be a
// percentile), versus its last committed measurement fails the run. With -append a passing
// run is recorded as the next baseline; `make ci` runs it after every
// fbsbench invocation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"time"

	"fbs/internal/obs"
	obstrace "fbs/internal/obs/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6060", "admin plane address (host:port)")
	limit := flag.Int("n", 0, "trace: show only the most recent N traces")
	file := flag.String("f", "", "trace: render this JSON artifact instead of querying the admin plane (\"-\" for stdin)")
	trajectory := flag.String("trajectory", "BENCH_trajectory.json", "bench-compare: committed perf-trajectory file")
	appendRun := flag.Bool("append", false, "bench-compare: append a passing run to the trajectory file")
	flag.Parse()

	cmd := flag.Arg(0)
	// Accept flags after the subcommand too (`fbsstat trace -n 4`);
	// flag.Parse stops at the first non-flag argument.
	if flag.NArg() > 1 {
		_ = flag.CommandLine.Parse(flag.Args()[1:])
	}
	var err error
	switch cmd {
	case "metrics":
		err = metrics(os.Stdout, *addr)
	case "flows":
		err = flows(os.Stdout, *addr)
	case "trace":
		err = traces(os.Stdout, *addr, *file, *limit)
	case "bench-validate":
		err = benchValidate(os.Stdin)
	case "bench-compare":
		err = benchCompare(os.Stdin, *trajectory, *appendRun)
	default:
		err = fmt.Errorf("need a subcommand: metrics, flows, trace, bench-validate, or bench-compare")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbsstat:", err)
		os.Exit(1)
	}
}

func get(addr, path string) ([]byte, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func metrics(w io.Writer, addr string) error {
	body, err := get(addr, "/metrics")
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func flows(w io.Writer, addr string) error {
	body, err := get(addr, "/flows?json=1")
	if err != nil {
		return err
	}
	var rep obs.FlowsReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decoding /flows: %w", err)
	}
	obs.WriteFlowsText(w, rep)
	return nil
}

// traces renders per-datagram trace waterfalls, either live from the
// admin plane's /traces endpoint or from a dumped JSON artifact (the
// chaos harness and CI write those on failure).
func traces(w io.Writer, addr, file string, limit int) error {
	var body []byte
	var err error
	switch {
	case file == "-":
		body, err = io.ReadAll(os.Stdin)
	case file != "":
		body, err = os.ReadFile(file)
	default:
		path := "/traces?json=1"
		if limit > 0 {
			path = fmt.Sprintf("%s&n=%d", path, limit)
		}
		body, err = get(addr, path)
	}
	if err != nil {
		return err
	}
	var rep obstrace.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decoding traces: %w", err)
	}
	if file != "" && limit > 0 && len(rep.Traces) > limit {
		rep.Traces = rep.Traces[len(rep.Traces)-limit:]
	}
	obs.WriteTracesText(w, rep)
	return nil
}

// benchLatency mirrors fbsbench's latency summary.
type benchLatency struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P95Ns  int64  `json:"p95_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

// benchRow mirrors fbsbench's JSON row; only the fields bench-validate
// and bench-compare check are declared.
type benchRow struct {
	Section     string        `json:"section"`
	Workload    string        `json:"workload,omitempty"`
	Config      string        `json:"config"`
	Kbps        float64       `json:"kbps"`
	SealLatency *benchLatency `json:"seal_latency,omitempty"`
	OpenLatency *benchLatency `json:"open_latency,omitempty"`
}

// benchValidate stream-decodes a sequence of JSON documents from r:
// each top-level array is an fbsbench result set (validated as before),
// each top-level object a serialised scenario report (fbschaos -json
// emits one per scenario run), re-checked from the report alone. Mixing
// the two in one pipe is how CI gates a bench run and the soak matrices
// together.
func benchValidate(r io.Reader) error {
	dec := json.NewDecoder(r)
	var benchDocs, scenarioDocs int
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				break
			}
			return fmt.Errorf("decoding JSON document: %w", err)
		}
		doc := bytes.TrimSpace(raw)
		switch {
		case len(doc) > 0 && doc[0] == '[':
			var rows []benchRow
			if err := json.Unmarshal(doc, &rows); err != nil {
				return fmt.Errorf("decoding bench JSON: %w", err)
			}
			if err := validateBenchRows(rows); err != nil {
				return err
			}
			benchDocs++
		case len(doc) > 0 && doc[0] == '{':
			if err := validateScenarioReport(doc); err != nil {
				return err
			}
			scenarioDocs++
		default:
			return fmt.Errorf("unrecognised JSON document (neither bench rows nor a scenario report)")
		}
	}
	if benchDocs == 0 && scenarioDocs == 0 {
		return fmt.Errorf("bench JSON is an empty result set")
	}
	if scenarioDocs > 0 {
		fmt.Printf("scenario reports ok: %d validated\n", scenarioDocs)
	}
	return nil
}

// scenarioReportDoc declares only the fields bench-validate re-asserts
// from a serialised netsim report: the header every kind shares and the
// shed floor a flood scenario may declare.
type scenarioReportDoc struct {
	Scenario          string
	Complete          bool
	Violations        []string
	PreParseShedRatio float64
	PreParseShedFloor float64
}

// scenarioKinds names a report's kind by a key only that kind carries,
// so the verdict line says what it validated.
var scenarioKinds = []struct{ key, kind string }{
	{"Links", "chaos"}, {"Port1", "crash"}, {"Goodput", "flood"}, {"Final", "reconfig"}, {"Divergence", "diff"},
}

// validateScenarioReport re-checks a scenario report's claims offline:
// it names its scenario, the run reconciled, completed, and — when the
// scenario committed to a pre-parse shed floor — the serialised ratio
// still clears it. The ratio check is deliberately re-derived here
// rather than trusting the harness's own Violations list, so a report
// whose floor assertion was edited out (or a harness regression that
// stopped checking it) still fails the pipeline.
func validateScenarioReport(doc []byte) error {
	var rep scenarioReportDoc
	var keys map[string]json.RawMessage
	for _, into := range []any{&rep, &keys} {
		if err := json.Unmarshal(doc, into); err != nil {
			return fmt.Errorf("decoding scenario report JSON: %w", err)
		}
	}
	if rep.Scenario == "" {
		return fmt.Errorf("object document carries no scenario name; not a scenario report")
	}
	kind := "scenario"
	for _, k := range scenarioKinds {
		if _, ok := keys[k.key]; ok {
			kind = k.kind
		}
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%s %s: %d reconciliation violation(s): %s", kind, rep.Scenario, len(rep.Violations), rep.Violations[0])
	}
	if !rep.Complete {
		return fmt.Errorf("%s %s: transfer incomplete", kind, rep.Scenario)
	}
	if rep.PreParseShedFloor > 0 && rep.PreParseShedRatio < rep.PreParseShedFloor {
		return fmt.Errorf("%s %s: pre-parse shed ratio %.3f below committed floor %.2f",
			kind, rep.Scenario, rep.PreParseShedRatio, rep.PreParseShedFloor)
	}
	if rep.PreParseShedFloor > 0 {
		fmt.Printf("  %-8s %-32s preparse ratio %.3f >= floor %.2f ok\n", kind, rep.Scenario, rep.PreParseShedRatio, rep.PreParseShedFloor)
	} else {
		fmt.Printf("  %-8s %-32s reconciled, complete\n", kind, rep.Scenario)
	}
	return nil
}

// benchSections are the sections fbsbench emits, in its order.
var benchSections = []string{"figure8", "native", "suites"}

// validateBenchRows is the historic bench-validate body: one fbsbench
// result set's structural and plausibility checks. The document comes
// from outside the program, so a section this validator does not know
// is an error naming it: passing it through unchecked would read as
// validated.
func validateBenchRows(rows []benchRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("bench JSON is an empty result set")
	}
	sections := make(map[string]int)
	for i, row := range rows {
		if row.Section == "" || row.Config == "" {
			return fmt.Errorf("row %d: missing section or config: %+v", i, row)
		}
		if !slices.Contains(benchSections, row.Section) {
			return fmt.Errorf("row %d (%s): unknown section %q (fbsbench emits %v)", i, row.Config, row.Section, benchSections)
		}
		if row.Kbps <= 0 {
			return fmt.Errorf("row %d (%s/%s): non-positive throughput %v kb/s", i, row.Section, row.Config, row.Kbps)
		}
		for _, lat := range []struct {
			path string
			l    *benchLatency
		}{{"seal", row.SealLatency}, {"open", row.OpenLatency}} {
			if lat.l == nil {
				continue
			}
			if err := validateLatency(lat.l); err != nil {
				return fmt.Errorf("row %d (%s/%s) %s latency: %w", i, row.Section, row.Config, lat.path, err)
			}
		}
		sections[row.Section]++
	}
	// Native rows only ever ride along with the figure-8 simulation (the
	// default run); the per-suite matrix (-suites) stands alone.
	if sections["figure8"] == 0 && sections["suites"] == 0 {
		return fmt.Errorf("bench JSON has no figure8 or suites rows (sections: %v)", sections)
	}
	if sections["suites"] > 0 {
		if err := validateSuites(rows); err != nil {
			return err
		}
	}
	fmt.Printf("bench JSON ok: %d rows", len(rows))
	for _, s := range benchSections {
		if n := sections[s]; n > 0 {
			fmt.Printf(" %s=%d", s, n)
		}
	}
	fmt.Println()
	return nil
}

// validateLatency sanity-checks one latency summary: it must carry
// samples, its quantiles must be ordered (0 < p50 <= p95 <= p99), and
// its mean must land inside the histogram's representable range — a
// mean past the top finite bucket bound means the summary was computed
// from garbage, not from observations.
func validateLatency(l *benchLatency) error {
	if l.Count == 0 {
		return fmt.Errorf("summary with zero samples")
	}
	if l.P50Ns <= 0 || l.P95Ns < l.P50Ns || l.P99Ns < l.P95Ns {
		return fmt.Errorf("implausible quantiles p50=%dns p95=%dns p99=%dns", l.P50Ns, l.P95Ns, l.P99Ns)
	}
	if max := int64(obs.BucketBound(obs.NumHistBuckets - 1)); l.MeanNs <= 0 || l.MeanNs > max {
		return fmt.Errorf("mean %dns outside histogram range (0, %dns]", l.MeanNs, max)
	}
	return nil
}

// validateSuites enforces the suite matrix's acceptance claims: the
// legacy baseline and both AEAD suites must be present, and the
// single-pass AES-128-GCM sealed box must beat the paper's two-pass
// DES-CBC/keyed-MD5 configuration by at least 5x.
func validateSuites(rows []benchRow) error {
	kbps := make(map[string]float64)
	for _, row := range rows {
		if row.Section == "suites" {
			kbps[row.Config] = row.Kbps
		}
	}
	for _, cfg := range []string{"DES-CBC/keyed-MD5", "AES-128-GCM", "ChaCha20-Poly1305"} {
		if kbps[cfg] == 0 {
			return fmt.Errorf("suites section is missing config %q (have: %v)", cfg, kbps)
		}
	}
	des, gcm := kbps["DES-CBC/keyed-MD5"], kbps["AES-128-GCM"]
	if gcm < 5*des {
		return fmt.Errorf("AES-128-GCM throughput %.0f kb/s is below 5x DES-CBC/keyed-MD5 (%.0f kb/s)", gcm, des)
	}
	return nil
}
