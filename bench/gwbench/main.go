// Command gwbench measures the deployable gateway, cmd/fbsgw, end to
// end and layer by layer: it builds fbsgw, boots it as a child process
// from a generated config, drives it over loopback UDP from seeded
// client principals, verifies every echo, drains it with SIGTERM and
// checks its final ledger. See README.md beside this file.
//
//	bash bench/gwbench/run.sh                            # all four workloads, human-readable
//	bash bench/gwbench/run.sh --workload small_echo --seed 7 --seconds 20 --trace 0
//	bash bench/gwbench/run.sh --workload small_echo --trace 1   # + traced replica, trace.json
//	bash bench/gwbench/run.sh -repeat 10                 # repeatability report (Markdown)
//
// With --workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	// Keep main on the process's first thread: the gateway child is
	// started with Pdeathsig, which fires when the *thread* that forked
	// it exits.
	runtime.LockOSThread()

	name := flag.String("workload", "", "run this workload and end with the driver's JSON result line; empty runs all four")
	seed := flag.Uint64("seed", 1, "workload seed: payload filler, flood sources and conversation ids derive from it")
	seconds := flag.Float64("seconds", 20, "measured seconds per run, shared by its sessions (phase A 80 %, phase B 20 %)")
	trace := flag.Int("trace", 0, "1 also replays the workload through the traced in-harness replica, writes trace.json and reports per-layer metrics")
	repeat := flag.Int("repeat", 0, "run two interleaved sets of N passes per workload and print the repeatability report")
	root := flag.String("root", ".", "repository root: holds go.mod and cmd/fbsgw")
	out := flag.String("out", "", "directory for the fbsgw binary, run scratch and trace.json (default <root>/.bench_build/gwbench)")
	flag.Parse()

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(absRoot, ".bench_build", "gwbench")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	// The generator's live heap is a few MB, so at the default GOGC it
	// would collect some thirty times a second, and every cycle wakes
	// collector workers on both vCPUs — one of which the gateway is
	// using. The gateway child keeps the product's default.
	debug.SetGCPercent(1000)

	bin, err := buildGateway(absRoot, *out)
	if err != nil {
		fatal(err)
	}
	rc := runConfig{fbsgw: bin, dir: filepath.Join(*out, "run"), seed: *seed, seconds: *seconds, sessions: sessionsPerRun, procs: procs}
	if err := os.RemoveAll(rc.dir); err != nil {
		fatal(err)
	}
	fp := fingerprintOf(absRoot, *seed, procs)

	if *repeat > 0 {
		os.Exit(runRepeat(*repeat, rc, fp, *out))
	}
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		res, err := runOne(rc, w, *trace == 1, fp, *out)
		if err != nil {
			fatal(err)
		}
		res.print(fp)
		// The verdict travels in "correct"; the exit code only says
		// whether a result was produced.
		fmt.Println(res.jsonLine(*trace == 1))
		return
	}

	failed := false
	all := map[string]*result{}
	for _, w := range workloads {
		res, err := runOne(rc, w, *trace == 1, fp, *out)
		if err != nil {
			fatal(err)
		}
		res.print(fp)
		all[w.name] = res
		failed = failed || !res.Correct
	}
	printSummary(all)
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gwbench:", err)
	os.Exit(2)
}

// buildGateway compiles cmd/fbsgw from the checkout into out.
func buildGateway(root, out string) (string, error) {
	bin := filepath.Join(out, "fbsgw")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fbsgw")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/fbsgw in %s: %w", root, err)
	}
	return bin, nil
}

// result is one workload's outcome: the verdict, both metric families,
// and why the verdict is what it is.
type result struct {
	Workload  string
	Correct   bool
	Attempted uint64
	Failed    uint64
	Problems  []string
	EndToEnd  values
	Layers    values
}

// runOne measures one workload live, optionally follows with the traced
// replica, and returns the result.
func runOne(rc runConfig, w workload, traced bool, fp fingerprint, out string) (*result, error) {
	sessions, err := runLive(rc, w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{Workload: w.name}
	var e2e, layers []values
	var legit, spoofed uint64 // offered over every session's phase A
	for i, live := range sessions {
		e, l := endToEndValues(live), scrapedValues(live, rc.procs)
		e2e, layers = append(e2e, e), append(layers, l)
		legit += live.a.after.sent - live.a.before.sent
		spoofed += live.a.flood
		res.Attempted += live.b.after.sent - live.a.before.sent
		res.Failed += (live.b.after.sent - live.a.before.sent) - (live.b.after.verified - live.a.before.verified)
		for _, p := range verify(live, e, l) {
			res.Problems = append(res.Problems, fmt.Sprintf("session %d: %s", i, p))
		}
	}
	res.EndToEnd, res.Layers = medianValues(e2e), medianValues(layers)
	if traced {
		tv, err := runTraced(w, rc.seed, ratio(float64(spoofed), float64(legit+spoofed)), filepath.Join(out, "trace-"+w.name+".json"), fp)
		if err != nil {
			return nil, fmt.Errorf("%s: traced replica: %w", w.name, err)
		}
		for k, v := range tv {
			res.Layers[k] = v
		}
		res.Layers["model.coverage"] = ratio(tv["model.sum_us"], res.Layers["fbsgw.gw_cpu_us_per_dgram"])
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// print writes the human-readable report of one workload.
func (r *result) print(fp fingerprint) {
	fmt.Printf("== %s ==\n", r.Workload)
	fp.print()
	if r.Layers["client.cpu_share"] > 0.95 {
		fmt.Println("# generator_bound: true (client.cpu_share > 0.95 of its GOMAXPROCS allowance)")
	}
	rows := func(title string, specs []metricSpec, v values) {
		fmt.Println(title)
		for _, s := range specs {
			if x, ok := v[s.name]; ok { // a --trace 0 run has no traced layers
				fmt.Printf("  %-44s %14.4f %-6s (%s is better)\n", s.name, x, s.unit, s.better)
			}
		}
	}
	rows("end-to-end:", endToEnd, r.EndToEnd)
	rows("per-layer:", perLayer(), r.Layers)
	fmt.Printf("attempted %d, failed %d\n", r.Attempted, r.Failed)
	if r.Correct {
		fmt.Println("verdict: correct")
	} else {
		fmt.Println("verdict: INCORRECT\n  " + strings.Join(r.Problems, "\n  "))
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the driver's result object.
func (r *result) jsonLine(traced bool) string {
	specs, vals := endToEnd, r.EndToEnd
	if traced {
		specs, vals = perLayer(), r.Layers
	}
	metrics := map[string]jsonMetric{}
	for _, s := range specs {
		metrics[s.name] = jsonMetric{Value: vals[s.name], Unit: s.unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(blob)
}

// printSummary is the all-workloads table: one row per end-to-end
// metric and per demoted one, one column per workload.
func printSummary(all map[string]*result) {
	fmt.Printf("\n%-36s", "gated, then demoted")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.name)
	}
	fmt.Println()
	for _, s := range headline() {
		fmt.Printf("%-36s", s.name+" ("+s.unit+")")
		for _, w := range workloads {
			v, ok := all[w.name].EndToEnd[s.name]
			if !ok {
				v = all[w.name].Layers[s.name]
			}
			fmt.Printf(" %14.4f", v)
		}
		fmt.Println()
	}
}
