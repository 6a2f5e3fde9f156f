// Command fbschaos runs the fault-injection soak matrix: each scenario
// pushes a transfer through an impaired in-memory network while an adversary
// injects forged, replayed, truncated, and bit-flipped datagrams, then
// reconciles the books — every packet offered to the receiver must be
// accounted for as accepted or dropped under exactly one DropReason.
//
// Usage:
//
//	fbschaos [-seed N] [-run regexp] [-iterations N] [-json] [-list]
//	         [-flood [-prefilter]] [-crash] [-reconfig] [-diff [-ops N]]
//	         [-trace]
//
// With -trace the chaos matrix runs with every-datagram tracing
// (internal/obs/trace); a scenario that fails reconciliation dumps its
// assembled trace report to $FBS_TRACE_ARTIFACT_DIR for offline
// rendering with `fbsstat trace -f <file>`.
//
// By default the link-fault chaos matrix runs. -flood switches to the
// overload matrix (flow-churn and spoofed-source keying floods against
// a budgeted, admission-controlled receiver; -prefilter adds the edge
// pre-filter scenarios — sketch shedding, cookie challenge, adaptive
// ladder); -crash to the crash-restart recovery matrix; -reconfig to the
// gateway reconfiguration-under-load matrix (config swaps landing amid
// lockstep echoes); -diff to the differential matrix
// (seeded op streams cross-validated between the optimised endpoint
// and the internal/refmodel reference, -ops operations per stream,
// divergence artifacts written to $FBS_DIFF_ARTIFACT_DIR when set).
// The flags compose: -flood -crash runs both.
//
// Exit status is nonzero if any scenario fails to reconcile or to
// complete its transfer. With -iterations N each scenario is run N
// times with derived seeds, for soak testing; -json emits one JSON
// report per run to stdout instead of the human summaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"fbs/internal/core"
	"fbs/internal/netsim"
	"fbs/internal/transport"
)

// matrix returns the standing chaos scenarios, seeded from base. It
// mirrors the netsim chaos test matrix so CI and the soak harness
// exercise the same fault space.
func matrix(base uint64) []netsim.ChaosScenario {
	everyKind := map[netsim.InjectKind]int{}
	for k := 0; k < netsim.NumInjectKinds; k++ {
		everyKind[netsim.InjectKind(k)] = 4
	}
	fullStorm := netsim.ChaosScenario{
		Name: "lossy-burst-full-storm",
		Seed: base + 2,
		Link: transport.Impairments{
			LossProb: 0.02, BurstEnter: 0.05, BurstExit: 0.4, BurstLoss: 0.6,
			DupProb:     0.1,
			CorruptProb: 0.05,
			Delay:       500 * time.Microsecond, Jitter: 2 * time.Millisecond,
			ReorderProb: 0.2, Holdback: time.Millisecond,
		},
		Datagrams:    128,
		PayloadBytes: 128,
		Secret:       true,
		Inject: map[netsim.InjectKind]int{
			netsim.InjectReplay:   6,
			netsim.InjectForgeMAC: 6,
			netsim.InjectTruncate: 6,
		},
	}
	scenarios := []netsim.ChaosScenario{
		{
			Name:         "adversary-clean-link",
			Seed:         base,
			Datagrams:    64,
			PayloadBytes: 96,
			Secret:       true,
			Inject:       everyKind,
			ExactBuckets: true,
		},
		{
			Name:         "duplicate-storm",
			Seed:         base + 1,
			Link:         transport.Impairments{DupProb: 0.5, Delay: time.Millisecond, Jitter: 3 * time.Millisecond},
			Datagrams:    96,
			PayloadBytes: 64,
			Secret:       true,
			ExactBuckets: true,
		},
		fullStorm,
		{
			Name:            "keying-outage",
			Seed:            base + 3,
			Link:            transport.Impairments{Delay: 200 * time.Microsecond, Jitter: time.Millisecond},
			Datagrams:       30,
			PayloadBytes:    48,
			Secret:          true,
			KeyOutage:       true,
			OutageDatagrams: 12,
			Retry: core.RetryPolicy{
				MaxAttempts: 3,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  4 * time.Millisecond,
				JitterFrac:  0.5,
			},
			NegativeTTL: 250 * time.Millisecond,
		},
	}
	// The full-storm scenario again, through the batched receive path:
	// ReceiveBatch → OpenBatch must reconcile the same ledger the
	// per-datagram path does under loss, duplication, corruption,
	// reordering and adversary injection.
	fullStorm.Name += "-batched"
	fullStorm.Batch = true
	scenarios = append(scenarios, fullStorm)
	// One adversary run per data-carrying suite in the registry, so the
	// exact-bucket reconciliation (including the suite-aware downgrade
	// and swap injections) holds under every framing, not just DES.
	for _, s := range core.Suites() {
		if s.ID() == core.CipherNone {
			continue
		}
		scenarios = append(scenarios, netsim.ChaosScenario{
			Name:         "adversary-suite-" + s.Name(),
			Seed:         base + 16 + uint64(s.ID()),
			Datagrams:    40,
			PayloadBytes: 192,
			Secret:       true,
			Suite:        s.ID(),
			Inject:       everyKind,
			ExactBuckets: true,
		})
	}
	return scenarios
}

// floodMatrix returns the standing overload scenarios, seeded from
// base. It mirrors the netsim flood test matrix. With prefilter set the
// edge pre-filter scenarios ride along: the sketch pinned against a
// shared-prefix storm (with the >=90% pre-parse shed floor), the
// challenge rung proving zero spoof-attributable keying, and the
// adaptive ladder escalating from its resting level.
func floodMatrix(base uint64, prefilter bool) []netsim.FloodScenario {
	scenarios := []netsim.FloodScenario{
		{
			Name:             "spoof-10x",
			Seed:             base,
			Datagrams:        60,
			PayloadBytes:     64,
			Secret:           true,
			ChurnDatagrams:   120,
			SpoofDatagrams:   600,
			SpoofSources:     24,
			SenderHardBudget: 16 * core.CostFAMEntry,
			Admission: core.AdmissionConfig{
				UpcallRate:  20,
				UpcallBurst: 5,
				PrefixQuota: 2,
				PrefixLen:   14,
				QuotaWindow: 30 * time.Second,
			},
			GoodputFloor: 0.7,
		},
		{
			Name:           "churn-budget",
			Seed:           base + 1,
			Datagrams:      40,
			PayloadBytes:   64,
			ChurnDatagrams: 200,
			HardBudget:     4096,
			GoodputFloor:   0.05,
		},
	}
	if prefilter {
		scenarios = append(scenarios,
			netsim.FloodScenario{
				Name:           "prefilter-sketch",
				Seed:           base + 2,
				Datagrams:      50,
				PayloadBytes:   64,
				Secret:         true,
				SpoofDatagrams: 2000,
				SpoofSources:   24,
				Admission: core.AdmissionConfig{
					UpcallRate:  20,
					UpcallBurst: 5,
					PrefixQuota: 2,
					PrefixLen:   14,
					QuotaWindow: 30 * time.Second,
				},
				Prefilter:         core.PrefilterConfig{Enable: true, ForceLevel: core.PrefilterSketch},
				PreParseShedFloor: 0.9,
				GoodputFloor:      0.7,
			},
			netsim.FloodScenario{
				Name:           "prefilter-challenge",
				Seed:           base + 3,
				Datagrams:      60,
				PayloadBytes:   64,
				Secret:         true,
				ChurnDatagrams: 120,
				SpoofDatagrams: 600,
				SpoofSources:   24,
				Admission: core.AdmissionConfig{
					UpcallRate:  20,
					UpcallBurst: 5,
				},
				Prefilter: core.PrefilterConfig{
					Enable:     true,
					ForceLevel: core.PrefilterChallenge,
					SecretSeed: []byte("fbschaos-prefilter-seed"),
				},
				PreParseShedFloor:   0.9,
				ExpectNoSpoofKeying: true,
				GoodputFloor:        0.7,
			},
			netsim.FloodScenario{
				Name:           "prefilter-adaptive",
				Seed:           base + 4,
				Datagrams:      50,
				PayloadBytes:   64,
				SpoofDatagrams: 2000,
				SpoofSources:   24,
				Admission: core.AdmissionConfig{
					UpcallRate:  20,
					UpcallBurst: 5,
				},
				Prefilter:        core.PrefilterConfig{Enable: true},
				ExpectEscalation: true,
				GoodputFloor:     0.7,
			},
		)
	}
	return scenarios
}

// A diffRun names a differential scenario, which has no name of its own.
type diffRun struct {
	Name string
	Sc   netsim.DiffScenario
}

// diffMatrix returns the standing differential cross-validation runs:
// seeded op streams executed against both the optimised endpoint and
// the naive reference model, with and without the replay cache, and
// with the pre-filter pinned at its sketch rung.
func diffMatrix(base uint64, ops int) []diffRun {
	// Shorter per-suite and pre-filter streams: the long runs soak the
	// default (DES) configuration; the short ones cross-validate every
	// other registered framing, and the sketch under seed-drawn settings,
	// against their independent reference implementations.
	sops := ops / 4
	if sops < 1000 {
		sops = 1000
	}
	runs := []diffRun{
		{"diff-replay", netsim.DiffScenario{Seed: base, Ops: ops, ReplayCache: true}},
		{"diff-noreplay", netsim.DiffScenario{Seed: base + 1, Ops: ops, ReplayCache: false}},
		{"diff-prefilter-sketch", netsim.DiffScenario{Seed: base + 2, Ops: sops, ReplayCache: true, Prefilter: core.PrefilterSketch}},
	}
	for _, s := range core.Suites() {
		if s.ID() == core.CipherNone || s.ID() == core.CipherDES {
			continue
		}
		runs = append(runs, diffRun{
			"diff-suite-" + s.Name(),
			netsim.DiffScenario{Seed: base + 16 + uint64(s.ID()), Ops: sops, ReplayCache: true, Suite: s.ID()},
		})
	}
	return runs
}

// crashMatrix returns the standing crash-restart scenarios.
func crashMatrix(base uint64) []netsim.CrashScenario {
	return []netsim.CrashScenario{
		{
			Name:         "crash-mid-transfer",
			Seed:         base,
			Datagrams:    80,
			CrashAfter:   40,
			PayloadBytes: 64,
			Secret:       true,
			HardBudget:   1 << 20,
			Admission:    core.AdmissionConfig{UpcallRate: 20, UpcallBurst: 4},
		},
	}
}

// reconfigMatrix returns the standing reconfiguration-under-load
// scenarios.
func reconfigMatrix(base uint64) []netsim.ReconfigScenario {
	return []netsim.ReconfigScenario{
		{
			Name:         "reconfig-under-load",
			Seed:         base,
			Senders:      4,
			Datagrams:    60,
			PayloadBytes: 64,
			Secret:       true,
			Shards:       2,
			Swaps:        3,
		},
	}
}

// A runnable is one matrix entry with its scenario type erased: a name
// and an execution that yields a report.
type runnable struct {
	name string
	run  func() (netsim.Report, error)
}

// entry binds a scenario to the netsim harness that runs it. The matrix
// names the run: the four harnesses whose scenarios carry a name have
// already put the same one in the header, a differential scenario has
// none of its own.
func entry[S any, R netsim.Report](name string, sc S, run func(S) (R, error)) runnable {
	return runnable{name, func() (netsim.Report, error) {
		rep, err := run(sc)
		if err != nil {
			return nil, err
		}
		rep.Header().Scenario = name
		return rep, nil
	}}
}

// dumpArtifacts writes what a failing run left behind for CI to upload
// alongside the reconciliation books: a chaos scenario run with -trace
// dumps its assembled per-datagram traces to $FBS_TRACE_ARTIFACT_DIR
// (render them with `fbsstat trace -f <file>`), a diverged differential
// run its op stream and both transcripts to $FBS_DIFF_ARTIFACT_DIR.
func dumpArtifacts(name string, rep netsim.Report) {
	write := func(env, suffix string, data []byte) {
		dir := os.Getenv(env)
		if dir == "" || os.MkdirAll(dir, 0o755) != nil {
			return
		}
		path := filepath.Join(dir, name+suffix)
		if os.WriteFile(path, data, 0o644) == nil {
			fmt.Fprintf(os.Stderr, "fbschaos: %s: artifact written to %s\n", name, path)
		}
	}
	switch rep := rep.(type) {
	case *netsim.ChaosReport:
		if rep.TraceReport == nil {
			return
		}
		if data, err := json.MarshalIndent(rep.TraceReport, "", "  "); err == nil {
			write("FBS_TRACE_ARTIFACT_DIR", "-traces.json", data)
		}
	case *netsim.DiffReport:
		write("FBS_DIFF_ARTIFACT_DIR", ".txt", []byte(rep.Artifact()))
	}
}

func main() {
	seed := flag.Uint64("seed", 0xC4A05, "base seed for the scenario matrix")
	run := flag.String("run", "", "only run scenarios whose name matches this regexp")
	iters := flag.Int("iterations", 1, "repeat each scenario this many times with derived seeds")
	asJSON := flag.Bool("json", false, "emit one JSON report per run instead of text summaries")
	list := flag.Bool("list", false, "list scenario names and exit")
	flood := flag.Bool("flood", false, "run the overload (flood) matrix instead of the chaos matrix")
	crash := flag.Bool("crash", false, "run the crash-restart matrix instead of the chaos matrix")
	diff := flag.Bool("diff", false, "run the differential matrix (optimised endpoint vs reference model) instead of the chaos matrix")
	reconfig := flag.Bool("reconfig", false, "run the gateway reconfiguration-under-load matrix instead of the chaos matrix")
	prefilter := flag.Bool("prefilter", false, "with -flood, include the edge pre-filter scenarios (sketch, challenge, adaptive ladder)")
	diffOps := flag.Int("ops", 20000, "op-stream length per differential scenario (with -diff)")
	trace := flag.Bool("trace", false, "run chaos scenarios with every-datagram tracing; failing scenarios dump their trace report to $FBS_TRACE_ARTIFACT_DIR")
	flag.Parse()

	var filter *regexp.Regexp
	if *run != "" {
		var err error
		if filter, err = regexp.Compile(*run); err != nil {
			fmt.Fprintf(os.Stderr, "fbschaos: bad -run pattern: %v\n", err)
			os.Exit(2)
		}
	}

	collect := func(base uint64) []runnable {
		var rs []runnable
		if !(*flood || *crash || *diff || *reconfig) {
			for _, sc := range matrix(base) {
				sc.Trace = *trace
				rs = append(rs, entry(sc.Name, sc, netsim.RunChaos))
			}
		}
		if *reconfig {
			for _, sc := range reconfigMatrix(base) {
				rs = append(rs, entry(sc.Name, sc, netsim.RunReconfig))
			}
		}
		if *diff {
			for _, d := range diffMatrix(base, *diffOps) {
				rs = append(rs, entry(d.Name, d.Sc, netsim.RunDiff))
			}
		}
		if *flood {
			for _, sc := range floodMatrix(base, *prefilter) {
				rs = append(rs, entry(sc.Name, sc, netsim.RunFlood))
			}
		}
		if *crash {
			for _, sc := range crashMatrix(base) {
				rs = append(rs, entry(sc.Name, sc, netsim.RunCrashRestart))
			}
		}
		return rs
	}

	failed := 0
	enc := json.NewEncoder(os.Stdout)
	for iter := 0; iter < *iters; iter++ {
		// Each iteration shifts the whole matrix to a fresh seed block
		// so soak runs explore new fault schedules deterministically.
		for _, r := range collect(*seed + uint64(iter)*0x1000) {
			if filter != nil && !filter.MatchString(r.name) {
				continue
			}
			if *list {
				fmt.Println(r.name)
				continue
			}
			rep, err := r.run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "fbschaos: %s: %v\n", r.name, err)
				failed++
				continue
			}
			if *asJSON {
				if err := enc.Encode(rep); err != nil {
					fmt.Fprintf(os.Stderr, "fbschaos: %v\n", err)
					os.Exit(2)
				}
			} else {
				fmt.Println(rep.Summary())
			}
			if h := rep.Header(); len(h.Violations) > 0 || !h.Complete {
				failed++
				dumpArtifacts(r.name, rep)
			}
		}
		if *list {
			break
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fbschaos: %d scenario run(s) failed reconciliation\n", failed)
		os.Exit(1)
	}
}
