package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// runRepeat is the repeatability mode: two interleaved sets of n passes
// of every workload, each pass a whole run with its own seed. It prints
// a Markdown report (committed as REPEATABILITY.md) and returns non-zero
// if a gated metric's two set medians disagree by more than its bound,
// or, within either set, its quartile spread exceeds its bound or its
// range exceeds a tenth of its median — the issue's demotion rule, which
// it stated for ten runs (-repeat 5), the size of one set at -repeat 10.
// setup_s is held to the gap only: the benchmark contract requires it to
// be gated. A failed operation in either set also fails the report: the
// workloads are chosen so that none fails. The demoted metrics are listed
// with the same statistics, which is the record of why they are not gated.
func runRepeat(n int, rc runConfig, fp fingerprint, out string) int {
	tracked := headline()
	// samples[workload][metric][set] = values in pass order.
	samples := map[string]map[string][2][]float64{}
	// ops[workload][set] = operations attempted and failed over the set.
	type tally struct{ attempted, failed uint64 }
	ops := map[string]*[2]tally{}
	for _, w := range workloads {
		samples[w.name] = map[string][2][]float64{}
		ops[w.name] = new([2]tally)
	}
	for pass := 0; pass < n; pass++ {
		for _, w := range workloads {
			for set := 0; set < 2; set++ {
				one := rc
				one.seed = rc.seed + uint64(set*n+pass)
				res, err := runOne(one, w, false, fp, out)
				if err != nil {
					fatal(err)
				}
				if !res.Correct {
					fatal(fmt.Errorf("%s seed %d: incorrect: %s", w.name, one.seed, strings.Join(res.Problems, "; ")))
				}
				ops[w.name][set].attempted += res.Attempted
				ops[w.name][set].failed += res.Failed
				fmt.Fprintf(os.Stderr, "repeat: pass %d/%d set %d %s seed %d: failed=%d/%d", pass+1, n, set+1, w.name, one.seed, res.Failed, res.Attempted)
				for _, spec := range tracked {
					v, ok := res.EndToEnd[spec.name]
					if !ok {
						v = res.Layers[spec.name]
					}
					fmt.Fprintf(os.Stderr, " %s=%s", spec.name, sig(v))
					sets := samples[w.name][spec.name]
					sets[set] = append(sets[set], v)
					samples[w.name][spec.name] = sets
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	fmt.Println("# gwbench repeatability")
	fmt.Println()
	for _, line := range fp.lines() {
		fmt.Println("- " + line)
	}
	fmt.Printf("- %d passes per set, two interleaved sets, %d sessions sharing %g measured seconds per run, seeds %d..%d (set 1) and %d..%d (set 2)\n",
		n, rc.sessions, rc.seconds, rc.seed, rc.seed+uint64(n)-1, rc.seed+uint64(n), rc.seed+uint64(2*n)-1)
	fmt.Println()
	fmt.Println("Each cell is `median [q1, q3]` over the set's passes (quartiles as Python's")
	fmt.Println("`statistics.quantiles(v, n=4)`). *spread* is (q3 − q1) / median, the larger of the")
	fmt.Println("two sets. *gap* is how much worse set 2's median is than set 1's, as a share of")
	fmt.Println("set 1's; negative means better. *range* is (max − min) / median over a set's")
	fmt.Println("passes, the larger of the two sets. A gated metric must keep gap and spread within")
	fmt.Println("its bound and range within 0.10 (setup_s: gap only, the benchmark contract requires")
	fmt.Println("it to be gated).")
	fmt.Println("Rows without a bound are the demoted metrics, reported per layer, with the")
	fmt.Println("numbers that demoted them. Under each table are the operations (legit datagrams")
	fmt.Println("sent in phases A and B) each set attempted and how many failed; none may.")
	bad := 0
	for _, w := range workloads {
		fmt.Printf("\n## %s\n\n", w.name)
		fmt.Println("| metric | unit | bound | set 1 | set 2 | spread | gap | range | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, spec := range tracked {
			sets := samples[w.name][spec.name]
			m1, q1a, q3a := quartiles(sets[0])
			m2, q1b, q3b := quartiles(sets[1])
			spread := math.Max(ratio(q3a-q1a, m1), ratio(q3b-q1b, m2))
			gap := ratio(m2-m1, m1)
			if spec.better == "higher" {
				gap = -gap
			}
			rng := math.Max(ratio(slices.Max(sets[0])-slices.Min(sets[0]), m1), ratio(slices.Max(sets[1])-slices.Min(sets[1]), m2))
			bound, verdict := strconv.FormatFloat(spec.bound, 'g', -1, 64), "ok"
			switch {
			case demoted[spec.name]:
				bound, verdict = "—", "demoted"
			case gap > spec.bound:
				verdict = "GAP OVER BOUND"
				bad++
			case spec.name == "setup_s":
			case spread > spec.bound:
				verdict = "SPREAD OVER BOUND"
				bad++
			case rng > rangeLimit:
				verdict = "RANGE OVER 0.10"
				bad++
			case spread > spec.bound/3:
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %.4f | %+.4f | %.4f | %s |\n",
				spec.name, spec.unit, bound, cell(m1, q1a, q3a), cell(m2, q1b, q3b), spread, gap, rng, verdict)
		}
		t := ops[w.name]
		fmt.Printf("\nOperations failed: %d of %d (set 1), %d of %d (set 2).\n", t[0].failed, t[0].attempted, t[1].failed, t[1].attempted)
		if t[0].failed+t[1].failed > 0 {
			bad++
		}
	}
	fmt.Println()
	if bad > 0 {
		fmt.Printf("**%d checks failed (a gated metric × workload pair, or a workload with failed operations).**\n", bad)
		return 1
	}
	fmt.Println("Every gated metric × workload holds its bound, and no operation failed.")
	return 0
}

func cell(m, q1, q3 float64) string {
	return fmt.Sprintf("%s [%s, %s]", sig(m), sig(q1), sig(q3))
}

// sig prints five significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// quartiles returns the median and Python's statistics.quantiles(v,
// n=4) first and third quartiles (the default "exclusive" method).
func quartiles(v []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s), median(s)
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return median(s), q(1), q(3)
}
