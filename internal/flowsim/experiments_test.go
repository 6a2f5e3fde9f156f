package flowsim

import (
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"fbs/internal/trace"
)

// The "Measured" paragraphs of EXPERIMENTS.md's Figures 9–14, held to
// the numbers they state on the trace they state them for: `flowsim`'s
// default campus trace (seed 1997, 60 minutes, 25 desktops) at a
// THRESHOLD of 600 s. The trace is seeded, so each figure is exact; the
// tolerances, written in both places, absorb the rounding of the prose
// and nothing else. A generator or flow-model change that moves a
// figure fails here until the paragraph is re-measured.

var (
	experimentsOnce  sync.Once
	experimentsTr    *trace.Trace
	experimentsFlows []Flow
)

const experimentsThreshold = 600 * time.Second

// experimentsTrace is the trace EXPERIMENTS.md measures, built once.
func experimentsTrace() (*trace.Trace, []Flow) {
	experimentsOnce.Do(func() {
		experimentsTr = trace.Campus(trace.CampusConfig{Seed: 1997, Duration: 60 * time.Minute, Desktops: 25})
		experimentsFlows = Flows(experimentsTr, experimentsThreshold)
	})
	return experimentsTr, experimentsFlows
}

// near fails unless got is within tol of want (absolute).
func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4g, EXPERIMENTS.md states %.4g ± %.4g", what, got, want, tol)
	}
}

// TestFigure9Measured: median flow 1 packet / 197 bytes, p99 697 packets
// / 204 kB (each ±5 %), and the top 10 % of flows carry 99 % of all
// bytes (±1 percentage point).
func TestFigure9Measured(t *testing.T) {
	_, flows := experimentsTrace()
	pkts, bytes := SizesInPackets(flows), SizesInBytes(flows)
	near(t, "median packets", Quantile(pkts, 0.5), 1, 0.05)
	near(t, "median bytes", Quantile(bytes, 0.5), 197, 197*0.05)
	near(t, "p99 packets", Quantile(pkts, 0.99), 697, 697*0.05)
	near(t, "p99 bytes", Quantile(bytes, 0.99), 204e3, 204e3*0.05)
	near(t, "byte share of the top 10% of flows", ByteShareOfTop(flows, 0.10), 0.99, 0.01)
}

// TestFigure10Measured: median duration under 1 s, p90 ≈ 0.1 s
// (±0.05 s), p99 ≈ 1,457 s (±5 %).
func TestFigure10Measured(t *testing.T) {
	_, flows := experimentsTrace()
	durs := Durations(flows)
	if med := Quantile(durs, 0.5); med >= 1 {
		t.Errorf("median duration = %.3g s, EXPERIMENTS.md states < 1 s", med)
	}
	near(t, "p90 duration (s)", Quantile(durs, 0.9), 0.1, 0.05)
	near(t, "p99 duration (s)", Quantile(durs, 0.99), 1457, 1457*0.05)
}

// TestFigure11Measured: the TFKC and RFKC miss-rate table, each cell
// ±0.1 percentage point; 3,862 cold misses at every size; send-side
// conflict misses ~11,500 at size 2 and ~1,600 at size 512 (±5 %).
func TestFigure11Measured(t *testing.T) {
	tr, _ := experimentsTrace()
	sizes := []int{2, 8, 32, 128, 512}
	table := map[CacheSide][]float64{ // miss rate, percent
		SendSide:    {6.97, 3.88, 2.83, 2.68, 2.46},
		ReceiveSide: {6.52, 4.07, 3.03, 2.92, 2.68},
	}
	for side, want := range table {
		res := CacheSweep(tr, experimentsThreshold, sizes, side, HashCRC32)
		for i, r := range res {
			near(t, "miss rate (%) at size "+strconv.Itoa(r.Size), r.MissRate()*100, want[i], 0.1)
			if r.Cold != 3862 {
				t.Errorf("side %d size %d: %d cold misses, EXPERIMENTS.md states 3,862", side, r.Size, r.Cold)
			}
		}
		if side == SendSide {
			near(t, "send-side conflict misses at size 2", float64(res[0].Conflict), 11500, 11500*0.05)
			near(t, "send-side conflict misses at size 512", float64(res[len(res)-1].Conflict), 1600, 1600*0.05)
		}
	}
}

// TestFigure12Measured: network-wide peak 1,146 and mean 971 active
// flows; the busiest host peaks at 388 sending and 388 receiving (each
// ±2 %).
func TestFigure12Measured(t *testing.T) {
	tr, flows := experimentsTrace()
	series := ActiveSeries(flows, experimentsThreshold, time.Minute, tr.Duration())
	near(t, "peak active flows", float64(MaxActive(series)), 1146, 1146*0.02)
	near(t, "mean active flows", MeanActive(series), 971, 971*0.02)
	for _, side := range []CacheSide{SendSide, ReceiveSide} {
		peak := MaxOverHosts(PerHostPeakActive(flows, experimentsThreshold, time.Minute, tr.Duration(), side))
		near(t, "busiest host's peak active flows", float64(peak), 388, 388*0.02)
	}
}

// TestFigure13Measured: mean active flows 579, 971, 1,331 and 1,655 at
// THRESHOLD 300, 600, 900 and 1,200 s (each ±1 %), rising with a
// declining margin (Δ 300→600 = 392 > Δ 900→1200 = 325).
func TestFigure13Measured(t *testing.T) {
	tr, _ := experimentsTrace()
	want := map[int]float64{300: 579, 600: 971, 900: 1331, 1200: 1655}
	means := map[int]float64{}
	for th, w := range want {
		d := time.Duration(th) * time.Second
		means[th] = MeanActive(ActiveSeries(Flows(tr, d), d, time.Minute, tr.Duration()))
		near(t, "mean active flows at THRESHOLD "+strconv.Itoa(th)+" s", means[th], w, w*0.01)
	}
	if low, high := means[600]-means[300], means[1200]-means[900]; !(low > high && high > 0) {
		t.Errorf("Δ 300→600 = %.0f, Δ 900→1200 = %.0f: want a rising curve with a declining margin", low, high)
	}
}

// TestFigure14Measured: repeated flows 2,298, 1,648, 1,580, 1,562 and
// 1,554 at THRESHOLD 60, 120, 300, 600 and 1,200 s (each ±1 %).
func TestFigure14Measured(t *testing.T) {
	tr, _ := experimentsTrace()
	want := map[int]float64{60: 2298, 120: 1648, 300: 1580, 600: 1562, 1200: 1554}
	for th, w := range want {
		rep := RepeatedFlows(Flows(tr, time.Duration(th)*time.Second))
		near(t, "repeated flows at THRESHOLD "+strconv.Itoa(th)+" s", float64(rep), w, w*0.01)
	}
}
