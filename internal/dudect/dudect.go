// Package dudect is a timing-leak test after Reparaz, Balasch and
// Verbauwhede, "Dude, is my code constant time?" (DATE 2017). It times an
// operation on inputs of two secret classes, interleaved at random, and
// applies Welch's t-test to the two timing distributions twice: on every
// sample, and on the samples at or below the pooled 90th percentile,
// which drops the long tail that preemption, interrupts and the garbage
// collector add. A |t| above Threshold says the classes take measurably
// different time. A measurement that crosses it is taken again on a
// fresh class sequence, and only a leak the retake repeats in the same
// direction counts: a host under load (another process on the sibling
// vCPU, the rest of a parallel test run) can push one measurement's |t|
// past the threshold in either direction, while a secret dependence
// pushes every measurement the same way. The tests of the constant-time
// claims use it; a positive control beside each use is what shows the
// instrument can see a leak on the host it runs on.
package dudect

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// Threshold is the |t| above which a measurement counts as a leak, the
// paper's bound.
const Threshold = 4.5

// Result is one measurement's two Welch t statistics, signed: positive
// when class 0 is the slower. Retake is the measurement repeated on a
// fresh class sequence, taken only when this one crossed Threshold.
type Result struct {
	Raw, Cropped float64
	Retake       *Result
}

// direction is the sign of the statistic that crosses Threshold, the
// cropped one first, or 0 when neither does.
func (r Result) direction() float64 {
	for _, t := range [2]float64{r.Cropped, r.Raw} {
		if math.Abs(t) > Threshold {
			return math.Copysign(1, t)
		}
	}
	return 0
}

// Leaks reports whether the measurement crossed Threshold and its retake
// crossed it in the same direction.
func (r Result) Leaks() bool {
	d := r.direction()
	return d != 0 && r.Retake != nil && r.Retake.direction() == d
}

func (r Result) String() string {
	s := fmt.Sprintf("t raw %+.2f, cropped %+.2f", r.Raw, r.Cropped)
	if r.Retake != nil {
		s += fmt.Sprintf("; retake t raw %+.2f, cropped %+.2f", r.Retake.Raw, r.Retake.Cropped)
	}
	return s
}

// SkipUntimed skips a leak test where timings say nothing: under the
// race detector, which instruments every memory access, and in a -short
// run, which has no time for the samples.
func SkipUntimed(t testing.TB) {
	t.Helper()
	if raceEnabled {
		t.Skip("timings under the race detector say nothing about the code")
	}
	if testing.Short() {
		t.Skip("a leak test needs its samples; skipped in -short")
	}
}

// Measure times n calls of op, each on a class drawn at random from seed,
// after n/10 discarded warm-up calls, and retakes the measurement on a
// second class sequence from seed when the first crosses Threshold.
// op(class, i) runs the operation on input i of class 0 or 1; the caller
// prepares n inputs per class in advance, alike in everything but their
// class, so that nothing but the operation itself differs between the
// classes.
func Measure(n int, seed uint64, op func(class, i int)) Result {
	r := measure(n, rand.NewPCG(seed, 0), op)
	if r.direction() != 0 {
		retake := measure(n, rand.NewPCG(seed, 1), op)
		r.Retake = &retake
	}
	return r
}

// measure is one measurement over a class sequence drawn from src.
func measure(n int, src rand.Source, op func(class, i int)) Result {
	rng := rand.New(src)
	classes := make([]int, n)
	for i := range classes {
		classes[i] = rng.IntN(2)
	}
	for i := range n / 10 {
		op(classes[i], i)
	}
	times := make([]float64, n)
	for i, c := range classes {
		start := time.Now()
		op(c, i)
		times[i] = float64(time.Since(start))
	}
	sorted := slices.Clone(times)
	slices.Sort(sorted)
	return Result{
		Raw:     welch(times, classes, math.Inf(1)),
		Cropped: welch(times, classes, sorted[n*9/10]),
	}
}

// welch is Welch's t statistic between the two classes' samples at or
// below limit, with running means and variances (Welford).
func welch(times []float64, classes []int, limit float64) float64 {
	var n, mean, m2 [2]float64
	for i, x := range times {
		if x > limit {
			continue
		}
		c := classes[i]
		n[c]++
		d := x - mean[c]
		mean[c] += d / n[c]
		m2[c] += d * (x - mean[c])
	}
	v0, v1 := m2[0]/(n[0]-1), m2[1]/(n[1]-1)
	return (mean[0] - mean[1]) / math.Sqrt(v0/n[0]+v1/n[1])
}
