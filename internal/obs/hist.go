// Package obs is the observability layer for the FBS pipeline: a metrics
// registry with Prometheus text exposition, one sampled per-datagram
// tracer (Pipeline) whose span ring is the flight recorder and whose
// spans feed the latency histograms, and an opt-in admin HTTP plane.
//
// The package is dependency-free (standard library only) and is built to
// preserve the PR 1 concurrency model: histograms are striped over
// padded cache lines and mutated with atomics only (no locks on the
// record path), counters are adapted from the snapshot accessors the
// core/ip/transport packages already expose, and everything per-packet
// sits behind core.Tracer's sampling gate so the un-sampled steady
// state stays allocation-free.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear: each power-of-two octave [2^o, 2^(o+1))
// is split into histSubBuckets equal-width sub-buckets. Pure log2
// bucketing (the original design) quantised quantiles to powers of two
// — BENCH_suites.json reported p50=131071ns and p95=262143ns, exact
// bucket bounds, so the percentiles said more about the bucket grid
// than the workload. With 4 sub-buckets per octave a quantile
// over-estimates by at most one sub-bucket width, i.e. 25% of the
// octave base, while the record path stays the same two atomic adds.
const histSubBuckets = 4

// NumHistBuckets is the total bucket count. Bucket 0 holds
// zero-duration observations; buckets 1..3 hold exactly 1, 2 and 3 ns
// (octaves below 4 ns are narrower than a sub-bucket); from 4 ns up,
// each octave [2^o, 2^(o+1)) contributes histSubBuckets buckets. The
// top octave ends at 2^40-1 ns ≈ 18 minutes, far beyond any per-packet
// stage; the last bucket additionally absorbs overflow.
const NumHistBuckets = 4 + (40-2)*histSubBuckets // = 156

// histStripes is the number of independent stripes a histogram's
// counters are spread over. Like the PR 1 cache stripes it is a power
// of two; 8 splits concurrent recorders across cache lines while
// keeping the footprint modest.
const histStripes = 8

// histStripe is one stripe's share of the buckets. The trailing pad
// keeps the next stripe's first counters off this stripe's last cache
// line.
type histStripe struct {
	counts [NumHistBuckets]atomic.Uint64
	sum    atomic.Uint64 // total observed nanoseconds
	_      [56]byte
}

// exemplarSlot holds one bucket's latest exemplar: the trace ID of a
// sampled-and-traced observation that landed in the bucket, plus its
// exact value. The two fields are independent atomics written
// value-first, id-last (last-write-wins); a torn pair can mix two
// traced observations from the same bucket, which still names a valid
// trace and a value within the bucket — accepted in exchange for a
// lock-free record path.
type exemplarSlot struct {
	id  atomic.Uint64
	val atomic.Uint64 // nanoseconds
}

// Histogram is a lock-free log-linear latency histogram. Observe is
// wait-free (two atomic adds) and allocation-free; Snapshot merges the
// stripes into one consistent-enough view (each counter is read
// atomically; the set is not a global atomic snapshot, matching the
// repo's counter semantics). Buckets additionally carry exemplars: the
// most recent traced observation per bucket, linking a hot latency
// bucket back to a full per-datagram trace.
//
// The zero value is ready to use.
type Histogram struct {
	stripes   [histStripes]histStripe
	exemplars [NumHistBuckets]exemplarSlot
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	v := uint64(d)
	if v < 4 {
		return int(v)
	}
	o := uint(bits.Len64(v)) - 1 // 2^o <= v < 2^(o+1), o >= 2
	sub := (v >> (o - 2)) & (histSubBuckets - 1)
	idx := 4 + int(o-2)*histSubBuckets + int(sub)
	if idx >= NumHistBuckets {
		idx = NumHistBuckets - 1
	}
	return idx
}

// BucketBound returns the inclusive upper bound of bucket i (its
// Prometheus `le` value). The last bucket has no finite bound (it
// absorbs overflow) and reports the same formula; exposition renders
// it together with +Inf.
func BucketBound(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	if i < 4 {
		return time.Duration(i)
	}
	k := i - 4
	o := uint(2 + k/histSubBuckets)
	sub := uint64(k % histSubBuckets)
	return time.Duration(uint64(1)<<o + (sub+1)<<(o-2) - 1)
}

// Observe records one duration. Negative durations (clock steps) are
// clamped to zero. The stripe is picked by a multiplicative hash of the
// value, so concurrent recorders of differing durations land on
// different cache lines without any per-CPU state.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveTrace(d, 0)
}

// ObserveTrace records one duration and, when trace is nonzero,
// installs it as the bucket's exemplar. The exemplar write is two
// atomic stores and happens only for traced observations, so the
// common (untraced) record path is unchanged.
func (h *Histogram) ObserveTrace(d time.Duration, trace uint64) {
	if d < 0 {
		d = 0
	}
	b := bucketOf(d)
	st := &h.stripes[(uint64(d)*0x9E3779B97F4A7C15)>>(64-3)]
	st.counts[b].Add(1)
	st.sum.Add(uint64(d))
	if trace != 0 {
		e := &h.exemplars[b]
		e.val.Store(uint64(d))
		e.id.Store(trace)
	}
}

// Exemplar links one bucket to a captured trace.
type Exemplar struct {
	// Trace is the trace ID (0: the bucket has no exemplar).
	Trace uint64
	// Value is the exemplar observation's exact duration.
	Value time.Duration
}

// HistSnapshot is a merged point-in-time view of a Histogram.
type HistSnapshot struct {
	Counts [NumHistBuckets]uint64
	Count  uint64
	Sum    time.Duration
	// Exemplars holds each bucket's latest traced observation; slots
	// with a zero Trace are empty.
	Exemplars [NumHistBuckets]Exemplar
}

// Snapshot merges every stripe's counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.counts {
			n := st.counts[b].Load()
			s.Counts[b] += n
			s.Count += n
		}
		s.Sum += time.Duration(st.sum.Load())
	}
	for b := range h.exemplars {
		e := &h.exemplars[b]
		if id := e.id.Load(); id != 0 {
			s.Exemplars[b] = Exemplar{Trace: id, Value: time.Duration(e.val.Load())}
		}
	}
	return s
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 ≤ q ≤ 1) — an over-estimate by at most one sub-bucket
// width (25% of the octave base), the precision log-linear bucketing
// buys. With no observations it returns 0.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for b, n := range s.Counts {
		cum += n
		if rank < cum {
			return BucketBound(b)
		}
	}
	return BucketBound(NumHistBuckets - 1)
}

// Mean returns the average observed duration, or 0 with no samples.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// add accumulates o into s (merging seal+open views, for example).
// Exemplars prefer s's own and take o's where s has none.
func (s *HistSnapshot) Add(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
		if s.Exemplars[i].Trace == 0 {
			s.Exemplars[i] = o.Exemplars[i]
		}
	}
	s.Count += o.Count
	s.Sum += o.Sum
}
