// Package trace collects per-datagram traces from the FBS pipeline.
//
// It is the standard implementation of core.Tracer: a wait-free span
// ring fed by every instrumented step of a sampled datagram's journey —
// seal-side classification, flow-key derivation, the suite transform
// and transport handoff, netsim's link fault model, and the peer's
// open path down to the deliver-or-drop verdict. Because the trace ID
// rides transport.Datagram metadata, one trace shows both endpoints of
// a connection plus the link event that killed the datagram in between.
//
// The collector follows the package obs concurrency rules: recording a
// span is a ticketed seqlock write into a fixed ring (atomics only, no
// locks, no allocation), and StartTrace with sampling disabled is a
// single atomic load — the configuration under which the endpoint hot
// path must stay at 0 allocs/op.
package trace

import (
	"sync/atomic"

	"fbs/internal/core"
	"fbs/internal/transport"
)

// DefaultRingSize is the span-ring capacity used when Config.RingSize
// is zero. A complete two-endpoint trace is at most ~10 spans, so 4096
// holds the last few hundred traces.
const DefaultRingSize = 4096

// slot is one ring entry. Every field is an independent atomic so the
// seqlock protocol is also race-detector-clean: writers publish with
// seq odd→fields→seq even, readers retry/discard on a seq mismatch.
// All span payload is packed into scalar words — no pointers, so a
// torn write can never tear an address.
type slot struct {
	// seq is the slot's seqlock word: 0 never written, 2*ticket-1 (odd)
	// while ticket's writer owns the slot, 2*ticket (even) once stable.
	seq   atomic.Uint64
	trace atomic.Uint64
	start atomic.Int64 // UnixNano; 0 for a zero time.Time
	dur   atomic.Int64
	attr  atomic.Uint64
	sfl   atomic.Uint64
	// meta packs kind (bits 0..7), seal (bit 8), drop (bits 16..23)
	// and flags (bits 32..63).
	meta atomic.Uint64
	_    [8]byte // pad to 64 bytes so adjacent slots do not false-share
}

func packMeta(s core.Span) uint64 {
	m := uint64(s.Kind) | uint64(s.Drop)<<16 | uint64(s.Flags)<<32
	if s.Seal {
		m |= 1 << 8
	}
	return m
}

// Config configures a Collector.
type Config struct {
	// SampleEvery starts a trace on every Nth sealed datagram: 1 traces
	// everything, 0 disables tracing (the default, and the mode under
	// which the seal path must not allocate).
	SampleEvery int
	// RingSize is the span-ring capacity, rounded up to a power of two;
	// 0 selects DefaultRingSize.
	RingSize int
}

// Collector implements core.Tracer over a fixed ring of span slots.
// One Collector may serve several endpoints (netsim wires one across
// both ends of a simulated link so traces span the whole path).
//
// The ring keeps the newest spans: when it wraps, the oldest spans are
// overwritten mid-trace if need be — a flight-recorder, not an archive.
// A writer claims its slot by CAS, so exactly one writer ever mutates a
// slot at a time and a stable (even) seq always covers a consistent
// span; a writer that finds its slot still owned — the ring lapped a
// stalled writer — drops its span and counts it in Dropped rather than
// tear the slot.
type Collector struct {
	sampleEvery atomic.Uint64
	tick        atomic.Uint64
	ids         atomic.Uint64
	next        atomic.Uint64 // write tickets, 1-based
	dropped     atomic.Uint64

	mask  uint64
	slots []slot
}

// New builds a collector.
func New(cfg Config) *Collector {
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	// Round up to a power of two for mask indexing.
	n := 1
	for n < size {
		n <<= 1
	}
	c := &Collector{mask: uint64(n - 1), slots: make([]slot, n)}
	c.SetSampleEvery(cfg.SampleEvery)
	return c
}

// SetSampleEvery changes the sampling rate at runtime (0 disables).
func (c *Collector) SetSampleEvery(n int) {
	if n < 0 {
		n = 0
	}
	c.sampleEvery.Store(uint64(n))
}

// StartTrace implements core.Tracer: it allocates a fresh trace ID for
// every Nth datagram, 0 otherwise. Disabled sampling costs one atomic
// load and nothing else.
func (c *Collector) StartTrace() transport.TraceID {
	n := c.sampleEvery.Load()
	if n == 0 {
		return 0
	}
	if c.tick.Add(1)%n != 0 {
		return 0
	}
	return transport.TraceID(c.ids.Add(1))
}

// Span implements core.Tracer: it claims the next ring slot by ticket
// and publishes the span under the slot's seqlock. Wait-free and
// allocation-free; if the slot is still owned by a stalled earlier
// writer (the ring wrapped within one publish), the span is dropped.
func (c *Collector) Span(s core.Span) {
	t := c.next.Add(1)
	sl := &c.slots[(t-1)&c.mask]
	cur := sl.seq.Load()
	if cur%2 == 1 || !sl.seq.CompareAndSwap(cur, 2*t-1) {
		c.dropped.Add(1)
		return
	}
	sl.trace.Store(uint64(s.Trace))
	var start int64
	if !s.Start.IsZero() {
		start = s.Start.UnixNano()
	}
	sl.start.Store(start)
	sl.dur.Store(int64(s.Dur))
	sl.attr.Store(s.Attr)
	sl.sfl.Store(uint64(s.SFL))
	sl.meta.Store(packMeta(s))
	sl.seq.Store(2 * t)
}

// Recorded returns how many spans have been published in total
// (including those the ring has since overwritten).
func (c *Collector) Recorded() uint64 { return c.next.Load() - c.dropped.Load() }

// Dropped returns how many spans were shed because their ring slot was
// still owned by a stalled writer.
func (c *Collector) Dropped() uint64 { return c.dropped.Load() }

// Started returns how many traces have been started.
func (c *Collector) Started() uint64 { return c.ids.Load() }

// Snapshot reads every stable slot into records, ordered by write
// ticket (emission order). Slots a writer is mid-publish on, or that
// change under the read, are skipped — the reader never blocks a
// writer and never returns torn data.
func (c *Collector) Snapshot() []Record {
	out := make([]Record, 0, len(c.slots))
	for i := range c.slots {
		sl := &c.slots[i]
		seq1 := sl.seq.Load()
		if seq1 == 0 || seq1%2 == 1 {
			continue
		}
		r := Record{
			seq:     seq1 / 2,
			Trace:   sl.trace.Load(),
			StartNs: sl.start.Load(),
			DurNs:   sl.dur.Load(),
			Attr:    sl.attr.Load(),
			SFL:     sl.sfl.Load(),
		}
		meta := sl.meta.Load()
		if sl.seq.Load() != seq1 {
			continue
		}
		kind := core.SpanKind(meta & 0xff)
		drop := core.DropReason((meta >> 16) & 0xff)
		flags := core.SpanFlags(meta >> 32)
		r.Kind = kind.String()
		r.Seal = meta&(1<<8) != 0
		if drop != core.DropNone {
			r.Drop = drop.String()
		}
		r.Flags = flags.Names()
		out = append(out, r)
	}
	sortRecords(out)
	return out
}

// Traces groups the snapshot into per-trace views, spans in emission
// order within each trace, traces ordered by first appearance. Traces
// whose early spans the ring already overwrote still appear with what
// remains.
func (c *Collector) Traces() []Trace {
	recs := c.Snapshot()
	index := make(map[uint64]int)
	var out []Trace
	for _, r := range recs {
		i, ok := index[r.Trace]
		if !ok {
			i = len(out)
			index[r.Trace] = i
			out = append(out, Trace{ID: r.Trace})
		}
		out[i].Spans = append(out[i].Spans, r)
	}
	for i := range out {
		out[i].finish()
	}
	return out
}
