package obs

import (
	"fbs/internal/core"
	obstrace "fbs/internal/obs/trace"
)

// Pipeline is the one core.Tracer a binary constructs. It owns a trace
// collector — the span ring is the flight recorder, read through /traces
// — and feeds the fbs_stage_duration_ns histograms from the spans as
// they arrive, so every histogram observation is also a span in the ring
// and every bucket's exemplar is a trace ID /traces can resolve (until
// the ring wraps past it). One Pipeline may be shared by several
// endpoints (the histograms then aggregate across them) or dedicated per
// endpoint.
//
// Sampling, the gate and the ring are the collector's: with
// SetSampleEvery(0) StartTrace is a single atomic load and the endpoint
// hot path does no other observability work — the configuration under
// which BenchmarkSealOpenAllocs must still measure 0 allocs/op.
type Pipeline struct {
	*obstrace.Collector

	// hists holds one histogram per path (open, seal) and stage. Flat
	// arrays (not maps) so Span stays allocation-free.
	hists [2][len(stageNames)]Histogram
}

// The stages of fbs_stage_duration_ns, in exposition order, and their
// label values.
const (
	stageFAM = iota
	stageKeyHit
	stageKeyMiss
	stageMAC
	stageCrypt
	stageTotal
)

var stageNames = [...]string{
	stageFAM:     "fam_lookup",
	stageKeyHit:  "flowkey_hit",
	stageKeyMiss: "flowkey_miss",
	stageMAC:     "mac",
	stageCrypt:   "crypt",
	stageTotal:   "total",
}

// stageOf maps a span to the stage it timed, or -1: parse, replay,
// pre-filter, transport and link spans time no stage, and the crypto span
// is the sum of its MAC and cipher passes.
func stageOf(s core.Span) int {
	switch s.Kind {
	case core.SpanClassify:
		return stageFAM
	case core.SpanFlowKey:
		if s.Flags&core.FlagKeyHit != 0 {
			return stageKeyHit
		}
		return stageKeyMiss
	case core.SpanMAC:
		return stageMAC
	case core.SpanCipher:
		return stageCrypt
	case core.SpanSeal, core.SpanOpen:
		return stageTotal
	}
	return -1
}

// NewPipeline builds a pipeline over a fresh collector.
func NewPipeline(cfg obstrace.Config) *Pipeline {
	return &Pipeline{Collector: obstrace.New(cfg)}
}

// Span implements core.Tracer: the span goes into the ring and, when it
// timed a stage, into that stage's histogram with its trace ID as the
// bucket's exemplar. The ring write comes first, so an exemplar never
// names a trace the ring has not seen.
func (p *Pipeline) Span(s core.Span) {
	p.Collector.Span(s)
	if st := stageOf(s); st >= 0 {
		p.hist(s.Seal, st).ObserveTrace(s.Dur, uint64(s.Trace))
	}
}

func (p *Pipeline) hist(seal bool, stage int) *Histogram {
	if seal {
		return &p.hists[1][stage]
	}
	return &p.hists[0][stage]
}

// StageSnapshot returns the merged snapshot for one path and stage label
// (a stage no span feeds reads empty).
func (p *Pipeline) StageSnapshot(seal bool, stage string) HistSnapshot {
	for i, name := range stageNames {
		if name == stage {
			return p.hist(seal, i).Snapshot()
		}
	}
	return HistSnapshot{}
}
