package obs

import (
	"sync/atomic"
	"time"

	"fbs/internal/core"
)

// Pipeline implements core.Observer: it is the glue between an
// endpoint's sampled packet telemetry and this package's histograms and
// flight recorder. One Pipeline may be shared by several endpoints (the
// histograms then aggregate across them) or dedicated per endpoint.
//
// Sampling is 1-in-N: SetSampleEvery(0) disables sampling entirely, in
// which case Sample() is a single atomic load and the endpoint hot path
// does no other observability work — the configuration under which
// BenchmarkSealOpenAllocs must still measure 0 allocs/op.
type Pipeline struct {
	sampleEvery atomic.Uint64
	tick        atomic.Uint64

	// seal/open hold one histogram per pipeline stage; indexed by
	// core.Stage. Flat arrays (not maps) so Packet() stays
	// allocation-free.
	seal [core.NumStages]Histogram
	open [core.NumStages]Histogram

	rec *Recorder
}

// PipelineConfig configures a Pipeline.
type PipelineConfig struct {
	// SampleEvery samples every Nth packet: 1 samples everything, 0
	// disables sampling (the default).
	SampleEvery int
	// RecorderSize is the flight-recorder ring capacity; 0 selects
	// DefaultRecorderSize, negative disables the recorder.
	RecorderSize int
}

// NewPipeline builds a pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	p := &Pipeline{}
	if cfg.RecorderSize >= 0 {
		p.rec = NewRecorder(cfg.RecorderSize)
	}
	p.SetSampleEvery(cfg.SampleEvery)
	return p
}

// SetSampleEvery changes the sampling rate at runtime (0 disables).
func (p *Pipeline) SetSampleEvery(n int) {
	if n < 0 {
		n = 0
	}
	p.sampleEvery.Store(uint64(n))
}

// Sample implements core.Observer. With sampling disabled it is one
// atomic load; enabled, it counts packets and fires every Nth.
func (p *Pipeline) Sample() bool {
	n := p.sampleEvery.Load()
	if n == 0 {
		return false
	}
	return p.tick.Add(1)%n == 0
}

// Packet implements core.Observer: it feeds the stage histograms and
// the flight recorder. The sample arrives by value and the histograms
// are flat arrays, so this allocates nothing.
func (p *Pipeline) Packet(s core.PacketSample) {
	hs := &p.open
	if s.Seal {
		hs = &p.seal
	}
	for i, d := range s.Stages {
		if d > 0 {
			// A nonzero s.Trace links the observation to a captured
			// trace: the bucket remembers it as its exemplar, so a hot
			// latency bucket points at a concrete datagram's waterfall.
			hs[i].ObserveTrace(d, uint64(s.Trace))
		}
	}
	if p.rec != nil {
		p.rec.Record(s, time.Now())
	}
}

// Hist returns the histogram for one path (seal or open) and stage.
func (p *Pipeline) Hist(seal bool, st core.Stage) *Histogram {
	if seal {
		return &p.seal[st]
	}
	return &p.open[st]
}

// Recorder returns the flight recorder (nil when disabled).
func (p *Pipeline) Recorder() *Recorder { return p.rec }

// StageSnapshot returns the merged snapshot for one path and stage.
func (p *Pipeline) StageSnapshot(seal bool, st core.Stage) HistSnapshot {
	return p.Hist(seal, st).Snapshot()
}
