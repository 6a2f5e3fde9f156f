package trace

import "sort"

// Record is one collected span, rendered with canonical string labels
// so JSON consumers (the /traces admin endpoint, fbsstat trace, CI
// artifacts) never see raw enum values.
type Record struct {
	// Trace is the trace ID the span belongs to.
	Trace uint64 `json:"trace"`
	// Kind is the pipeline step (core.SpanKind's canonical name).
	Kind string `json:"kind"`
	// Seal is true for send-side spans.
	Seal bool `json:"seal,omitempty"`
	// Drop is the step's refusal verdict ("" when the step passed).
	Drop string `json:"drop,omitempty"`
	// Flags are the step's boolean annotations, canonical names.
	Flags []string `json:"flags,omitempty"`
	// SFL is the flow label when known at this step.
	SFL uint64 `json:"sfl,omitempty"`
	// StartNs is the step's wall-clock start (UnixNano; 0 if unknown).
	StartNs int64 `json:"start_ns,omitempty"`
	// DurNs is the step's duration (for link spans: modelled delay).
	DurNs int64 `json:"dur_ns"`
	// Attr is the kind-specific scalar (payload length, body length, ...).
	Attr uint64 `json:"attr,omitempty"`

	// seq is the collector write ticket; it orders spans without
	// trusting the wall clock (spans from two endpoints of one netsim
	// link share a process but not necessarily monotonic Starts).
	seq uint64
}

// Trace is one datagram's assembled journey.
type Trace struct {
	// ID is the trace ID.
	ID uint64 `json:"trace"`
	// StartNs is the earliest span start (0 if no span carried a time).
	StartNs int64 `json:"start_ns,omitempty"`
	// Drop is the final verdict: the last nonempty span Drop, "" when
	// the datagram was delivered (or its terminal span is missing).
	Drop string `json:"drop,omitempty"`
	// SFL is the flow label, taken from any span that knew it.
	SFL uint64 `json:"sfl,omitempty"`
	// Spans are the trace's spans in collection order.
	Spans []Record `json:"spans"`
}

// Report is the JSON document served by /traces and dumped to CI
// artifacts.
type Report struct {
	// Started / Recorded / Dropped are collector totals (traces begun,
	// spans published, spans shed) — they reveal how much the ring has
	// forgotten.
	Started  uint64  `json:"started"`
	Recorded uint64  `json:"recorded"`
	Dropped  uint64  `json:"dropped,omitempty"`
	Traces   []Trace `json:"traces"`
}

// NewReport assembles the collector's current content.
func NewReport(c *Collector) Report {
	return Report{Started: c.Started(), Recorded: c.Recorded(),
		Dropped: c.Dropped(), Traces: c.Traces()}
}

func sortRecords(rs []Record) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].seq < rs[j].seq })
}

// finish derives the trace-level summary fields from the spans.
func (t *Trace) finish() {
	for _, s := range t.Spans {
		if s.StartNs != 0 && (t.StartNs == 0 || s.StartNs < t.StartNs) {
			t.StartNs = s.StartNs
		}
		if s.Drop != "" {
			t.Drop = s.Drop
		}
		if s.SFL != 0 && t.SFL == 0 {
			t.SFL = s.SFL
		}
	}
}
