package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Metric families are collected at scrape time from snapshot closures,
// mirroring how the rest of the repo exposes state (Stats() snapshots,
// never live references). The exposition is the Prometheus text format,
// version 0.0.4: HELP/TYPE headers, one sample per line, histograms as
// cumulative le buckets plus _sum and _count.

// Label is one name="value" pair on a sample.
type Label struct {
	Key, Value string
}

// Sample is one exposition line: a metric name, its labels, and a value.
// A non-nil Exemplar is rendered as a comment line immediately after the
// sample (adjacency is the association) — the classic 0.0.4 text format
// has no exemplar syntax, so scrapers that don't understand the comment
// skip it, while fbsstat and humans get the trace link.
type Sample struct {
	Labels   []Label
	Value    float64
	Exemplar *Exemplar
}

// Family is one metric family: every sample shares the name and type.
// Type is "counter", "gauge" or "histogram"; histogram families carry
// pre-rendered bucket/sum/count samples (see AppendHistogram).
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Registry is an ordered set of collectors, functions that produce
// families at scrape time. Output is deterministic for a fixed
// registration order and collector output (the golden-test property):
// families appear in first-registration order, samples in collector
// order, and families with the same name emitted by multiple collectors
// are merged under a single HELP/TYPE header.
type Registry struct {
	mu         sync.Mutex
	collectors []func() []Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterFunc appends a collector function. Safe for concurrent use.
func (r *Registry) RegisterFunc(f func() []Family) {
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// WriteText renders every family in the Prometheus text format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	collectors := make([]func() []Family, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	// Merge same-named families across collectors, preserving
	// first-seen order.
	index := make(map[string]int)
	var merged []Family
	for _, collect := range collectors {
		for _, f := range collect() {
			if i, ok := index[f.Name]; ok {
				merged[i].Samples = append(merged[i].Samples, f.Samples...)
				continue
			}
			index[f.Name] = len(merged)
			merged = append(merged, f)
		}
	}
	for _, f := range merged {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if err := writeSample(w, f.Name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Text renders the registry to a string (convenience for tests/CLIs).
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

func writeSample(w io.Writer, name string, s Sample) error {
	var b strings.Builder
	b.WriteString(name)
	// Histogram bucket samples carry their own suffixed name in a label
	// with the reserved key "__name__" appended by AppendHistogram.
	labels := s.Labels
	if len(labels) > 0 && labels[0].Key == "__name__" {
		b.Reset()
		b.WriteString(labels[0].Value)
		labels = labels[1:]
	}
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Value))
	b.WriteByte('\n')
	if e := s.Exemplar; e != nil && e.Trace != 0 {
		fmt.Fprintf(&b, "# exemplar trace=%#016x value=%d\n", e.Trace, int64(e.Value))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, +Inf for infinities.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// CounterFamily builds a single-sample counter family.
func CounterFamily(name, help string, v uint64, labels ...Label) Family {
	return Family{Name: name, Help: help, Type: "counter",
		Samples: []Sample{{Labels: labels, Value: float64(v)}}}
}

// GaugeFamily builds a single-sample gauge family.
func GaugeFamily(name, help string, v float64, labels ...Label) Family {
	return Family{Name: name, Help: help, Type: "gauge",
		Samples: []Sample{{Labels: labels, Value: v}}}
}

// AppendHistogram appends one labelled histogram series (cumulative
// buckets, _sum, _count) to a histogram-typed family. Bucket bounds are
// the log-linear bucket upper bounds in nanoseconds; empty trailing
// buckets are folded into the final +Inf bucket to keep the exposition
// compact while remaining deterministic. Buckets holding a traced
// observation carry it as an exemplar comment line (see Sample).
func AppendHistogram(f *Family, s HistSnapshot, labels ...Label) {
	last := 0
	for i, n := range s.Counts {
		if n > 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += s.Counts[i]
		le := strconv.FormatUint(uint64(BucketBound(i)), 10)
		var ex *Exemplar
		if s.Exemplars[i].Trace != 0 {
			e := s.Exemplars[i]
			ex = &e
		}
		f.Samples = append(f.Samples, Sample{
			Labels:   histLabels(f.Name+"_bucket", labels, Label{Key: "le", Value: le}),
			Value:    float64(cum),
			Exemplar: ex,
		})
	}
	f.Samples = append(f.Samples,
		Sample{Labels: histLabels(f.Name+"_bucket", labels, Label{Key: "le", Value: "+Inf"}),
			Value: float64(s.Count)},
		Sample{Labels: histLabels(f.Name+"_sum", labels), Value: float64(s.Sum)},
		Sample{Labels: histLabels(f.Name+"_count", labels), Value: float64(s.Count)},
	)
}

func histLabels(name string, labels []Label, extra ...Label) []Label {
	out := make([]Label, 0, 1+len(labels)+len(extra))
	out = append(out, Label{Key: "__name__", Value: name})
	out = append(out, labels...)
	out = append(out, extra...)
	return out
}
