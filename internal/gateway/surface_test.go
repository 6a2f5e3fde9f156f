package gateway

import (
	"flag"
	"os"
	"sort"
	"strings"
	"testing"

	"fbs/internal/core"
	"fbs/internal/obs"
	obstrace "fbs/internal/obs/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestMetricsSurfaceGolden pins what a scraper can see of the metric
// surface without looking at a value: every (family, type, label keys,
// help) a standalone endpoint pair and a one-tenant two-shard gateway
// put on /metrics. It uses only the registration entry points, so it
// holds a refactor of what sits behind them to the same names, types,
// help strings and label sets.
func TestMetricsSurfaceGolden(t *testing.T) {
	w := newGWWorld(t)
	replay := func(c *core.Config) { c.EnableReplayCache = true }
	a, b := w.client("peer-a", replay), w.client("peer-b", replay)
	for i := 0; i < 4; i++ {
		if err := a.SendTo("peer-b", []byte("a to b"), i%2 == 0); err != nil {
			t.Fatalf("a send: %v", err)
		}
		if _, err := b.Receive(); err != nil {
			t.Fatalf("b receive: %v", err)
		}
		if err := b.SendTo("peer-a", []byte("b to a"), true); err != nil {
			t.Fatalf("b send: %v", err)
		}
		if _, err := a.Receive(); err != nil {
			t.Fatalf("a receive: %v", err)
		}
	}

	g := w.gateway(oneTenant())
	client := w.client("client-s")
	for i := 0; i < 4; i++ {
		if err := client.SendTo("gw-edge", []byte("probe"), true); err != nil {
			t.Fatalf("send: %v", err)
		}
		if _, err := client.Receive(); err != nil {
			t.Fatalf("echo: %v", err)
		}
	}

	reg := obs.NewRegistry()
	obs.RegisterEndpoint(reg, "a", a)
	obs.RegisterEndpoint(reg, "b", b)
	g.RegisterMetrics(reg)
	got := metricsSurface(t, reg.Text())

	const path = "testdata/metrics_surface.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		has := func(doc, row string) bool { return strings.Contains("\n"+doc, "\n"+row+"\n") }
		var diff []string
		for _, row := range strings.Split(strings.TrimSpace(string(want)), "\n") {
			if !has(got, row) {
				diff = append(diff, "- "+row)
			}
		}
		for _, row := range strings.Split(strings.TrimSpace(got), "\n") {
			if !has(string(want), row) {
				diff = append(diff, "+ "+row)
			}
		}
		t.Fatalf("metric surface changed (-update rewrites %s):\n%s", path, strings.Join(diff, "\n"))
	}
}

// metricsSurface reduces a text exposition to its sorted set of
// "family<TAB>type<TAB>label keys<TAB>help" rows, one per distinct label-key
// tuple a family's samples carry.
func metricsSurface(t *testing.T, exposition string) string {
	t.Helper()
	help, typ := map[string]string{}, map[string]string{}
	rows := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		var keys []string
		for _, kv := range strings.Split(labels, `",`) {
			if k, _, ok := strings.Cut(kv, "="); ok {
				keys = append(keys, k)
			}
		}
		if _, ok := typ[name]; !ok {
			t.Fatalf("sample %q precedes its TYPE header", line)
		}
		rows[name+"\t"+typ[name]+"\t"+strings.Join(keys, ",")+"\t"+help[name]] = true
	}
	for name := range typ {
		// A family with no sample yet still shows its header.
		seen := false
		for r := range rows {
			seen = seen || strings.HasPrefix(r, name+"\t")
		}
		if !seen {
			rows[name+"\t"+typ[name]+"\t-\t"+help[name]] = true
		}
	}
	out := make([]string, 0, len(rows))
	for r := range rows {
		out = append(out, r)
	}
	sort.Strings(out)
	return strings.Join(out, "\n") + "\n"
}

// TestObservabilityDocListsEveryFamily holds docs/OBSERVABILITY.md's
// metric table to what is emitted: every family the registration entry
// points put on /metrics has a row (by name, or under a `fbs_x_*`
// wildcard row), and every name a row spells out is emitted. A row may
// abbreviate `fbs_<subsystem>_a`, `_b` for fbs_<subsystem>_b.
func TestObservabilityDocListsEveryFamily(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	var wildcards []string
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `fbs_") {
			continue
		}
		cell, _, _ := strings.Cut(line[2:], " | ")
		subsystem := ""
		for i, part := range strings.Split(cell, "`") {
			if i%2 == 0 { // outside backticks
				continue
			}
			name, _, _ := strings.Cut(part, "{")
			switch {
			case strings.HasSuffix(name, "_*"):
				wildcards = append(wildcards, strings.TrimSuffix(name, "*"))
			case strings.HasPrefix(name, "fbs_"):
				words := strings.SplitN(name, "_", 3)
				subsystem = words[0] + "_" + words[1]
				documented[name] = true
			case strings.HasPrefix(name, "_") && subsystem != "":
				documented[subsystem+name] = true
			}
		}
	}
	if len(documented) < 73 {
		t.Fatalf("parsed only %d families out of the table; has its format changed?", len(documented))
	}

	w := newGWWorld(t)
	pipe := obs.NewPipeline(obstrace.Config{})
	reg := obs.NewRegistry()
	obs.RegisterEndpoint(reg, "a", w.client("doc-peer"))
	obs.RegisterPipeline(reg, "p", pipe)
	w.gateway(oneTenant()).RegisterMetrics(reg)

	emitted := map[string]bool{}
	for _, line := range strings.Split(reg.Text(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			emitted[name] = true
		}
	}
	for name := range emitted {
		covered := documented[name]
		for _, prefix := range wildcards {
			covered = covered || strings.HasPrefix(name, prefix)
		}
		if !covered {
			t.Errorf("%s is emitted but has no row in docs/OBSERVABILITY.md", name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which nothing emits", name)
		}
	}
}
