package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fbs/internal/core"
	obstrace "fbs/internal/obs/trace"
)

// Admin is the opt-in introspection plane: an HTTP mux serving
//
//	/metrics   Prometheus text exposition of the registry
//	/flows     live FAM entries and cache occupancy, netstat-style
//	           (?json=1 for machine-readable output)
//	/traces    the flight recorder: assembled per-datagram traces from
//	           watched collectors, oldest first, waterfall-style
//	           (?json=1, ?n=K newest traces)
//	/debug/pprof/...  the standard runtime profiles
//
// It binds nothing by itself — callers decide the listen address via
// Serve, and the docs (docs/OBSERVABILITY.md) spell out why that
// address should be loopback: the plane is unauthenticated and exposes
// flow metadata and pprof.
type Admin struct {
	Registry *Registry

	// ShutdownTimeout bounds how long Serve's stop function waits for
	// in-flight requests (a /metrics scrape, a streaming pprof profile)
	// to complete before cutting them off. Zero means 5 seconds.
	ShutdownTimeout time.Duration

	mu        sync.Mutex
	endpoints []adminEndpoint
	tracers   []*obstrace.Collector
	extra     []adminRoute
}

type adminEndpoint struct {
	name string
	ep   *core.Endpoint
}

type adminRoute struct {
	pattern string
	h       http.Handler
}

// NewAdmin builds an admin plane over a registry (nil allocates a fresh
// one).
func NewAdmin(reg *Registry) *Admin {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Admin{Registry: reg}
}

// WatchEndpoint adds an endpoint to /flows. It does not register
// metrics collectors — pair with RegisterEndpoint for that.
func (a *Admin) WatchEndpoint(name string, ep *core.Endpoint) {
	a.mu.Lock()
	a.endpoints = append(a.endpoints, adminEndpoint{name: name, ep: ep})
	a.mu.Unlock()
}

// WatchTracer adds a trace collector to /traces.
func (a *Admin) WatchTracer(c *obstrace.Collector) {
	if c == nil {
		return
	}
	a.mu.Lock()
	a.tracers = append(a.tracers, c)
	a.mu.Unlock()
}

// Handle mounts an additional handler on the admin mux (the gateway's
// /config API rides this seam). Mount before calling Handler or Serve:
// routes added later are only picked up by muxes built afterwards.
func (a *Admin) Handle(pattern string, h http.Handler) {
	a.mu.Lock()
	a.extra = append(a.extra, adminRoute{pattern: pattern, h: h})
	a.mu.Unlock()
}

// Handler returns the admin mux.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.serveMetrics)
	mux.HandleFunc("/flows", a.serveFlows)
	mux.HandleFunc("/traces", a.serveTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.mu.Lock()
	for _, r := range a.extra {
		mux.Handle(r.pattern, r.h)
	}
	a.mu.Unlock()
	return mux
}

// Serve listens on addr (e.g. "127.0.0.1:0") and serves the admin plane
// in a background goroutine. It returns the bound address and a stop
// function. The stop is graceful: it stops accepting, then waits up to
// ShutdownTimeout for in-flight requests — a half-written /metrics
// scrape, a pprof profile mid-stream — to complete before falling back
// to a hard Close. A scrape racing a shutdown therefore sees a complete
// body or a refused connection, never a truncated one.
func (a *Admin) Serve(addr string) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: a.Handler()}
	go func() { _ = srv.Serve(ln) }()
	timeout := a.ShutdownTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Stragglers outlived the deadline; cut the cord.
			return srv.Close()
		}
		return nil
	}
	return ln.Addr(), stop, nil
}

func (a *Admin) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.Registry.WriteText(w)
}

// FlowsReport is the machine-readable /flows payload.
type FlowsReport struct {
	Endpoints []EndpointFlows `json:"endpoints"`
}

// EndpointFlows is one endpoint's slice of the /flows payload.
type EndpointFlows struct {
	Name   string            `json:"name"`
	Flows  []core.FlowInfo   `json:"flows"`
	Caches []core.CacheInfo  `json:"caches"`
	Drops  map[string]uint64 `json:"drops"`
}

func (a *Admin) flowsReport() FlowsReport {
	a.mu.Lock()
	eps := make([]adminEndpoint, len(a.endpoints))
	copy(eps, a.endpoints)
	a.mu.Unlock()

	var rep FlowsReport
	for _, ae := range eps {
		flows := ae.ep.Flows()
		sort.Slice(flows, func(i, j int) bool { return flows[i].SFL < flows[j].SFL })
		s := ae.ep.Snapshot()
		rep.Endpoints = append(rep.Endpoints, EndpointFlows{
			Name:   ae.name,
			Flows:  flows,
			Caches: s.Caches[:],
			Drops:  core.DropMap(s.Drops),
		})
	}
	return rep
}

func (a *Admin) serveFlows(w http.ResponseWriter, r *http.Request) {
	rep := a.flowsReport()
	if r.URL.Query().Get("json") != "" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rep)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	WriteFlowsText(w, rep)
}

// WriteFlowsText renders a FlowsReport netstat-style (shared with
// cmd/fbsstat).
func WriteFlowsText(w interface{ Write([]byte) (int, error) }, rep FlowsReport) {
	for _, ep := range rep.Endpoints {
		fmt.Fprintf(w, "Endpoint %s: %d active flows\n", ep.Name, len(ep.Flows))
		if len(ep.Flows) > 0 {
			fmt.Fprintf(w, "  %-18s %-6s %-42s %-8s %-10s %s\n",
				"SFL", "PROTO", "SRC->DST", "PACKETS", "BYTES", "IDLE")
		}
		for _, f := range ep.Flows {
			route := fmt.Sprintf("%s:%d->%s:%d", f.ID.Src, f.ID.SrcPort, f.ID.Dst, f.ID.DstPort)
			idle := time.Duration(0)
			if !f.Last.IsZero() {
				idle = time.Since(f.Last).Round(time.Millisecond)
			}
			fmt.Fprintf(w, "  %-18x %-6d %-42s %-8d %-10d %s\n",
				uint64(f.SFL), f.ID.Proto, route, f.Packets, f.Bytes, idle)
		}
		for _, c := range ep.Caches {
			fmt.Fprintf(w, "  cache %-5s %4d/%-4d slots  hits=%d misses=%d installs=%d evictions=%d\n",
				c.Name, c.Used, c.Slots, c.Stats.Hits, c.Stats.Misses, c.Stats.Installs, c.Stats.Evictions)
		}
		if len(ep.Drops) > 0 {
			keys := make([]string, 0, len(ep.Drops))
			for k := range ep.Drops {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "  drop %-10s %d\n", k, ep.Drops[k])
			}
		}
	}
}

func (a *Admin) tracesReport(limit int) obstrace.Report {
	a.mu.Lock()
	cols := make([]*obstrace.Collector, len(a.tracers))
	copy(cols, a.tracers)
	a.mu.Unlock()

	var rep obstrace.Report
	for _, c := range cols {
		r := obstrace.NewReport(c)
		rep.Started += r.Started
		rep.Recorded += r.Recorded
		rep.Dropped += r.Dropped
		rep.Traces = append(rep.Traces, r.Traces...)
	}
	// Each collector lists its own traces oldest first; merged, "the
	// newest K" means by start time across all of them.
	sort.SliceStable(rep.Traces, func(i, j int) bool {
		x, y := rep.Traces[i], rep.Traces[j]
		if x.StartNs != y.StartNs {
			return x.StartNs < y.StartNs
		}
		return x.ID < y.ID
	})
	if limit > 0 && len(rep.Traces) > limit {
		rep.Traces = rep.Traces[len(rep.Traces)-limit:]
	}
	return rep
}

func (a *Admin) serveTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if s := r.URL.Query().Get("n"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			limit = n
		}
	}
	rep := a.tracesReport(limit)
	if r.URL.Query().Get("json") != "" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rep)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	WriteTracesText(w, rep)
}

// waterfallWidth is the bar width WriteTracesText scales each trace's
// span offsets into.
const waterfallWidth = 24

// WriteTracesText renders a trace report as per-trace waterfalls
// (shared with cmd/fbsstat's trace subcommand). Each span line shows
// the step, its side, its offset from the trace's first timestamp, its
// duration, a proportional bar, and the step's annotations.
func WriteTracesText(w interface{ Write([]byte) (int, error) }, rep obstrace.Report) {
	fmt.Fprintf(w, "%d traces started, %d spans recorded", rep.Started, rep.Recorded)
	if rep.Dropped > 0 {
		fmt.Fprintf(w, " (%d shed)", rep.Dropped)
	}
	fmt.Fprintf(w, ", %d traces assembled\n", len(rep.Traces))
	for _, t := range rep.Traces {
		verdict := "ok"
		if t.Drop != "" {
			verdict = "drop:" + t.Drop
		}
		fmt.Fprintf(w, "trace %016x sfl=%x spans=%d %s\n", t.ID, t.SFL, len(t.Spans), verdict)
		// The waterfall scale: earliest start to latest end among
		// spans that carry a wall-clock time.
		var lo, hi int64
		for _, s := range t.Spans {
			if s.StartNs == 0 {
				continue
			}
			if lo == 0 || s.StartNs < lo {
				lo = s.StartNs
			}
			if end := s.StartNs + s.DurNs; end > hi {
				hi = end
			}
		}
		span := hi - lo
		for _, s := range t.Spans {
			side := "open"
			switch {
			case s.Kind == "link":
				side = "link"
			case s.Seal:
				side = "seal"
			}
			var off int64
			if s.StartNs != 0 {
				off = s.StartNs - lo
			}
			bar := waterfallBar(off, s.DurNs, span)
			line := fmt.Sprintf("  %-4s %-14s +%-10s %-10s |%s|", side, s.Kind,
				time.Duration(off), time.Duration(s.DurNs), bar)
			if s.Drop != "" {
				line += " drop:" + s.Drop
			}
			if len(s.Flags) > 0 {
				line += " [" + strings.Join(s.Flags, ",") + "]"
			}
			if s.Attr != 0 {
				line += fmt.Sprintf(" attr=%d", s.Attr)
			}
			fmt.Fprintln(w, line)
		}
	}
}

// waterfallBar renders a span's position within the trace as a
// fixed-width bar: spaces before the offset, '=' across the duration
// (at least one '-' marker for instantaneous spans).
func waterfallBar(off, dur, span int64) string {
	b := []byte(strings.Repeat(" ", waterfallWidth))
	if span <= 0 {
		b[0] = '-'
		return string(b)
	}
	from := int(off * waterfallWidth / span)
	to := int((off + dur) * waterfallWidth / span)
	if from >= waterfallWidth {
		from = waterfallWidth - 1
	}
	if to > waterfallWidth {
		to = waterfallWidth
	}
	if to <= from {
		b[from] = '-'
		return string(b)
	}
	for i := from; i < to; i++ {
		b[i] = '='
	}
	return string(b)
}
