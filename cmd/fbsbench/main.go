// Command fbsbench regenerates Figure 8: ttcp and rcp throughput for
// GENERIC (stock IP), FBS NOP (nullified crypto) and FBS DES+MD5 on the
// calibrated Pentium-133 / 10 Mb Ethernet model, while running the real
// protocol code of every configuration on every simulated packet.
//
// With -native it also measures raw Seal/Open throughput of the real
// implementation on the local machine.
//
// With -suites it instead measures the native Seal/Open throughput of
// every data-carrying suite in the registry (DES, 3DES and the AEAD
// suites), emitting a standalone "suites" section that make ci-bench
// validates with fbsstat and gates against BENCH_trajectory.json.
//
// These are in-process library loops. What the product sustains on real
// sockets — the batched receive/open/seal/send plane included — is
// bench/gwbench's job, and the full IPv4 + TCP-lite stack's is
// BenchmarkFigure8FullStack's.
//
// Usage:
//
//	fbsbench [-bytes N] [-native] [-json]
//	fbsbench -suites [-json]
//
// With -json the human-readable tables are suppressed and one JSON
// document with every measured throughput (in kb/s) is written to
// stdout, for consumption by scripts and regression harnesses. Every
// row carries the runner's fingerprint (CPU model, CPU count, kernel,
// Go version), which fbsstat bench-compare gates by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fbs/internal/baseline"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/flowsim"
	"fbs/internal/netsim"
	"fbs/internal/obs"
	obstrace "fbs/internal/obs/trace"
	"fbs/internal/transport"

	fbs "fbs"
)

// latencyStats summarises one latency histogram for the -json output.
// Values are nanoseconds; percentiles are log-linear bucket upper bounds
// (four sub-buckets per power of two: over-estimates by at most 25 %).
type latencyStats struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P95Ns  int64  `json:"p95_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

func summarize(s obs.HistSnapshot) *latencyStats {
	if s.Count == 0 {
		return nil
	}
	return &latencyStats{
		Count:  s.Count,
		MeanNs: int64(s.Mean()),
		P50Ns:  int64(s.Quantile(0.50)),
		P95Ns:  int64(s.Quantile(0.95)),
		P99Ns:  int64(s.Quantile(0.99)),
	}
}

// benchResult is one measured throughput, the unit of the -json output.
type benchResult struct {
	// Section is "figure8", "native" or "suites".
	Section string `json:"section"`
	// Workload is the figure-8 workload ("ttcp", "rcp"); empty
	// elsewhere.
	Workload string `json:"workload,omitempty"`
	// Config names the protocol configuration measured.
	Config string `json:"config"`
	// Kbps is application-payload throughput in kilobits per second.
	Kbps float64 `json:"kbps"`
	// SealLatency/OpenLatency are per-call latency tails where the
	// section runs real protocol code. In the figure8 section the same
	// per-config summary (aggregated over both workloads) is attached
	// to each of that config's rows.
	SealLatency *latencyStats `json:"seal_latency,omitempty"`
	OpenLatency *latencyStats `json:"open_latency,omitempty"`
	// Host is the runner's fingerprint, the same on every row of a
	// document: fbsstat bench-compare gates a row only against rows
	// from the same fingerprint.
	Host *runnerHost `json:"host,omitempty"`
}

// runnerHost fingerprints the machine a document was measured on. Its
// fields are bench/gwbench's host fields, under the same names.
type runnerHost struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Kernel string `json:"kernel"`
	Go     string `json:"go"`
}

// hostOf reads this machine's fingerprint: the CPU model name from
// /proc/cpuinfo and the kernel release, "unknown" where they cannot be
// read.
func hostOf() runnerHost {
	h := runnerHost{CPU: "unknown", NProc: runtime.NumCPU(), Kernel: "unknown", Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// withHost stamps every row of a document with this machine's
// fingerprint.
func withHost(rows []benchResult) []benchResult {
	h := hostOf()
	for i := range rows {
		rows[i].Host = &h
	}
	return rows
}

// The whole flag surface; TestFlagSurface pins it.
var (
	total     = flag.Int("bytes", 4<<20, "bytes per simulated transfer")
	native    = flag.Bool("native", false, "also measure native Seal/Open throughput")
	suites    = flag.Bool("suites", false, "measure every registered suite's native Seal/Open throughput instead of the figure-8 simulation")
	jsonOut   = flag.Bool("json", false, "emit one JSON document of kb/s results instead of tables")
	adminAddr = flag.String("admin", "", "serve the observability admin plane (/metrics, /flows, /traces, pprof) on this address and wait after the run")
)

func main() {
	flag.Parse()

	var admin *obs.Admin
	if *adminAddr != "" {
		admin = obs.NewAdmin(nil)
		bound, _, err := admin.Serve(*adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fbsbench: admin plane at http://%s/\n", bound)
	}

	var results []benchResult
	var err error
	if *suites {
		results, err = suitesRun(*jsonOut, admin)
	} else {
		results, err = run(*total, *native, *jsonOut, admin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbsbench:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(withHost(results)); err != nil {
			fmt.Fprintln(os.Stderr, "fbsbench:", err)
			os.Exit(1)
		}
	}
	if admin != nil {
		fmt.Fprintln(os.Stderr, "fbsbench: run complete; admin plane still serving (Ctrl-C to exit)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}

// endpointPair builds two FBS endpoints in one domain for inline
// protocol execution inside the simulator.
func endpointPair(mutate ...func(*core.Config)) (*core.Endpoint, *core.Endpoint, error) {
	d, err := fbs.NewDomain("fbsbench", fbs.WithGroup(cryptolib.TestGroup))
	if err != nil {
		return nil, nil, err
	}
	net := fbs.NewNetwork(fbs.Impairments{})
	mk := func(addr fbs.Address) (*core.Endpoint, error) {
		return d.NewEndpoint(addr, net, func(c *core.Config) {
			for _, m := range mutate {
				m(c)
			}
		})
	}
	a, err := mk("sim-a")
	if err != nil {
		return nil, nil, err
	}
	b, err := mk("sim-b")
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// fbsSealer adapts an endpoint pair to the baseline.Sealer interface
// used by the simulator.
type fbsSealer struct {
	name   string
	ep     *core.Endpoint
	secret bool
}

func (f fbsSealer) Name() string { return f.name }
func (f fbsSealer) Seal(dg transport.Datagram, _ bool) (transport.Datagram, error) {
	return f.ep.Seal(dg, f.secret)
}
func (f fbsSealer) Open(dg transport.Datagram) (transport.Datagram, error) {
	return f.ep.Open(dg)
}

func run(total int, native, quiet bool, admin *obs.Admin) ([]benchResult, error) {
	a, b, err := endpointPair()
	if err != nil {
		return nil, err
	}
	defer a.Close()
	defer b.Close()
	// A true NOP pair: MAC and encryption nullified, everything else
	// (FAM, keying, caches, header) running for real.
	nopA, nopB, err := endpointPair(func(c *core.Config) { c.MAC = cryptolib.MACNull })
	if err != nil {
		return nil, err
	}
	defer nopA.Close()
	defer nopB.Close()
	if admin != nil {
		obs.RegisterEndpoint(admin.Registry, "figure8-fbs-a", a)
		obs.RegisterEndpoint(admin.Registry, "figure8-fbs-b", b)
		obs.RegisterEndpoint(admin.Registry, "figure8-nop-a", nopA)
		obs.RegisterEndpoint(admin.Registry, "figure8-nop-b", nopB)
		admin.WatchEndpoint("figure8-fbs-a", a)
		admin.WatchEndpoint("figure8-nop-a", nopA)
	}

	configs := []string{"GENERIC", "FBS NOP", "FBS DES+MD5"}
	sealHists := make(map[string]*obs.Histogram, len(configs))
	openHists := make(map[string]*obs.Histogram, len(configs))
	for _, c := range configs {
		sealHists[c] = &obs.Histogram{}
		openHists[c] = &obs.Histogram{}
	}
	rows, err := netsim.Figure8(netsim.Figure8Config{
		TotalBytes: total,
		Sealers: map[string][2]baseline.Sealer{
			// Every configuration runs real code per simulated packet.
			"GENERIC": {baseline.Generic{}, baseline.Generic{}},
			"FBS NOP": {
				fbsSealer{name: "FBS NOP", ep: nopA},
				fbsSealer{name: "FBS NOP", ep: nopB},
			},
			"FBS DES+MD5": {
				fbsSealer{name: "FBS", ep: a, secret: true},
				fbsSealer{name: "FBS", ep: b},
			},
		},
		SealHists: sealHists,
		OpenHists: openHists,
	})
	if err != nil {
		return nil, err
	}
	var results []benchResult
	for _, r := range rows {
		results = append(results, benchResult{
			Section: "figure8", Workload: r.Workload, Config: r.Config, Kbps: r.Kbps,
			SealLatency: summarize(sealHists[r.Config].Snapshot()),
			OpenLatency: summarize(openHists[r.Config].Snapshot()),
		})
	}
	if !quiet {
		fmt.Printf("Figure 8 — throughput on simulated P133s / dedicated 10 Mb Ethernet (%d MB transfers)\n", total>>20)
		fmt.Printf("paper reference: ttcp GENERIC ~7700 kb/s, ttcp FBS DES+MD5 ~3400 kb/s\n\n")
		hdr := []string{"workload", "configuration", "throughput (kb/s)"}
		var tbl [][]string
		for _, r := range rows {
			tbl = append(tbl, []string{r.Workload, r.Config, fmt.Sprintf("%.0f", r.Kbps)})
		}
		fmt.Println(flowsim.RenderTable(hdr, tbl))
		fmt.Printf("real protocol work performed inside the simulation: %d datagrams sealed, %d opened\n\n",
			a.Snapshot().FAM.Lookups, b.Snapshot().Received)
		fmt.Println("Per-call latency of the real protocol code inside the simulation (log-linear bucket percentiles):")
		lhdr := []string{"configuration", "path", "count", "mean", "p50", "p95", "p99"}
		var ltbl [][]string
		for _, c := range configs {
			for _, pth := range []struct {
				name string
				h    *obs.Histogram
			}{{"seal", sealHists[c]}, {"open", openHists[c]}} {
				s := summarize(pth.h.Snapshot())
				if s == nil {
					continue
				}
				ltbl = append(ltbl, []string{c, pth.name, fmt.Sprint(s.Count),
					time.Duration(s.MeanNs).String(), time.Duration(s.P50Ns).String(),
					time.Duration(s.P95Ns).String(), time.Duration(s.P99Ns).String()})
			}
		}
		fmt.Println(flowsim.RenderTable(lhdr, ltbl))
	}

	if native {
		res, err := nativeRun(quiet, admin)
		if err != nil {
			return nil, err
		}
		results = append(results, res...)
	}
	return results, nil
}

// nativeRun measures raw Seal+Open throughput of the real protocol on
// this machine, on the allocation-free append path. Each configuration
// gets its own endpoint pair with an observability pipeline attached:
// throughput is measured with sampling disabled (the production
// steady state), then sampling is flipped to every-packet for a short
// latency phase that feeds the p50/p95/p99 columns.
func nativeRun(quiet bool, admin *obs.Admin) ([]benchResult, error) {
	if !quiet {
		fmt.Println("Native Seal+Open throughput on this machine (1460-byte datagrams, encrypted):")
	}
	var results []benchResult
	for _, m := range []struct {
		name   string
		secret bool
	}{
		{"FBS DES+MD5", true},
		{"FBS NOP (MAC only)", false},
	} {
		res, err := measureAppend("native", m.name, m.secret, quiet, admin)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// suitesRun measures every data-carrying suite in the registry on the
// same append path, encrypted, one endpoint pair per suite. The
// resulting "suites" section is what make ci-bench hands to fbsstat
// bench-validate, which holds the AEAD suites to their single-pass
// throughput claim against the paper's DES-CBC/keyed-MD5 configuration.
func suitesRun(quiet bool, admin *obs.Admin) ([]benchResult, error) {
	if !quiet {
		fmt.Println("Per-suite Seal+Open throughput on this machine (1460-byte datagrams, encrypted):")
	}
	var results []benchResult
	for _, s := range core.Suites() {
		if s.ID() == core.CipherNone {
			continue // cleartext-only: no data-carrying configuration to measure
		}
		id := s.ID()
		name := s.Name()
		if !s.AEAD() {
			// Legacy suites are measured in the paper's configuration.
			name += "-CBC/keyed-MD5"
		}
		res, err := measureAppend("suites", name, true, quiet, admin, func(c *core.Config) {
			c.Cipher = id
			c.Mode = cryptolib.CBC
		})
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// measureAppend benchmarks one endpoint configuration on the
// allocation-free append path: a one-second throughput phase with
// sampling disabled (the production steady state), then a short
// every-packet phase whose root seal/open spans feed the latency
// percentiles.
func measureAppend(section, name string, secret, quiet bool, admin *obs.Admin, mutate ...func(*core.Config)) (benchResult, error) {
	payload := make([]byte, 1460)
	dg := transport.Datagram{Source: "sim-a", Destination: "sim-b", Payload: payload}
	pipe := obs.NewPipeline(obstrace.Config{})
	mutate = append(mutate, func(c *core.Config) { c.Tracer = pipe })
	a, b, err := endpointPair(mutate...)
	if err != nil {
		return benchResult{}, err
	}
	defer a.Close()
	defer b.Close()
	if admin != nil {
		label := section + "-" + name
		obs.RegisterEndpoint(admin.Registry, label, a)
		obs.RegisterPipeline(admin.Registry, label, pipe)
		admin.WatchEndpoint(label, a)
		admin.WatchTracer(pipe.Collector)
	}
	sealBuf := make([]byte, 0, core.HeaderSize+len(payload)+cryptolib.BlockSize)
	openBuf := make([]byte, 0, core.HeaderSize+len(payload)+cryptolib.BlockSize)
	sealOpen := func() error {
		sealed, err := a.SealAppend(sealBuf[:0], dg, nil, secret)
		if err != nil {
			return err
		}
		sealBuf = sealed
		opened, err := b.OpenAppend(openBuf[:0], transport.Datagram{
			Source: "sim-a", Destination: "sim-b", Payload: sealed,
		})
		if err != nil {
			return err
		}
		openBuf = opened
		return nil
	}
	if err := sealOpen(); err != nil {
		return benchResult{}, fmt.Errorf("%s: %w", name, err)
	}
	start := time.Now()
	var bytes int64
	for time.Since(start) < time.Second {
		if err := sealOpen(); err != nil {
			return benchResult{}, fmt.Errorf("%s: %w", name, err)
		}
		bytes += int64(len(payload))
	}
	el := time.Since(start).Seconds()
	kbps := float64(bytes) * 8 / el / 1000
	// Latency phase: trace every packet briefly; percentiles come from
	// the whole-call histograms the root spans feed.
	pipe.SetSampleEvery(1)
	latStart := time.Now()
	for time.Since(latStart) < 200*time.Millisecond {
		if err := sealOpen(); err != nil {
			return benchResult{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	pipe.SetSampleEvery(0)
	sealLat := summarize(pipe.StageSnapshot(true, "total"))
	openLat := summarize(pipe.StageSnapshot(false, "total"))
	res := benchResult{
		Section: section, Config: name, Kbps: kbps,
		SealLatency: sealLat, OpenLatency: openLat,
	}
	if !quiet {
		fmt.Printf("  %-24s %10.0f kb/s", name, kbps)
		if sealLat != nil && openLat != nil {
			fmt.Printf("   seal p50/p99 %v/%v, open p50/p99 %v/%v",
				time.Duration(sealLat.P50Ns), time.Duration(sealLat.P99Ns),
				time.Duration(openLat.P50Ns), time.Duration(openLat.P99Ns))
		}
		fmt.Println()
	}
	return res, nil
}
