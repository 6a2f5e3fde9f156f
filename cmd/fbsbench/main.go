// Command fbsbench regenerates Figure 8: ttcp and rcp throughput for
// GENERIC (stock IP), FBS NOP (nullified crypto) and FBS DES+MD5 on the
// calibrated Pentium-133 / 10 Mb Ethernet model, while running the real
// protocol code of every configuration on every simulated packet.
//
// With -native it also measures raw Seal/Open throughput of the real
// implementation on the local machine, and with -stack it pushes a
// ttcp-style transfer through the real IPv4 + TCP-lite stack with FBS
// at the Section 7.2 hook points.
//
// With -suites it instead measures the native Seal/Open throughput of
// every data-carrying suite in the registry (DES, 3DES and the AEAD
// suites), emitting a standalone "suites" section; make ci freezes that
// output into BENCH_suites.json and validates it with fbsstat.
//
// With -batch it measures the batched UDP data plane on the local
// loopback: SendBatch/ReceiveBatch over real kernel sockets
// (sendmmsg/recvmmsg where the platform has them) across a batch-size ×
// shard-count matrix, emitting a standalone "batch" section; make
// bench-batch freezes that output into BENCH_batch.json and fbsstat
// holds batch=32 to its amortisation claim over batch=1.
//
// Usage:
//
//	fbsbench [-bytes N] [-native] [-stack] [-json]
//	fbsbench -suites [-json]
//	fbsbench -batch [-shards N] [-json]
//
// With -json the human-readable tables are suppressed and one JSON
// document with every measured throughput (in kb/s) is written to
// stdout, for consumption by scripts and regression harnesses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fbs/internal/baseline"
	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/flowsim"
	"fbs/internal/ip"
	"fbs/internal/l4"
	"fbs/internal/netsim"
	"fbs/internal/obs"
	"fbs/internal/principal"
	"fbs/internal/transport"

	fbs "fbs"
)

// latencyStats summarises one latency histogram for the -json output.
// Values are nanoseconds; percentiles are log2-bucket upper bounds
// (over-estimates by at most 2×, the bucketing precision).
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
	// Section is "figure8", "native", "stack" or "suites".
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
}

func main() {
	total := flag.Int("bytes", 4<<20, "bytes per simulated transfer")
	native := flag.Bool("native", false, "also measure native Seal/Open throughput")
	stack := flag.Bool("stack", false, "also run a ttcp transfer through the real IPv4+TCP-lite stack with FBS")
	suites := flag.Bool("suites", false, "measure every registered suite's native Seal/Open throughput instead of the figure-8 simulation")
	batch := flag.Bool("batch", false, "measure the batched UDP loopback pipeline across a batch-size x shard matrix")
	shards := flag.Int("shards", 2, "highest shard count in the -batch matrix (powers of two from 1)")
	jsonOut := flag.Bool("json", false, "emit one JSON document of kb/s results instead of tables")
	adminAddr := flag.String("admin", "", "serve the observability admin plane (/metrics, /flows, /recorder, pprof) on this address and wait after the run")
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
	if *batch {
		res, err := batchRun(*jsonOut, *shards, admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbsbench:", err)
			os.Exit(1)
		}
		results = append(results, res...)
	} else if *suites {
		res, err := suitesRun(*jsonOut, admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbsbench:", err)
			os.Exit(1)
		}
		results = append(results, res...)
	} else {
		res, err := run(*total, *native, *jsonOut, admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbsbench:", err)
			os.Exit(1)
		}
		results = append(results, res...)
		if *stack {
			res, err := stackRun(*total, *jsonOut, admin)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fbsbench:", err)
				os.Exit(1)
			}
			results = append(results, res...)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
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
func endpointPair(combined bool, mutate ...func(*core.Config)) (*core.Endpoint, *core.Endpoint, error) {
	d, err := fbs.NewDomain("fbsbench", fbs.WithGroup(cryptolib.TestGroup))
	if err != nil {
		return nil, nil, err
	}
	net := fbs.NewNetwork(fbs.Impairments{})
	mk := func(addr fbs.Address) (*core.Endpoint, error) {
		return d.NewEndpoint(addr, net, func(c *core.Config) {
			c.CombinedFSTTFKC = combined
			c.SinglePass = true
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
	a, b, err := endpointPair(true)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	defer b.Close()
	// A true NOP pair: MAC and encryption nullified, everything else
	// (FAM, keying, caches, header) running for real.
	nopA, nopB, err := endpointPair(true, func(c *core.Config) { c.MAC = cryptolib.MACNull })
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
		fmt.Println("Per-call latency of the real protocol code inside the simulation (log2-bucket percentiles):")
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
// resulting "suites" section is what make ci freezes into
// BENCH_suites.json and hands to fbsstat bench-validate, which holds
// the AEAD suites to their single-pass throughput claim against the
// paper's DES-CBC/keyed-MD5 configuration.
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

// batchRun measures the batched UDP data plane over the real loopback:
// for every AEAD suite, a matrix of batch sizes × shard counts, each
// cell a lockstep SendBatch/ReceiveBatch pipeline on kernel sockets.
// Payloads are small (256 bytes) so the per-datagram syscall is the
// dominant fixed cost — exactly what the mmsg path amortises; the
// committed BENCH_batch.json holds batch=32 to a 3× floor over
// batch=1 in this section.
func batchRun(quiet bool, maxShards int, admin *obs.Admin) ([]benchResult, error) {
	if !quiet {
		fmt.Println("Batched UDP loopback throughput (256-byte datagrams, encrypted):")
	}
	if maxShards < 1 {
		maxShards = 1
	}
	var results []benchResult
	for _, s := range core.Suites() {
		if !s.AEAD() {
			continue
		}
		for sh := 1; sh <= maxShards; sh *= 2 {
			for _, bsz := range []int{1, 8, 32, 128} {
				name := fmt.Sprintf("%s/b=%d/s=%d", s.Name(), bsz, sh)
				kbps, err := measureBatchUDP(s.ID(), bsz, sh, name, admin)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				results = append(results, benchResult{Section: "batch", Config: name, Kbps: kbps})
				if !quiet {
					fmt.Printf("  %-28s %10.0f kb/s\n", name, kbps)
				}
			}
		}
	}
	return results, nil
}

// measureBatchUDP runs one matrix cell: a sharded sender and a sharded
// receiver, one UDP socket pair per shard (the SO_REUSEPORT model).
// Each shard models a real deployment's split: a dedicated receive-loop
// goroutine blocks in Receive/ReceiveBatch and reports what it drained
// through a credit channel, while the sender transmits one
// batch-of-bsz window and waits for the credits to return before the
// next — so at b=1 every datagram pays the send syscall plus a full
// receiver wakeup, and at b=32 one syscall pair and one wakeup are
// split 32 ways. That is precisely the amortisation the batched data
// plane claims, measured against the scalar plane it replaces.
// Credit-window lockstep also bounds in-flight bytes far below the
// socket buffers, so loopback delivery is lossless and credited payload
// is the throughput. Each cell runs three windows and reports the best:
// the first window doubles as warmup (flow setup, cipher instance and
// intern tables), and on a small shared machine the max is the
// least-interfered estimate of what the configuration can do.
func measureBatchUDP(cipher core.CipherID, bsz, shards int, label string, admin *obs.Admin) (float64, error) {
	d, err := fbs.NewDomain("fbsbench-batch", fbs.WithGroup(cryptolib.TestGroup))
	if err != nil {
		return 0, err
	}
	txU := make([]*transport.UDPTransport, shards)
	rxU := make([]*transport.UDPTransport, shards)
	for i := 0; i < shards; i++ {
		if txU[i], err = transport.NewUDPTransport("batch-tx", "127.0.0.1:0"); err != nil {
			return 0, err
		}
		if rxU[i], err = transport.NewUDPTransport("batch-rx", "127.0.0.1:0"); err != nil {
			return 0, err
		}
		if err := txU[i].AddPeer("batch-rx", rxU[i].LocalAddr().String()); err != nil {
			return 0, err
		}
		if err := rxU[i].AddPeer("batch-tx", txU[i].LocalAddr().String()); err != nil {
			return 0, err
		}
	}
	opt := func(c *core.Config) {
		c.Cipher = cipher
		c.SinglePass = true
	}
	txGrp, err := d.NewShardedEndpoint("batch-tx", shards, func(i int) (fbs.Transport, error) { return txU[i], nil }, opt)
	if err != nil {
		return 0, err
	}
	defer txGrp.Close()
	rxGrp, err := d.NewShardedEndpoint("batch-rx", shards, func(i int) (fbs.Transport, error) { return rxU[i], nil }, opt)
	if err != nil {
		return 0, err
	}
	defer rxGrp.Close()
	if admin != nil {
		obs.RegisterShardGroup(admin.Registry, "batch-tx-"+label, txGrp)
		obs.RegisterShardGroup(admin.Registry, "batch-rx-"+label, rxGrp)
	}
	// Failsafe: a lost datagram would stall a lockstep shard forever;
	// closing the sockets turns a stall into an error.
	watchdog := time.AfterFunc(30*time.Second, func() {
		txGrp.Close()
		rxGrp.Close()
	})
	defer watchdog.Stop()

	const payloadLen = 256
	const window = 300 * time.Millisecond
	const windows = 3
	var (
		mu       sync.Mutex
		runErr   error
		stopping atomic.Bool
	)
	broken := make(chan struct{})
	var brokeOnce sync.Once
	fail := func(shard int, err error) {
		mu.Lock()
		if runErr == nil {
			runErr = fmt.Errorf("shard %d: %w", shard, err)
		}
		mu.Unlock()
		brokeOnce.Do(func() { close(broken) })
	}

	// Receive loops live for the whole cell; they are unblocked at the
	// end by closing the sockets, which they treat as a clean exit once
	// stopping is set.
	credits := make([]chan int, shards)
	var rxWg sync.WaitGroup
	for i := 0; i < shards; i++ {
		credits[i] = make(chan int, 1024)
		rxWg.Add(1)
		go func(i int) {
			defer rxWg.Done()
			rx := rxGrp.Shard(i)
			for {
				var arrived int
				var err error
				if bsz == 1 {
					// The scalar receive loop the batched one replaces:
					// one syscall and one poller wakeup per datagram.
					_, err = rx.Receive()
					arrived = 1
				} else {
					var accepted []transport.Datagram
					accepted, arrived, err = rx.ReceiveBatch(bsz)
					if err == nil && len(accepted) != arrived {
						err = fmt.Errorf("receiver rejected %d of %d datagrams", arrived-len(accepted), arrived)
					}
				}
				if err != nil {
					if !stopping.Load() {
						fail(i, err)
					}
					return
				}
				credits[i] <- arrived
			}
		}(i)
	}

	dgsBy := make([][]transport.Datagram, shards)
	payload := make([]byte, payloadLen)
	for i := range dgsBy {
		dgsBy[i] = make([]transport.Datagram, bsz)
		for k := range dgsBy[i] {
			dgsBy[i][k] = transport.Datagram{Source: "batch-tx", Destination: "batch-rx", Payload: payload}
		}
	}

	var best float64
	for w := 0; w < windows; w++ {
		var (
			wg       sync.WaitGroup
			winBytes int64
		)
		start := time.Now()
		deadline := start.Add(window)
		for i := 0; i < shards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tx := txGrp.Shard(i)
				dgs := dgsBy[i]
				for time.Now().Before(deadline) {
					if bsz == 1 {
						if err := tx.Send(dgs[0], true); err != nil {
							fail(i, err)
							return
						}
					} else if n, err := tx.SendBatch(dgs, true); err != nil || n != bsz {
						fail(i, fmt.Errorf("SendBatch sent %d of %d: %w", n, bsz, err))
						return
					}
					for need := bsz; need > 0; {
						select {
						case n := <-credits[i]:
							need -= n
						case <-broken:
							return
						}
					}
					atomic.AddInt64(&winBytes, int64(bsz)*payloadLen)
				}
			}(i)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		mu.Lock()
		failed := runErr != nil
		mu.Unlock()
		if failed {
			break
		}
		if kbps := float64(winBytes) * 8 / el / 1000; kbps > best {
			best = kbps
		}
	}

	stopping.Store(true)
	txGrp.Close()
	rxGrp.Close()
	for i := 0; i < shards; i++ {
		txU[i].Close()
		rxU[i].Close()
	}
	rxWg.Wait()
	if runErr != nil {
		return 0, runErr
	}
	return best, nil
}

// measureAppend benchmarks one endpoint configuration on the
// allocation-free append path: a one-second throughput phase with
// sampling disabled (the production steady state), then a short
// every-packet phase whose StageTotal histograms feed the latency
// percentiles.
func measureAppend(section, name string, secret, quiet bool, admin *obs.Admin, mutate ...func(*core.Config)) (benchResult, error) {
	payload := make([]byte, 1460)
	dg := transport.Datagram{Source: "sim-a", Destination: "sim-b", Payload: payload}
	pipe := obs.NewPipeline(obs.PipelineConfig{SampleEvery: 0})
	mutate = append(mutate, func(c *core.Config) { c.Observer = pipe })
	a, b, err := endpointPair(true, mutate...)
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
		admin.WatchRecorder(pipe.Recorder())
	}
	sealBuf := make([]byte, 0, core.HeaderSize+len(payload)+cryptolib.BlockSize)
	openBuf := make([]byte, 0, core.HeaderSize+len(payload)+cryptolib.BlockSize)
	sealOpen := func() error {
		sealed, err := a.SealAppend(sealBuf[:0], dg, secret)
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
	// Latency phase: sample every packet briefly; percentiles come
	// from the whole-call StageTotal histograms.
	pipe.SetSampleEvery(1)
	latStart := time.Now()
	for time.Since(latStart) < 200*time.Millisecond {
		if err := sealOpen(); err != nil {
			return benchResult{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	pipe.SetSampleEvery(0)
	sealLat := summarize(pipe.StageSnapshot(true, core.StageTotal))
	openLat := summarize(pipe.StageSnapshot(false, core.StageTotal))
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

// stackRun pushes a ttcp-style transfer through the real IPv4 stack with
// the FBS hook installed, end to end, at native speed.
func stackRun(total int, quiet bool, admin *obs.Admin) ([]benchResult, error) {
	if !quiet {
		fmt.Printf("\nFull-stack native run: %d MB through real IPv4 + TCP-lite + FBS (DES+MD5)\n", total>>20)
	}
	ca, err := cert.NewAuthority("fbsbench-stack", 512)
	if err != nil {
		return nil, err
	}
	dir := cert.NewStaticDirectory()
	ver := &cert.Verifier{CAKey: ca.PublicKey(), CA: "fbsbench-stack"}
	type wireT struct {
		mu    sync.Mutex
		peers map[ip.Addr]*ip.Stack
	}
	w := &wireT{peers: make(map[ip.Addr]*ip.Stack)}
	sender := func(self ip.Addr) ip.LinkFunc {
		return ip.LinkFunc(func(frame []byte) error {
			w.mu.Lock()
			var dst *ip.Stack
			if h, _, err := ip.Unmarshal(frame); err == nil {
				dst = w.peers[h.Dst]
			}
			w.mu.Unlock()
			if dst != nil {
				go dst.Input(append([]byte(nil), frame...))
			}
			return nil
		})
	}
	mk := func(addr ip.Addr) (*ip.Stack, error) {
		id, err := principal.NewIdentity(ip.Principal(addr), cryptolib.TestGroup)
		if err != nil {
			return nil, err
		}
		c, err := ca.Issue(id, time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
		if err != nil {
			return nil, err
		}
		dir.Publish(c)
		hook, err := ip.NewFBSHook(core.Config{
			Identity: id, Directory: dir, Verifier: ver, SinglePass: true,
		}, ip.AlwaysSecret)
		if err != nil {
			return nil, err
		}
		s, err := ip.NewStack(ip.StackConfig{Addr: addr, Link: sender(addr), Hook: hook})
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.peers[addr] = s
		w.mu.Unlock()
		return s, nil
	}
	addrA, addrB := ip.Addr{10, 8, 0, 1}, ip.Addr{10, 8, 0, 2}
	sa, err := mk(addrA)
	if err != nil {
		return nil, err
	}
	sb, err := mk(addrB)
	if err != nil {
		return nil, err
	}
	if admin != nil {
		obs.RegisterStack(admin.Registry, "stack-a", sa)
		obs.RegisterStack(admin.Registry, "stack-b", sb)
	}
	overhead := core.SealOverhead
	ssa, err := l4.NewStreamStack(sa, l4.StreamConfig{SecurityHeaderLen: overhead})
	if err != nil {
		return nil, err
	}
	ssb, err := l4.NewStreamStack(sb, l4.StreamConfig{SecurityHeaderLen: overhead})
	if err != nil {
		return nil, err
	}
	ln, err := ssb.Listen(5001)
	if err != nil {
		return nil, err
	}
	got := make(chan int64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- -1
			return
		}
		n, _ := io.Copy(io.Discard, conn)
		got <- n
	}()
	start := time.Now()
	conn, err := ssa.Dial(addrB, 5001)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(make([]byte, total)); err != nil {
		return nil, err
	}
	if err := conn.CloseWrite(); err != nil {
		return nil, err
	}
	n := <-got
	elapsed := time.Since(start)
	if int(n) != total {
		return nil, fmt.Errorf("received %d of %d bytes", n, total)
	}
	kbps := float64(total) * 8 / elapsed.Seconds() / 1000
	if !quiet {
		fmt.Printf("  %d bytes in %v = %.0f kb/s (every packet MACed and DES-encrypted end to end)\n",
			total, elapsed.Round(time.Millisecond), kbps)
	}
	return []benchResult{{Section: "stack", Config: "FBS DES+MD5", Kbps: kbps}}, nil
}
