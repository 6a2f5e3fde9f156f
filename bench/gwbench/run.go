package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"

	"fbs/internal/gateway"
)

// runConfig is how one run is shaped. The driver fixes seconds; the
// smoke test shortens everything.
type runConfig struct {
	fbsgw    string  // path of the built gateway binary
	dir      string  // scratch directory for config, state and logs
	seed     uint64  // workload seed
	seconds  float64 // measured time, shared equally by the sessions: phase A takes 80 %, phase B 20 %
	sessions int     // independent gateway+generator sessions; a run reports each metric's median over them
	warmDiv  int     // divides the workload's warm-up count (smoke test)
	procs    int     // GOMAXPROCS of generator and gateway
}

// sessionsPerRun is how many times a run boots, warms, measures and
// drains a gateway. Five four-second sessions fit the driver's budget of
// about 35 s a run; their median keeps one disturbed session, or one
// unlucky set-up, out of the run's value.
const sessionsPerRun = 5

// session is a booted gateway with a warmed generator attached.
type session struct {
	gw  *gatewayProc
	gen *generator
}

// setUp is the timed set-up: exec fbsgw, wait for its state file, build
// the client endpoints, make first contact from every principal, and
// run a counted warm-up. The returned duration is exec → last warm-up
// echo. Boot alone is too short and too random (RSA and DH key
// generation are random searches) to be the metric; the cold pass and
// counted warm-up dilute that while still showing work moved into
// set-up.
func setUp(rc runConfig, w workload, base time.Time) (*session, time.Duration, error) {
	gw, err := startGateway(rc.fbsgw, rc.dir, w.gatewayConfig(), w.clientNames(), rc.procs)
	if err != nil {
		return nil, 0, err
	}
	gen, err := newGenerator(gw.state, w, rc.seed, base)
	if err != nil {
		gw.kill()
		return nil, 0, err
	}
	warm := w.warmup
	if rc.warmDiv > 1 {
		warm /= rc.warmDiv
	}
	if err := gen.warm(windowA, warm, gw); err != nil {
		gen.close()
		gw.kill()
		return nil, 0, err
	}
	took := time.Since(gw.started)
	gen.stop()
	return &session{gw: gw, gen: gen}, took, nil
}

// phaseResult is what one closed-loop phase produced.
type phaseResult struct {
	dur     time.Duration
	before  counts
	after   counts
	flood   uint64 // flood frames sent during the phase
	rtts    []uint32
	gwCPUNs uint64 // gateway on-CPU time over the phase
	selfNs  int64  // generator process CPU over the phase
}

func selfCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runPhase drives the closed loop at the given window for dur.
func (s *session) runPhase(window int, dur time.Duration, fl *flood) phaseResult {
	floodSent := func() uint64 {
		if fl == nil {
			return 0
		}
		return fl.sent.Load()
	}
	res := phaseResult{before: s.gen.counts(), selfNs: -selfCPU()}
	flood0, cpu0 := floodSent(), s.gw.cpuNs()
	s.gen.start(window)
	start := time.Now()
	time.Sleep(dur)
	res.dur = time.Since(start)
	res.gwCPUNs = s.gw.cpuNs() - cpu0
	res.selfNs += selfCPU()
	res.flood = floodSent() - flood0
	res.rtts = s.gen.stop()
	res.after = s.gen.counts()
	return res
}

// liveResult is one measured session against a live gateway.
type liveResult struct {
	w        workload
	setup    time.Duration
	a, b     phaseResult
	before   *snapshot // scraped just before phase A
	after    *snapshot // scraped just after phase A
	heapLive uint64
	hwmKB    uint64 // VmHWM at the end of phase B
	final    gateway.Stats
	late     []uint32 // flood burst lateness, ns
}

// runLive measures rc.sessions independent sessions, one after another.
// Each boots its own gateway and generator, so each lands on its own
// memory layout and thread placement; reporting the median over
// sessions is what keeps that run-to-run lottery out of the metrics.
func runLive(rc runConfig, w workload) ([]*liveResult, error) {
	base := time.Now()
	var out []*liveResult
	for i := 0; i < rc.sessions; i++ {
		one := rc
		one.dir = filepath.Join(rc.dir, fmt.Sprintf("%s-%d", w.name, i))
		one.seconds = rc.seconds / float64(rc.sessions)
		if err := os.MkdirAll(one.dir, 0o755); err != nil {
			return nil, err
		}
		res, err := runSession(one, w, base)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// runSession is one set-up, phase A, phase B and drain.
func runSession(rc runConfig, w workload, base time.Time) (*liveResult, error) {
	s, took, err := setUp(rc, w, base)
	if err != nil {
		return nil, err
	}
	res := &liveResult{w: w, setup: took}
	var fl *flood
	stopFlood := func() {
		if fl != nil {
			fl.stop()
			res.late = fl.lates
			fl = nil
		}
	}
	fail := func(err error) (*liveResult, error) {
		stopFlood()
		s.gen.close()
		s.gw.kill()
		return nil, err
	}
	if w.floodKpps > 0 {
		if fl, err = newFlood(s.gw.state.TenantUDP[tenantAddr], w, rc.seed, &s.gen.floodDue); err != nil {
			return fail(err)
		}
		go fl.run(w.floodKpps)
	}

	if res.before, err = s.gw.scrape(); err != nil {
		return fail(fmt.Errorf("scrape before phase A: %w", err))
	}
	res.a = s.runPhase(windowA, time.Duration(rc.seconds*0.8*float64(time.Second)), fl)
	if res.after, err = s.gw.scrape(); err != nil {
		return fail(fmt.Errorf("scrape after phase A: %w", err))
	}
	res.b = s.runPhase(windowB, time.Duration(rc.seconds*0.2*float64(time.Second)), fl)
	stopFlood()
	end, err := s.gw.scrape()
	if err != nil {
		return fail(fmt.Errorf("scrape after phase B: %w", err))
	}
	res.hwmKB = end.hwmKB
	// Forcing a collection is left until every timed phase and the RSS
	// reading are done.
	if res.heapLive, err = s.gw.heapLiveBytes(); err != nil {
		return fail(err)
	}
	s.gen.close()
	if res.final, err = s.gw.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUs returns the q-quantile of ns samples, in µs. It sorts
// its argument.
func percentileUs(ns []uint32, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	i := int(q * float64(len(ns)-1))
	return float64(ns[i]) / 1e3
}
