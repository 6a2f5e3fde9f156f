package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fbs/internal/gateway"
)

// provisionState mirrors the side-channel file fbsgw writes with
// -state: the CA key, every certificate, the pre-provisioned clients'
// private values, and where the tenant listeners and admin plane bound.
type provisionState struct {
	CAN           string            `json:"ca_n"`
	CAE           string            `json:"ca_e"`
	Certs         [][]byte          `json:"certs"`
	ClientPrivate map[string]string `json:"client_private"`
	TenantUDP     map[string]string `json:"tenant_udp"`
	AdminAddr     string            `json:"admin_addr"`
}

// gatewayProc is a running fbsgw child.
type gatewayProc struct {
	cmd     *exec.Cmd
	started time.Time
	state   *provisionState
	stdout  string        // path: the SIGTERM stats JSON lands here
	stderr  string        // path: the gateway's log; its size is a metric
	exited  chan struct{} // closed once the child has been waited for
	exitErr error         // cmd.Wait's result; read only after exited is closed
	http    *http.Client
}

// startGateway execs fbsgw with a generated config and waits for its
// provisioning state. The child gets GOMAXPROCS=procs and dies with
// this process (Pdeathsig; main locks its goroutine to the main thread,
// so "parent thread" means this process).
func startGateway(bin, dir string, cfg *gateway.Config, clients []string, procs int) (*gatewayProc, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "gateway.json")
	statePath := filepath.Join(dir, "state.json")
	if err := os.WriteFile(cfgPath, blob, 0o600); err != nil {
		return nil, err
	}
	os.Remove(statePath)
	g := &gatewayProc{
		stdout: filepath.Join(dir, "fbsgw.stdout"),
		stderr: filepath.Join(dir, "fbsgw.stderr"),
		exited: make(chan struct{}),
		http:   &http.Client{Timeout: 10 * time.Second},
	}
	outF, err := os.Create(g.stdout)
	if err != nil {
		return nil, err
	}
	defer outF.Close()
	errF, err := os.Create(g.stderr)
	if err != nil {
		return nil, err
	}
	defer errF.Close()
	cmd := exec.Command(bin, "-config", cfgPath, "-state", statePath, "-clients", strings.Join(clients, ","))

	cmd.Stdout, cmd.Stderr = outF, errF
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	g.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec fbsgw: %w", err)
	}
	g.cmd = cmd
	go func() { g.exitErr = cmd.Wait(); close(g.exited) }()

	// fbsgw writes the state file last, non-atomically: poll until it
	// parses.
	deadline := time.After(20 * time.Second)
	for {
		if blob, err := os.ReadFile(statePath); err == nil {
			st := new(provisionState)
			if json.Unmarshal(blob, st) == nil && st.AdminAddr != "" && st.TenantUDP[tenantAddr] != "" {
				g.state = st
				return g, nil
			}
		}
		select {
		case <-g.exited:
			return nil, fmt.Errorf("fbsgw exited during boot: %v\n%s", g.exitErr, g.logTail())
		case <-deadline:
			g.kill()
			return nil, errors.New("fbsgw wrote no state file within 20s")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// logTail returns the end of the gateway's stderr, for error messages.
func (g *gatewayProc) logTail() string {
	log, err := os.ReadFile(g.stderr)
	if err != nil {
		return ""
	}
	if len(log) > 2048 {
		log = log[len(log)-2048:]
	}
	return string(log)
}

func (g *gatewayProc) kill() {
	g.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-g.exited
}

// stop SIGTERMs the gateway, waits for it, and returns the final
// reconciled stats it prints while draining.
func (g *gatewayProc) stop() (gateway.Stats, error) {
	var st gateway.Stats
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		g.kill()
		return st, fmt.Errorf("SIGTERM fbsgw: %w", err)
	}
	select {
	case <-g.exited:
		if g.exitErr != nil {
			return st, fmt.Errorf("fbsgw exit: %w", g.exitErr)
		}
	case <-time.After(15 * time.Second):
		g.kill()
		return st, errors.New("fbsgw did not drain within 15s of SIGTERM")
	}
	blob, err := os.ReadFile(g.stdout)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(blob, &st); err != nil {
		return st, fmt.Errorf("final stats: %w", err)
	}
	return st, nil
}

// ledgerResidual is received − accepted − Σdrops − no_tenant − absorbed
// − retry_starved: the gateway's own reconciliation invariant, zero
// whenever every datagram it pulled off a socket is accounted for.
func ledgerResidual(st gateway.Stats) int64 {
	r := int64(st.Received) - int64(st.Accepted) - int64(st.NoTenant) - int64(st.Absorbed) - int64(st.RetryStarved)
	for _, n := range st.Drops {
		r -= int64(n)
	}
	return r
}

// snapshot is everything scraped from the live gateway at one instant,
// all from outside the program: /metrics, pprof's MemStats dump, /proc.
type snapshot struct {
	at time.Time

	// sum and max fold each /metrics family over tenant, shard and
	// config_epoch, keyed by name plus any remaining labels, e.g.
	// `fbs_cache_hits_total{cache="rfkc"}`. Counters want sum; gauges
	// shared across shards (the budget) want max.
	sum map[string]float64
	max map[string]float64

	mallocs    uint64
	totalAlloc uint64
	numGC      uint64
	pauseNs    []uint64 // the runtime's 256-entry circular pause log

	userTick uint64
	sysTick  uint64
	ctxsw    uint64
	hwmKB    uint64
	logBytes int64
}

func (g *gatewayProc) get(path string) ([]byte, error) {
	resp, err := g.http.Get("http://" + g.state.AdminAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (g *gatewayProc) scrape() (*snapshot, error) {
	s := &snapshot{at: time.Now(), sum: map[string]float64{}, max: map[string]float64{}}
	body, err := g.get("/metrics")
	if err != nil {
		return nil, err
	}
	parseMetrics(body, s)
	heap, err := g.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	ms := parseMemStats(heap)
	s.mallocs, s.totalAlloc, s.numGC, s.pauseNs = ms.mallocs, ms.totalAlloc, ms.numGC, ms.pauseNs
	if err := g.readProc(s); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(g.stderr); err == nil {
		s.logBytes = fi.Size()
	}
	return s, nil
}

// heapLiveBytes forces a collection in the gateway and returns what
// survived it.
func (g *gatewayProc) heapLiveBytes() (uint64, error) {
	heap, err := g.get("/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return 0, err
	}
	return parseMemStats(heap).heapAlloc, nil
}

// dropLabels are the labels the gateway adds per shard; folding them
// away leaves one series per family (and per cache/reason/cause).
var dropLabels = map[string]bool{"tenant": true, "shard": true, "config_epoch": true}

func parseMetrics(body []byte, s *snapshot) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		if lb := strings.IndexByte(key, '{'); lb >= 0 && strings.HasSuffix(key, "}") {
			var keep []string
			for _, kv := range strings.Split(key[lb+1:len(key)-1], ",") {
				if eq := strings.IndexByte(kv, '='); eq > 0 && !dropLabels[kv[:eq]] {
					keep = append(keep, kv)
				}
			}
			key = key[:lb]
			if len(keep) > 0 {
				key += "{" + strings.Join(keep, ",") + "}"
			}
		}
		s.sum[key] += v
		if cur, ok := s.max[key]; !ok || v > cur {
			s.max[key] = v
		}
	}
}

type memStats struct {
	mallocs, totalAlloc, heapAlloc, numGC uint64
	pauseNs                               []uint64
}

// parseMemStats reads the "# runtime.MemStats" block that ends a
// debug=1 heap profile.
func parseMemStats(body []byte) memStats {
	var ms memStats
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		switch name {
		case "Mallocs":
			ms.mallocs, _ = strconv.ParseUint(val, 10, 64)
		case "TotalAlloc":
			ms.totalAlloc, _ = strconv.ParseUint(val, 10, 64)
		case "HeapAlloc":
			ms.heapAlloc, _ = strconv.ParseUint(val, 10, 64)
		case "NumGC":
			ms.numGC, _ = strconv.ParseUint(val, 10, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				n, _ := strconv.ParseUint(f, 10, 64)
				ms.pauseNs = append(ms.pauseNs, n)
			}
		}
	}
	return ms
}

// gcPauseNs sums the pauses of collections after.numGC-before.numGC ..
// after.numGC from the runtime's circular log, scaling up when more
// cycles ran than the 256 the log holds.
func gcPauseNs(before, after *snapshot) float64 {
	cycles := after.numGC - before.numGC
	if cycles == 0 || len(after.pauseNs) == 0 {
		return 0
	}
	n := uint64(len(after.pauseNs))
	seen := cycles
	if seen > n {
		seen = n
	}
	var total uint64
	for i := uint64(0); i < seen; i++ {
		// Collection number c (1-based) is logged at (c+n-1) mod n.
		total += after.pauseNs[(after.numGC-i+n-1)%n]
	}
	return float64(total) * float64(cycles) / float64(seen)
}

func (g *gatewayProc) readProc(s *snapshot) error {
	pid := strconv.Itoa(g.cmd.Process.Pid)
	tasks, err := os.ReadDir("/proc/" + pid + "/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		if b, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/status"); err == nil {
			s.ctxsw += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
		}
	}
	st, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return err
	}
	// Fields after the parenthesised command name: state is index 0,
	// utime index 11, stime index 12.
	if rp := bytes.LastIndexByte(st, ')'); rp >= 0 {
		f := strings.Fields(string(st[rp+1:]))
		if len(f) > 12 {
			s.userTick, _ = strconv.ParseUint(f[11], 10, 64)
			s.sysTick, _ = strconv.ParseUint(f[12], 10, 64)
		}
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return err
	}
	s.hwmKB = statusField(status, "VmHWM:")
	return nil
}

// cpuNs is the gateway's on-CPU time so far: the first field of every
// thread's schedstat, in ns (/proc/<pid>/stat only counts 10 ms ticks).
func (g *gatewayProc) cpuNs() uint64 {
	var total uint64
	pid := strconv.Itoa(g.cmd.Process.Pid)
	tasks, _ := os.ReadDir("/proc/" + pid + "/task")
	for _, t := range tasks {
		if b, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/schedstat"); err == nil {
			if f := strings.Fields(string(b)); len(f) > 0 {
				n, _ := strconv.ParseUint(f[0], 10, 64)
				total += n
			}
		}
	}
	return total
}

func statusField(status []byte, key string) uint64 {
	i := bytes.Index(status, []byte(key))
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(status[i+len(key):]))
	if len(f) == 0 {
		return 0
	}
	n, _ := strconv.ParseUint(f[0], 10, 64)
	return n
}
