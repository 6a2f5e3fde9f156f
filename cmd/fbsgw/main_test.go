package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fbs/internal/core"
	"fbs/internal/gateway"
	"fbs/internal/transport"

	fbs "fbs"
)

func TestExampleConfigValidates(t *testing.T) {
	cfg, err := loadConfig(filepath.Join("..", "..", "examples", "fbsgw", "gateway.json"))
	if err != nil {
		t.Fatalf("example config: %v", err)
	}
	if len(cfg.Tenants) != 2 {
		t.Fatalf("example config has %d tenants, want 2", len(cfg.Tenants))
	}
}

// syncBuffer guards the daemon's stdout across goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// stateDoc is the part of the -state document a client reads beside the
// fbs.Provision keys: where the daemon's listeners actually bound.
type stateDoc struct {
	TenantUDP map[string]string `json:"tenant_udp"`
	AdminAddr string            `json:"admin_addr"`
}

// awaitState polls for the state file, which appears once the daemon is
// serving.
func awaitState(t *testing.T, statePath string, runErr <-chan error) stateDoc {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st stateDoc
		blob, err := os.ReadFile(statePath)
		if err == nil {
			err = json.Unmarshal(blob, &st)
		}
		if err == nil && st.AdminAddr != "" && len(st.TenantUDP) == 1 {
			return st
		}
		select {
		case err := <-runErr:
			t.Fatalf("daemon exited during boot: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not provision within 10s (last err: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clientFromState rebuilds a pre-provisioned client the way an external
// client process does: identity, directory and verifier from
// fbs.LoadProvision, plus a UDP socket with a peer route to every tenant
// listener.
func clientFromState(t *testing.T, statePath string, st stateDoc, name fbs.Address) *fbs.Endpoint {
	t.Helper()
	p, err := fbs.LoadProvision(statePath)
	if err != nil {
		t.Fatalf("loading state: %v", err)
	}
	cfg, err := p.Config(name)
	if err != nil {
		t.Fatalf("client from state: %v", err)
	}
	udp, err := transport.NewUDPTransport(name, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for tenant, addr := range st.TenantUDP {
		if err := udp.AddPeer(fbs.Address(tenant), addr); err != nil {
			udp.Close()
			t.Fatal(err)
		}
	}
	cfg.Transport = udp
	// Seal with the gateway tenants' default suite so a config that
	// narrows accept_suites to the AEAD set keeps accepting this client.
	cfg.Cipher = core.CipherAES128GCM
	ep, err := fbs.NewEndpoint(cfg)
	if err != nil {
		udp.Close()
		t.Fatalf("client from state: %v", err)
	}
	return ep
}

// TestStateFileKeys pins the -state document: bench/gwbench and any
// external client parse it, so its top-level key set is a contract, and
// a client rebuilt from it through fbs.LoadProvision must be able to
// exchange a sealed datagram with the gateway.
func TestStateFileKeys(t *testing.T) {
	if probe, err := transport.NewUDPTransport("probe", "127.0.0.1:0"); err != nil {
		t.Skipf("UDP unavailable: %v", err)
	} else {
		probe.Close()
	}
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "gateway.json")
	statePath := filepath.Join(dir, "fbsgw.state")
	blob, err := json.Marshal(&gateway.Config{
		AdminAddr:    "127.0.0.1:0",
		DrainTimeout: gateway.Duration(2 * time.Second),
		Tenants:      []gateway.TenantConfig{{Name: "edge", Address: "gw-edge", Listen: "127.0.0.1:0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, blob, 0600); err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	d := newDaemon(cliOptions{configPath: cfgPath, statePath: statePath, clients: "alice, bob"}, &out, t.Logf)
	runErr := make(chan error, 1)
	go func() { runErr <- d.run() }()
	st := awaitState(t, statePath, runErr)

	blob, err = os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "admin_addr ca_e ca_n certs client_private tenant_udp"; got != want {
		t.Fatalf("state document keys = %q, want %q", got, want)
	}
	var certs [][]byte
	var private map[string]string
	if err := json.Unmarshal(doc["certs"], &certs); err != nil || len(certs) != 3 {
		t.Fatalf("certs: %d entries (err %v), want 3 (tenant + two clients)", len(certs), err)
	}
	if err := json.Unmarshal(doc["client_private"], &private); err != nil || len(private) != 2 || private["alice"] == "" || private["bob"] == "" {
		t.Fatalf("client_private = %v (err %v), want hex values for alice and bob", private, err)
	}

	client := clientFromState(t, statePath, st, "alice")
	defer client.Close()
	if err := client.SendTo("gw-edge", []byte("keys"), true); err != nil {
		t.Fatal(err)
	}
	if dg, err := client.Receive(); err != nil || string(dg.Payload) != "keys" {
		t.Fatalf("echo = %q, %v; want \"keys\"", dg.Payload, err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain within 15s of SIGTERM")
	}
}

// TestWriteStateReplaces: the -state document is replaced, never
// rewritten in place, so a client loading it mid-write sees a whole
// document. The replacement keeps mode 0600 and leaves no temporary
// file beside it.
func TestWriteStateReplaces(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "fbsgw.state")
	d := newDaemon(cliOptions{statePath: statePath, clients: "alice"}, &syncBuffer{}, t.Logf)
	var err error
	if d.dom, err = fbs.NewDomain("state", fbs.WithGroup(fbs.TestGroup)); err != nil {
		t.Fatal(err)
	}
	cfg := &gateway.Config{}
	if err := d.writeState(cfg); err != nil {
		t.Fatal(err)
	}
	first, err := os.Stat(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.writeState(cfg); err != nil {
		t.Fatal(err)
	}
	second, err := os.Stat(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(first, second) {
		t.Error("the second writeState rewrote the first file in place")
	}
	if perm := second.Mode().Perm(); perm != 0600 {
		t.Errorf("state file mode %v, want 0600", perm)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("state directory holds %d entries (err %v), want the state file alone", len(entries), err)
	}
	if _, err := fbs.LoadProvision(statePath); err != nil {
		t.Errorf("replacement does not load: %v", err)
	}
}

// TestFBSGWLiveUDPSmoke is the end-to-end gateway smoke test over real
// loopback sockets: boot the daemon from a config file, stream client
// round trips, hot-swap the config twice mid-transfer (admin API POST,
// then SIGHUP reload), and SIGTERM-drain. Every datagram must come
// back, and the final stats must reconcile with zero unaccounted
// drops.
func TestFBSGWLiveUDPSmoke(t *testing.T) {
	if probe, err := transport.NewUDPTransport("probe", "127.0.0.1:0"); err != nil {
		t.Skipf("UDP unavailable: %v", err)
	} else {
		probe.Close()
	}

	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "gateway.json")
	statePath := filepath.Join(dir, "fbsgw.state")
	writeCfg := func(flowMaxPackets uint64) {
		t.Helper()
		cfg := &gateway.Config{
			AdminAddr:    "127.0.0.1:0",
			DrainTimeout: gateway.Duration(2 * time.Second),
			Tenants: []gateway.TenantConfig{{
				Name:           "edge",
				Address:        "gw-edge",
				Listen:         "127.0.0.1:0",
				Shards:         2,
				ReplayCache:    true,
				FlowMaxPackets: flowMaxPackets,
			}},
		}
		blob, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfgPath, blob, 0600); err != nil {
			t.Fatal(err)
		}
	}
	writeCfg(0)

	var out syncBuffer
	d := newDaemon(cliOptions{
		configPath: cfgPath,
		statePath:  statePath,
		clients:    "smoke-client",
	}, &out, t.Logf)
	runErr := make(chan error, 1)
	go func() { runErr <- d.run() }()

	st := awaitState(t, statePath, runErr)
	adminURL := "http://" + st.AdminAddr + "/config"

	client := clientFromState(t, statePath, st, "smoke-client")
	defer client.Close()

	sent := 0
	roundTrips := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			msg := fmt.Sprintf("smoke-%04d", sent)
			if err := client.SendTo("gw-edge", []byte(msg), true); err != nil {
				t.Fatalf("send %d: %v", sent, err)
			}
			dg, err := client.Receive()
			if err != nil {
				t.Fatalf("echo %d: %v", sent, err)
			}
			if string(dg.Payload) != msg {
				t.Fatalf("echo %d = %q, want %q", sent, dg.Payload, msg)
			}
			sent++
		}
	}
	getEpoch := func() uint64 {
		t.Helper()
		resp, err := http.Get(adminURL)
		if err != nil {
			t.Fatalf("GET /config: %v", err)
		}
		defer resp.Body.Close()
		var got struct {
			Epoch  uint64         `json:"epoch"`
			Config gateway.Config `json:"config"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatalf("GET /config body: %v", err)
		}
		return got.Epoch
	}

	roundTrips(20)
	if e := getEpoch(); e != 1 {
		t.Fatalf("epoch = %d, want 1", e)
	}

	// Hot swap via the admin API while a transfer is in flight.
	swapDone := make(chan error, 1)
	go func() {
		cfg, err := loadConfig(cfgPath)
		if err != nil {
			swapDone <- err
			return
		}
		cfg.Tenants[0].AcceptSuites = []string{"AES-128-GCM", "ChaCha20-Poly1305"}
		blob, _ := json.Marshal(cfg)
		resp, err := http.Post(adminURL, "application/json", bytes.NewReader(blob))
		if err != nil {
			swapDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body) //nolint:errcheck
			swapDone <- fmt.Errorf("POST /config: %d %s", resp.StatusCode, buf.String())
			return
		}
		swapDone <- nil
	}()
	roundTrips(30) // the transfer the swap lands in the middle of
	if err := <-swapDone; err != nil {
		t.Fatal(err)
	}
	if e := getEpoch(); e != 2 {
		t.Fatalf("epoch after admin swap = %d, want 2", e)
	}

	// Hot reload via SIGHUP with an edited config file.
	writeCfg(100000)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getEpoch() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload did not reach epoch 3 (at %d)", getEpoch())
		}
		time.Sleep(10 * time.Millisecond)
	}
	roundTrips(20)

	// Metrics are live on the same admin plane.
	resp, err := http.Get("http://" + st.AdminAddr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	// The ledger identity reconciles from the scrape alone, two swaps
	// after the first epoch's per-shard series left the exposition.
	ledger := map[string]uint64{}
	for _, line := range strings.Split(metrics.String(), "\n") {
		if !strings.HasPrefix(line, "fbs_gateway_") {
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		family, _, _ := strings.Cut(series, "{")
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		ledger[family] += n // fbs_gateway_drops_total sums over its reasons
	}
	if got := ledger["fbs_gateway_received_total"]; got != uint64(sent) {
		t.Fatalf("/metrics: received %d, want %d\n%.2000s", got, sent, metrics.String())
	}
	if got, want := ledger["fbs_gateway_accepted_total"]+ledger["fbs_gateway_drops_total"]+ledger["fbs_gateway_no_tenant_total"]+
		ledger["fbs_gateway_absorbed_total"], ledger["fbs_gateway_received_total"]; got != want {
		t.Fatalf("/metrics does not reconcile: accepted+drops+no_tenant+absorbed = %d, received = %d (%v)", got, want, ledger)
	}
	if got := ledger["fbs_gateway_accepted_total"]; got != uint64(sent) {
		t.Fatalf("/metrics: accepted %d across three epochs, want %d", got, sent)
	}

	// Graceful drain on SIGTERM: the daemon exits cleanly and prints
	// final stats that reconcile exactly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain within 15s of SIGTERM")
	}

	var stats gateway.Stats
	if err := json.Unmarshal([]byte(out.String()), &stats); err != nil {
		t.Fatalf("final stats: %v\n%s", err, out.String())
	}
	total := uint64(sent)
	if stats.Received != total || stats.Accepted != total || stats.Echoed != total {
		t.Fatalf("final stats: received %d accepted %d echoed %d, want %d each",
			stats.Received, stats.Accepted, stats.Echoed, total)
	}
	if stats.Swaps != 3 || stats.Epoch != 3 {
		t.Fatalf("final stats: swaps %d epoch %d, want 3 and 3", stats.Swaps, stats.Epoch)
	}
	if stats.EchoFailures != 0 || stats.RetryStarved != 0 || stats.NoTenant != 0 {
		t.Fatalf("final stats: echoFailures %d retryStarved %d noTenant %d, want 0",
			stats.EchoFailures, stats.RetryStarved, stats.NoTenant)
	}
	var drops uint64
	for _, v := range stats.Drops {
		drops += v
	}
	if stats.Received != stats.Accepted+drops+stats.NoTenant+stats.Absorbed+stats.RetryStarved {
		t.Fatalf("final stats do not reconcile: %+v", stats)
	}
}
