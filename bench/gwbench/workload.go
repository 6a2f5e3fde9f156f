package main

import (
	"fmt"

	"fbs/internal/core"
	"fbs/internal/gateway"
)

// Closed-loop credits: phase A (and the warm-up) keeps the gateway's
// queue full; phase B is one ping-pong.
const (
	windowA = 32
	windowB = 1
)

// tenantAddr is the principal address of the one tenant every workload
// serves; client frames carry it as their destination.
const tenantAddr = "gw-bench"

// The flood workload's overload plane: the example edge tenant's
// admission settings and a state budget that does not bind. The live
// config and the traced replica's shards both use them.
const (
	floodUpcallRate  = 200
	floodUpcallBurst = 50
	floodBudgetBytes = 64 << 20
)

// workload is one traffic mix. Every workload drives the same run
// shape (set-up, phase A, phase B; see run.go); what differs is the
// datagram size, the suite, how many peers and flows the traffic is
// spread over, and whether a spoofed flood runs beside it.
type workload struct {
	name string
	why  string

	payload int           // plaintext bytes per legit datagram
	suite   string        // tenant suite, by registered name
	cipher  core.CipherID // the same suite as the client endpoints name it

	principals int // provisioned client principals
	flows      int // long-lived flows per principal; 0 with churnLen > 0
	churnLen   int // datagrams per fresh flow (peer_churn); 0 = long-lived flows

	floodKpps int // spoofed open-loop flood beside the legit loop; 0 = none
	warmup    int // counted warm-up echoes that end set-up

	// hitOnly marks workloads whose measured phase must run entirely on
	// warm caches: any FAM/TFKC/RFKC miss or keying computation in
	// phase A is a bug, and fails the run.
	hitOnly bool
	// traceDatagrams is how much of the seeded sequence the traced
	// replica replays.
	traceDatagrams int
}

var workloads = []workload{
	{
		name:    "small_echo",
		why:     "64 B AES-128-GCM echoes on 8 long-lived flows: per-packet work (syscalls, dispatch, header, cache hits) is nearly all of the cost",
		payload: 64, suite: "AES-128-GCM", cipher: core.CipherAES128GCM,
		principals: 2, flows: 4, warmup: 110000,
		hitOnly: true, traceDatagrams: 50000,
	},
	{
		name:    "bulk_chacha",
		why:     "1200 B ChaCha20-Poly1305 echoes: per-byte cipher work dominates, so a dispatch or transport change should move it little",
		payload: 1200, suite: "ChaCha20-Poly1305", cipher: core.CipherChaCha20Poly1305,
		principals: 2, flows: 4, warmup: 40000,
		hitOnly: true, traceDatagrams: 50000,
	},
	{
		name:    "peer_churn",
		why:     "256 peers visited round-robin, a fresh 4-datagram flow per visit: every flow start misses RFKC and the 64-slot MKC/PVC, so keying does most of the work",
		payload: 64, suite: "AES-128-GCM", cipher: core.CipherAES128GCM,
		principals: 256, churnLen: 4, warmup: 3000,
		traceDatagrams: 16000,
	},
	{
		name:    "flood_mix",
		why:     "small_echo traffic beside a 20 kpps spoofed open-loop flood with admission and prefilter on: legit throughput and latency under attack, and the cost of saying no",
		payload: 64, suite: "AES-128-GCM", cipher: core.CipherAES128GCM,
		principals: 2, flows: 4, floodKpps: 20, warmup: 100000,
		traceDatagrams: 50000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clientNames returns the provisioned principal names. The pattern is
// chosen for where the names hash: consecutive principals alternate
// between the tenant's two shards in both directions (with a bare
// "c%03d" the first eight all steer to shard 1 inbound), and none shares
// an 8-byte prefix with the spoofed flood names (floodName), so the
// gateway's per-prefix sketch never charges legit traffic for the flood.
func (w workload) clientNames() []string {
	names := make([]string, w.principals)
	for i := range names {
		names[i] = fmt.Sprintf("c%03d.lan", i)
	}
	return names
}

// clientSFLSeed fixes where principal i's flow labels start. The
// product randomises this, and with it which slots a flow's keys take
// in the gateway's direct-mapped RFKC: with random labels about one
// session in forty drew two of its eight flows into one slot and ran
// with a 6 % miss rate on a workload meant to measure the hit path.
// Fixed labels make the placement the same in every run.
func clientSFLSeed(i int) uint64 { return 0x6762<<48 | uint64(i+1)<<20 }

// gatewayConfig is the generated fbsgw config: one echo tenant on an
// ephemeral loopback port with two shards. replay_cache stays off on
// every workload: timestamps have minute resolution, so a working
// freshness window is at least a minute, longer than a run, and replay
// state would be every datagram the run delivered — fbsgw.gw_rss_mb would
// then grow with throughput and flag a speed-up as a regression (see
// README, "Findings").
func (w workload) gatewayConfig() *gateway.Config {
	t := gateway.TenantConfig{
		Name:       "bench",
		Address:    tenantAddr,
		Listen:     "127.0.0.1:0",
		Shards:     2,
		Suite:      w.suite,
		Mode:       "echo",
		SecretEcho: true,
	}
	if w.floodKpps > 0 {
		t.Admission = &gateway.AdmissionConfig{UpcallRate: floodUpcallRate, UpcallBurst: floodUpcallBurst}
		t.Prefilter = &gateway.PrefilterConfig{Enable: true}
		t.StateBudgetBytes = floodBudgetBytes
	}
	return &gateway.Config{
		AdminAddr:    "127.0.0.1:0",
		DrainTimeout: gateway.Duration(2e9),
		Tenants:      []gateway.TenantConfig{t},
	}
}
