package main

import (
	"fmt"
	"strings"
)

// metricSpec names one reported metric. BENCHMARK.json repeats these
// tables (TestBenchmarkJSONMatchesSpecs holds the two together).
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd are the gated metrics, the same two on every workload. The
// issue proposed six. The three speed metrics ranged over 20 % of their
// median between runs of the same code on the runner this was built on,
// and the gateway's peak RSS over 11 % on bulk_chacha, so by the issue's
// own rule they are reported per layer instead, under their names
// prefixed with the layer that measures them (README, "Demoted";
// REPEATABILITY.md has the numbers). setup_s ranges as widely (it is
// mostly the counted warm-up, which runs at client.echo_kpps) but the
// benchmark contract requires it to be gated, so it alone keeps a bound
// past the issue's 0.10: the medians of two sets of ten runs of the same
// code differed by up to 11 %.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"delivered_ratio", "share", "higher", 0.005},
}

// demoted are the end-to-end metrics the issue proposed that ranged
// over rangeLimit of their median between runs of the same code: they
// are reported per layer, prefixed with the layer that measures them.
var demoted = map[string]bool{"fbsgw.gw_cpu_us_per_dgram": true, "fbsgw.gw_rss_mb": true, "client.echo_kpps": true, "client.rtt_p50_us": true}

// headline returns the gated metrics followed by the demoted ones: what
// the all-workloads summary and the repeatability report tabulate.
func headline() []metricSpec {
	out := append([]metricSpec(nil), endToEnd...)
	for _, s := range scrapedLayers {
		if demoted[s.name] {
			out = append(out, s)
		}
	}
	return out
}

// rangeLimit is the issue's demotion rule: a gated metric's (max − min)
// over repeated runs stays within a tenth of its median.
const rangeLimit = 0.10

// scrapedLayers come from outside the running gateway, around phase A.
var scrapedLayers = []metricSpec{
	{name: "fbsgw.gw_cpu_us_per_dgram", unit: "us", better: "lower"},
	{name: "fbsgw.gw_rss_mb", unit: "MB", better: "lower"},
	{name: "fbsgw.alloc_per_dgram", unit: "count", better: "lower"},
	{name: "fbsgw.alloc_b_per_dgram", unit: "B", better: "lower"},
	{name: "fbsgw.gc_cycles_per_s", unit: "1/s", better: "lower"},
	{name: "fbsgw.gc_pause_us_per_s", unit: "us/s", better: "lower"},
	{name: "fbsgw.ctxsw_per_dgram", unit: "count", better: "lower"},
	{name: "fbsgw.sys_cpu_share", unit: "share", better: "lower"},
	{name: "fbsgw.heap_live_mb", unit: "MB", better: "lower"},
	{name: "fbsgw.log_b_per_refused", unit: "B", better: "lower"},
	{name: "gateway.received", unit: "count", better: "higher"},
	{name: "gateway.echoed", unit: "count", better: "higher"},
	{name: "gateway.echo_failures", unit: "count", better: "lower"},
	{name: "gateway.ledger_residual", unit: "count", better: "lower"},
	{name: "core.fam.hit_ratio", unit: "share", better: "higher"},
	{name: "core.tfkc.hit_ratio", unit: "share", better: "higher"},
	{name: "core.rfkc.hit_ratio", unit: "share", better: "higher"},
	{name: "core.mkc.hit_ratio", unit: "share", better: "higher"},
	{name: "core.pvc.hit_ratio", unit: "share", better: "higher"},
	{name: "core.keying.masterkey_computes_per_kdgram", unit: "count", better: "lower"},
	{name: "core.keying.cert_verifies_per_kdgram", unit: "count", better: "lower"},
	{name: "core.prefilter.preparse_shed_ratio", unit: "share", better: "higher"},
	{name: "core.prefilter.header_parses_per_offered", unit: "share", better: "lower"},
	{name: "core.prefilter.level_max", unit: "count", better: "lower"},
	{name: "core.admission.shed_per_offered", unit: "share", better: "lower"},
	{name: "core.drops.keying_ratio", unit: "share", better: "lower"},
	{name: "core.drops.malformed_ratio", unit: "share", better: "lower"},
	{name: "core.drops.other_ratio", unit: "share", better: "lower"},
	{name: "core.budget.peak_mb", unit: "MB", better: "lower"},
	{name: "client.echo_kpps", unit: "k/s", better: "higher"},
	{name: "client.rtt_p50_us", unit: "us", better: "lower"},
	{name: "client.cpu_us_per_dgram", unit: "us", better: "lower"},
	{name: "client.cpu_share", unit: "share", better: "lower"},
	{name: "client.loop_rtt_p50_us", unit: "us", better: "lower"},
	{name: "client.rtt_p99_us", unit: "us", better: "lower"},
	{name: "client.rtt_samples", unit: "count", better: "higher"},
	{name: "client.lost_credits", unit: "count", better: "lower"},
	{name: "client.late_echoes", unit: "count", better: "lower"},
	{name: "client.flood_offered_kpps", unit: "k/s", better: "higher"},
	{name: "client.flood_late_p99_us", unit: "us", better: "lower"},
}

// perLayer is every per-layer metric, in BENCHMARK.json's order: what a
// --trace 1 run reports.
func perLayer() []metricSpec {
	return append(append([]metricSpec(nil), scrapedLayers...), tracedLayers...)
}

// values maps a metric name to its measured value.
type values map[string]float64

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hitRatio reads lookups that found their entry over all lookups; a
// cache nobody looked in has missed nothing, so it reads 1.
func hitRatio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return hits / (hits + misses)
}

// endToEndValues computes the gated metrics of one session.
func endToEndValues(r *liveResult) values {
	sent := float64(r.b.after.sent - r.a.before.sent)
	verified := float64(r.b.after.verified - r.a.before.verified)
	return values{
		"setup_s":         r.setup.Seconds(),
		"delivered_ratio": ratio(verified, sent),
	}
}

// medianValues folds the sessions of a run into one value per metric.
func medianValues(sessions []values) values {
	out := values{}
	for name := range sessions[0] {
		var xs []float64
		for _, v := range sessions {
			xs = append(xs, v[name])
		}
		out[name] = median(xs)
	}
	return out
}

// scrapedValues computes the per-layer metrics that need no tracing:
// counter deltas across phase A from /metrics, pprof and /proc, the
// gateway's final ledger, and the generator's own health.
func scrapedValues(r *liveResult, procs int) values {
	b, a := r.before, r.after
	d := func(key string) float64 { return a.sum[key] - b.sum[key] }
	received := d("fbs_gateway_received_total")
	secs := a.at.Sub(b.at).Seconds()
	v := values{}

	offered := float64(r.a.after.sent-r.a.before.sent) + float64(r.a.flood)
	v["fbsgw.gw_cpu_us_per_dgram"] = ratio(float64(r.a.gwCPUNs)/1e3, offered)
	v["fbsgw.gw_rss_mb"] = float64(r.hwmKB) / 1024
	v["fbsgw.alloc_per_dgram"] = ratio(float64(a.mallocs-b.mallocs), received)
	v["fbsgw.alloc_b_per_dgram"] = ratio(float64(a.totalAlloc-b.totalAlloc), received)
	v["fbsgw.gc_cycles_per_s"] = ratio(float64(a.numGC-b.numGC), secs)
	v["fbsgw.gc_pause_us_per_s"] = ratio(gcPauseNs(b, a)/1e3, secs)
	v["fbsgw.ctxsw_per_dgram"] = ratio(float64(a.ctxsw-b.ctxsw), received)
	ticks := float64(a.userTick-b.userTick) + float64(a.sysTick-b.sysTick)
	v["fbsgw.sys_cpu_share"] = ratio(float64(a.sysTick-b.sysTick), ticks)
	v["fbsgw.heap_live_mb"] = float64(r.heapLive) / (1 << 20)

	var refused, preparse, other float64
	for key := range a.sum {
		const fam = "fbs_endpoint_drops_total{reason="
		if !strings.HasPrefix(key, fam) {
			continue
		}
		n := d(key)
		refused += n
		switch strings.Trim(key[len(fam):], `"}`) {
		case "prefilter", "challenged", "bad_cookie":
			preparse += n
		case "keying", "keying_overload", "peer_quota", "malformed":
		default:
			other += n
		}
	}
	drop := func(reason string) float64 { return d(`fbs_endpoint_drops_total{reason="` + reason + `"}`) }
	v["fbsgw.log_b_per_refused"] = ratio(float64(a.logBytes-b.logBytes), refused)

	v["gateway.received"] = received
	v["gateway.echoed"] = d("fbs_gateway_echoed_total")
	v["gateway.echo_failures"] = float64(r.final.EchoFailures)
	v["gateway.ledger_residual"] = float64(ledgerResidual(r.final))

	v["core.fam.hit_ratio"] = ratio(d("fbs_fam_hits_total"), d("fbs_fam_lookups_total"))
	if d("fbs_fam_lookups_total") == 0 {
		v["core.fam.hit_ratio"] = 1
	}
	for _, c := range []string{"tfkc", "rfkc", "mkc", "pvc"} {
		v["core."+c+".hit_ratio"] = hitRatio(d(`fbs_cache_hits_total{cache="`+c+`"}`), d(`fbs_cache_misses_total{cache="`+c+`"}`))
	}
	v["core.keying.masterkey_computes_per_kdgram"] = ratio(d("fbs_keyservice_master_key_computes_total")*1e3, received)
	v["core.keying.cert_verifies_per_kdgram"] = ratio(d("fbs_keyservice_cert_verifies_total")*1e3, received)

	v["core.prefilter.preparse_shed_ratio"] = ratio(preparse, received)
	v["core.prefilter.header_parses_per_offered"] = ratio(d("fbs_prefilter_header_parses_total"), received)
	// The level gauge is an instant; the rung's own counters say whether
	// it was ever reached during the phase.
	level := a.max["fbs_prefilter_level"]
	if level < 1 && d("fbs_prefilter_sketch_sheds_total") > 0 {
		level = 1
	}
	if d("fbs_prefilter_challenges_total")+d("fbs_prefilter_challenges_suppressed_total") > 0 {
		level = 2
	}
	v["core.prefilter.level_max"] = level
	v["core.admission.shed_per_offered"] = ratio(d(`fbs_admission_shed_total{cause="overload"}`)+d(`fbs_admission_shed_total{cause="quota"}`), received)
	v["core.drops.keying_ratio"] = ratio(drop("keying"), received)
	v["core.drops.malformed_ratio"] = ratio(drop("malformed"), received)
	v["core.drops.other_ratio"] = ratio(other, received)
	v["core.budget.peak_mb"] = a.max["fbs_budget_peak_bytes"] / (1 << 20)

	v["client.echo_kpps"] = ratio(float64(r.a.after.verified-r.a.before.verified)/1e3, r.a.dur.Seconds())
	v["client.rtt_p50_us"] = percentileUs(r.b.rtts, 0.50)
	v["client.cpu_us_per_dgram"] = ratio(float64(r.a.selfNs)/1e3, offered)
	v["client.cpu_share"] = ratio(float64(r.a.selfNs), float64(r.a.dur.Nanoseconds())*float64(procs))
	v["client.loop_rtt_p50_us"] = percentileUs(r.a.rtts, 0.50)
	v["client.rtt_p99_us"] = percentileUs(r.b.rtts, 0.99)
	v["client.rtt_samples"] = float64(len(r.b.rtts))
	v["client.lost_credits"] = float64(r.b.after.lost - r.a.before.lost)
	// A late echo is a written-off credit that did come back: the
	// datagram was delayed past lostAfter, not dropped.
	v["client.late_echoes"] = float64(r.b.after.stray - r.a.before.stray)
	v["client.flood_offered_kpps"] = ratio(float64(r.a.flood)/1e3, r.a.dur.Seconds())
	v["client.flood_late_p99_us"] = percentileUs(r.late, 0.99)
	return v
}

// verify is the correctness gate that rides in the same command: every
// echo has already been matched by sequence number and compared byte
// for byte (lane.onEcho); here the gateway's own books and the
// workload's cache expectations are checked.
func verify(r *liveResult, e2e, layers values) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	c := r.b.after
	if c.corrupt > r.a.before.corrupt {
		failf("%d echoes differed from what was sent", c.corrupt-r.a.before.corrupt)
	}
	if layers["client.echo_kpps"] <= 0 || len(r.b.rtts) == 0 {
		failf("no echoes verified")
	}
	if n := layers["gateway.ledger_residual"]; n != 0 {
		failf("gateway ledger residual %v, want 0", n)
	}
	if n := layers["gateway.echo_failures"]; n != 0 {
		failf("gateway echo_failures %v, want 0", n)
	}
	if e2e["delivered_ratio"] < 0.99 {
		failf("delivered_ratio %.4f < 0.99", e2e["delivered_ratio"])
	}
	if r.w.hitOnly {
		for _, name := range []string{"core.fam.hit_ratio", "core.tfkc.hit_ratio", "core.rfkc.hit_ratio", "core.mkc.hit_ratio", "core.pvc.hit_ratio"} {
			if layers[name] != 1 {
				failf("%s = %v on a warm-cache workload, want 1", name, layers[name])
			}
		}
		for _, name := range []string{"core.keying.masterkey_computes_per_kdgram", "core.keying.cert_verifies_per_kdgram"} {
			if layers[name] != 0 {
				failf("%s = %v on a warm-cache workload, want 0", name, layers[name])
			}
		}
	}
	if r.w.floodKpps == 0 {
		for _, name := range []string{"core.prefilter.preparse_shed_ratio", "core.admission.shed_per_offered",
			"core.drops.keying_ratio", "core.drops.malformed_ratio", "core.drops.other_ratio"} {
			if layers[name] != 0 {
				failf("%s = %v with no flood, want 0", name, layers[name])
			}
		}
	}
	return bad
}
