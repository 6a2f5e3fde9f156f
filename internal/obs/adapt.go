package obs

import (
	"sort"

	"fbs/internal/core"
	"fbs/internal/principal"
)

// This file adapts the snapshot value the rest of the repo already
// exposes (core.Snapshot) into metric families. Metric names follow
// fbs_<subsystem>_<what>_total for counters and fbs_<subsystem>_<what>
// for gauges; label values reuse the canonical DropReason/stage/cache
// names so every layer speaks one taxonomy.

// RegisterEndpoint registers a collector for everything an endpoint
// counts, plus its per-peer replay listing. The endpoint label
// distinguishes multiple registered endpoints within one registry.
func RegisterEndpoint(r *Registry, name string, ep *core.Endpoint) {
	eplbl := Label{Key: "endpoint", Value: name}
	r.RegisterFunc(func() []Family {
		return append(EndpointFamilies(ep.Snapshot(), eplbl), ReplayPeerFamily(ep.ReplayPerPeer(), eplbl))
	})
}

// labelsWith copies base and appends extra — collector loops share
// base across samples, so the append must never alias it.
func labelsWith(base []Label, extra ...Label) []Label {
	out := make([]Label, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// EndpointFamilies renders a snapshot as the endpoint metric surface —
// data-plane counters, drops, suites, batches, FAM, caches, keying,
// overload plane, pre-filter — with lbls prepended to every sample. It
// is a pure function of its arguments: the one row per counter that
// core.Snapshot's contract asks for lives here. RegisterEndpoint wraps
// it with a static endpoint label; the gateway calls it from a single
// dynamic collector so the label set (tenant, shard, config epoch) can
// change across an atomic config swap without re-registering anything.
func EndpointFamilies(m core.Snapshot, lbls ...Label) []Family {
	fams := []Family{
		CounterFamily("fbs_endpoint_sent_total", "Datagrams sealed and sent.", m.Sent, lbls...),
		CounterFamily("fbs_endpoint_sent_secret_total", "Sent datagrams with encrypted bodies.", m.SentSecret, lbls...),
		CounterFamily("fbs_endpoint_sent_bytes_total", "Application bytes sealed.", m.SentBytes, lbls...),
		CounterFamily("fbs_endpoint_received_total", "Datagrams accepted by open processing.", m.Received, lbls...),
		CounterFamily("fbs_endpoint_received_bytes_total", "Application bytes recovered.", m.ReceivedBytes, lbls...),
		CounterFamily("fbs_endpoint_bypassed_sent_total", "Datagrams sent around FBS by bypass policy.", m.BypassedSent, lbls...),
		CounterFamily("fbs_endpoint_bypassed_received_total", "Datagrams received around FBS by bypass policy.", m.BypassedReceived, lbls...),
	}
	fams = append(fams, DropsFamily("fbs_endpoint_drops_total", "Datagrams refused, by drop reason.", m.Drops, lbls...))

	// Per-suite data-plane traffic, labelled by the registry's
	// canonical suite names. Only registered suites are emitted —
	// unassigned nibbles can never seal or open a datagram.
	sealFam := Family{Name: "fbs_endpoint_suite_seals_total", Help: "Datagrams sealed, by cipher suite.", Type: "counter"}
	openFam := Family{Name: "fbs_endpoint_suite_opens_total", Help: "Datagrams opened and accepted, by cipher suite.", Type: "counter"}
	for _, s := range core.Suites() {
		sl := labelsWith(lbls, Label{Key: "suite", Value: s.Name()})
		sealFam.Samples = append(sealFam.Samples, Sample{Labels: sl, Value: float64(m.SuiteSeals[s.ID()])})
		openFam.Samples = append(openFam.Samples, Sample{Labels: sl, Value: float64(m.SuiteOpens[s.ID()])})
	}
	fams = append(fams, sealFam, openFam)
	fams = appendBatchFamilies(fams, m.Batch, lbls...)

	fs := m.FAM
	fams = append(fams,
		CounterFamily("fbs_fam_lookups_total", "Flow association map lookups.", fs.Lookups, lbls...),
		CounterFamily("fbs_fam_hits_total", "FAM lookups that found a live flow.", fs.Hits, lbls...),
		CounterFamily("fbs_fam_flows_created_total", "Flows instantiated in the FAM.", fs.FlowsCreated, lbls...),
		CounterFamily("fbs_fam_collisions_total", "FAM slot collisions on create.", fs.Collisions, lbls...),
		CounterFamily("fbs_fam_expirations_total", "Flows expired by the sweeper policy.", fs.Expirations, lbls...),
		GaugeFamily("fbs_fam_active_flows", "Live FAM entries.", float64(m.ActiveFlows), lbls...),
	)

	hits := Family{Name: "fbs_cache_hits_total", Help: "Soft-cache hits, by cache.", Type: "counter"}
	misses := Family{Name: "fbs_cache_misses_total", Help: "Soft-cache misses, by cache.", Type: "counter"}
	installs := Family{Name: "fbs_cache_installs_total", Help: "Soft-cache installs, by cache.", Type: "counter"}
	evictions := Family{Name: "fbs_cache_evictions_total", Help: "Soft-cache evictions, by cache.", Type: "counter"}
	used := Family{Name: "fbs_cache_used", Help: "Occupied soft-cache slots, by cache.", Type: "gauge"}
	slots := Family{Name: "fbs_cache_slots", Help: "Total soft-cache slots, by cache.", Type: "gauge"}
	for _, ci := range m.Caches {
		cl := labelsWith(lbls, Label{Key: "cache", Value: ci.Name})
		hits.Samples = append(hits.Samples, Sample{Labels: cl, Value: float64(ci.Stats.Hits)})
		misses.Samples = append(misses.Samples, Sample{Labels: cl, Value: float64(ci.Stats.Misses)})
		installs.Samples = append(installs.Samples, Sample{Labels: cl, Value: float64(ci.Stats.Installs)})
		evictions.Samples = append(evictions.Samples, Sample{Labels: cl, Value: float64(ci.Stats.Evictions)})
		used.Samples = append(used.Samples, Sample{Labels: cl, Value: float64(ci.Used)})
		slots.Samples = append(slots.Samples, Sample{Labels: cl, Value: float64(ci.Slots)})
	}
	fams = append(fams, hits, misses, installs, evictions, used, slots)

	ks := m.Keying
	fams = append(fams,
		CounterFamily("fbs_keyservice_master_key_requests_total", "Master key requests.", ks.MasterKeyRequests, lbls...),
		CounterFamily("fbs_keyservice_master_key_computes_total", "Master key computations (PVC+MKC miss path).", ks.MasterKeyComputes, lbls...),
		CounterFamily("fbs_keyservice_cert_fetches_total", "Certificate fetches from the directory.", ks.CertFetches, lbls...),
		CounterFamily("fbs_keyservice_cert_verifies_total", "Certificate signature verifications.", ks.CertVerifies, lbls...),
		CounterFamily("fbs_keyservice_failures_total", "Keying failures.", ks.Failures, lbls...),
		CounterFamily("fbs_mkd_upcalls_total", "Upcalls to the master key daemon.", m.MKDUpcalls, lbls...),
	)

	// Overload plane: the soft-state memory budget, the keying
	// admission gate, replay-window occupancy, and pressure sweeps.
	fams = append(fams,
		GaugeFamily("fbs_budget_used_bytes", "Soft-state bytes currently charged to the memory budget.", float64(m.Budget.Used), lbls...),
		GaugeFamily("fbs_budget_peak_bytes", "High-water mark of charged soft-state bytes.", float64(m.Budget.Peak), lbls...),
		GaugeFamily("fbs_budget_high_water_bytes", "Pressure threshold of the memory budget.", float64(m.Budget.HighWater), lbls...),
		GaugeFamily("fbs_budget_hard_limit_bytes", "Hard limit of the memory budget (0 = unbudgeted).", float64(m.Budget.HardLimit), lbls...),
		CounterFamily("fbs_budget_pressure_events_total", "Transitions into the pressure band.", m.Budget.PressureEvents, lbls...),
		CounterFamily("fbs_budget_denials_total", "Soft-state installs refused at the hard limit.", m.Budget.Denials, lbls...),
		CounterFamily("fbs_admission_admitted_total", "New-peer keying attempts admitted by the gate.", m.Admission.Admitted, lbls...),
		GaugeFamily("fbs_admission_queue_depth", "Admitted keying upcalls currently in flight.", float64(m.Admission.Depth), lbls...),
		GaugeFamily("fbs_replay_entries", "Live replay-window entries.", float64(m.Replay.Entries), lbls...),
		GaugeFamily("fbs_replay_peers", "Distinct peers holding replay-window entries.", float64(m.Replay.Peers), lbls...),
		CounterFamily("fbs_replay_refusals_total", "Datagrams refused because the budget hard limit left no room to record their replay signature.", m.Replay.Refusals, lbls...),
		CounterFamily("fbs_pressure_sweeps_total", "Tightened-threshold sweeps triggered by budget pressure.", m.PressureSweeps, lbls...),
	)
	shed := Family{Name: "fbs_admission_shed_total", Help: "New-peer keying attempts refused by the gate, by cause.", Type: "counter"}
	shed.Samples = append(shed.Samples,
		Sample{Labels: labelsWith(lbls, Label{Key: "cause", Value: "overload"}), Value: float64(m.Admission.ShedOverload)})
	fams = append(fams, shed)

	// Edge pre-filter: ladder position, pre-parse shedding, the
	// cookie challenge/echo flow, and the work counter that proves
	// shed datagrams were never parsed. The per-reason refusals
	// (prefilter/bad_cookie/challenged) ride fbs_endpoint_drops_total
	// like every other drop.
	pf := m.Prefilter
	fams = append(fams,
		GaugeFamily("fbs_prefilter_level", "Current degradation-ladder rung (0 off, 1 sketch, 2 sketch+challenge).", float64(pf.Level), lbls...),
		GaugeFamily("fbs_prefilter_epoch", "Current cookie-secret epoch.", float64(pf.Epoch), lbls...),
		CounterFamily("fbs_prefilter_escalations_total", "Ladder escalations (one rung up).", pf.Escalations, lbls...),
		CounterFamily("fbs_prefilter_deescalations_total", "Ladder de-escalations (one rung down).", pf.Deescalations, lbls...),
		CounterFamily("fbs_prefilter_sketch_sheds_total", "Datagrams refused by the per-prefix sketch before the header parse.", pf.SketchSheds, lbls...),
		CounterFamily("fbs_prefilter_sketch_decays_total", "Halving decay sweeps over the sketch.", pf.SketchDecays, lbls...),
		CounterFamily("fbs_prefilter_challenges_total", "Cookie challenge frames emitted.", pf.Challenged, lbls...),
		CounterFamily("fbs_prefilter_challenges_suppressed_total", "Challenge refusals past the per-window rate cap (no frame sent).", pf.ChallengeSuppressed, lbls...),
		CounterFamily("fbs_prefilter_echo_accepted_total", "Echo envelopes whose cookie verified.", pf.EchoAccepted, lbls...),
		CounterFamily("fbs_prefilter_echo_rejected_total", "Echo envelopes whose cookie failed verification.", pf.EchoRejected, lbls...),
		CounterFamily("fbs_prefilter_cookies_learned_total", "Challenge cookies absorbed into the sender-side jar.", pf.CookiesLearned, lbls...),
		CounterFamily("fbs_prefilter_cookies_attached_total", "Outgoing datagrams wrapped in an echo envelope.", pf.CookiesAttached, lbls...),
		CounterFamily("fbs_prefilter_header_parses_total", "Datagrams that reached the header decode (pre-parse sheds never increment this).", pf.HeaderParses, lbls...),
	)
	return fams
}

// DropsFamily renders a per-reason drop ledger as one counter family
// with a sample per countable DropReason, labelled lbls + reason.
func DropsFamily(name, help string, drops [core.NumDropReasons]uint64, lbls ...Label) Family {
	f := Family{Name: name, Help: help, Type: "counter"}
	for _, d := range core.DropReasons() {
		f.Samples = append(f.Samples, Sample{
			Labels: labelsWith(lbls, Label{Key: "reason", Value: d.String()}),
			Value:  float64(drops[d]),
		})
	}
	return f
}

// ReplayPeerFamily renders an endpoint's per-peer replay-window listing
// (Endpoint.ReplayPerPeer): the one endpoint family that is a listing,
// not a counter, and so is not part of core.Snapshot.
func ReplayPeerFamily(occupancy map[principal.Address]int, lbls ...Label) Family {
	perPeer := Family{Name: "fbs_replay_peer_entries", Help: "Replay-window entries held per peer (bounded by the budget).", Type: "gauge"}
	peers := make([]string, 0, len(occupancy))
	for peer := range occupancy {
		peers = append(peers, string(peer))
	}
	sort.Strings(peers)
	for _, peer := range peers {
		perPeer.Samples = append(perPeer.Samples, Sample{
			Labels: labelsWith(lbls, Label{Key: "peer", Value: peer}),
			Value:  float64(occupancy[principal.Address(peer)]),
		})
	}
	return perPeer
}

// appendBatchFamilies emits the batched data-plane counters: calls by
// log2 size class plus total datagrams moved through SealBatch and
// OpenBatch. Size-class labels reuse core's bucket taxonomy so the
// same query works against any endpoint or shard.
func appendBatchFamilies(fams []Family, bs core.BatchStats, lbls ...Label) []Family {
	sealCalls := Family{Name: "fbs_batch_seal_calls_total", Help: "SealBatch invocations, by batch size class.", Type: "counter"}
	openCalls := Family{Name: "fbs_batch_open_calls_total", Help: "OpenBatch invocations, by batch size class.", Type: "counter"}
	for i := 0; i < core.NumBatchBuckets; i++ {
		bl := labelsWith(lbls, Label{Key: "size", Value: core.BatchBucketLabel(i)})
		sealCalls.Samples = append(sealCalls.Samples, Sample{Labels: bl, Value: float64(bs.SealCalls[i])})
		openCalls.Samples = append(openCalls.Samples, Sample{Labels: bl, Value: float64(bs.OpenCalls[i])})
	}
	return append(fams, sealCalls, openCalls,
		CounterFamily("fbs_batch_seal_datagrams_total", "Datagrams processed through the SealBatch API.", bs.SealDatagrams, lbls...),
		CounterFamily("fbs_batch_open_datagrams_total", "Datagrams processed through the OpenBatch API.", bs.OpenDatagrams, lbls...),
	)
}

// RegisterPipeline registers the per-stage latency histograms.
func RegisterPipeline(r *Registry, name string, p *Pipeline) {
	eplbl := Label{Key: "endpoint", Value: name}
	r.RegisterFunc(func() []Family {
		f := Family{
			Name: "fbs_stage_duration_ns",
			Help: "Sampled per-stage processing time in nanoseconds, by path (seal/open) and stage.",
			Type: "histogram",
		}
		for _, path := range []struct {
			name string
			seal bool
		}{{"seal", true}, {"open", false}} {
			for i, stage := range stageNames {
				s := p.hist(path.seal, i).Snapshot()
				if s.Count == 0 {
					continue
				}
				AppendHistogram(&f, s, eplbl,
					Label{Key: "path", Value: path.name},
					Label{Key: "stage", Value: stage})
			}
		}
		return []Family{f}
	})
}
