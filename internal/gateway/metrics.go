package gateway

import (
	"strconv"

	"fbs/internal/obs"
)

// RegisterMetrics mounts the gateway on an obs.Registry as one dynamic
// collector. A static per-endpoint registration (obs.RegisterEndpoint)
// would go stale at the first config swap — the registry has no
// unregister — so the gateway instead takes one reading at scrape time
// (every live shard read once) and emits the gateway's own families,
// the cumulative ledger, and every shard's endpoint families labelled
// with tenant, shard and config_epoch. The config_epoch label means a
// swap starts a new labelled series instead of making cumulative
// counters appear to reset mid-scrape; the per-shard series of a retired
// epoch vanish with it, which is why the ledger's terms are also
// exported cumulatively: received == accepted + Σdrops + no_tenant +
// absorbed can be checked from one scrape.
func (g *Gateway) RegisterMetrics(r *obs.Registry) {
	r.RegisterFunc(func() []obs.Family {
		rd := g.read()
		st := g.stats(rd)
		fams := []obs.Family{
			obs.GaugeFamily("fbs_gateway_config_epoch", "Sequence number of the live config epoch.", float64(st.Epoch)),
			obs.CounterFamily("fbs_gateway_swaps_total", "Completed zero-downtime config swaps.", st.Swaps),
			obs.CounterFamily("fbs_gateway_received_total", "Datagrams pulled off gateway listeners.", st.Received),
			obs.CounterFamily("fbs_gateway_delivered_total", "Accepted datagrams handed to the tenant mode.", st.Delivered),
			obs.CounterFamily("fbs_gateway_echoed_total", "Echo replies sealed and sent.", st.Echoed),
			obs.CounterFamily("fbs_gateway_echo_failures_total", "Echo replies that failed to seal or send.", st.EchoFailures),
			obs.CounterFamily("fbs_gateway_no_tenant_total", "Datagrams whose destination matched no tenant.", st.NoTenant),
			obs.CounterFamily("fbs_gateway_absorbed_total", "Prefilter control frames absorbed at the gateway.", st.Absorbed),
			obs.GaugeFamily("fbs_gateway_tenants", "Tenants in the live config epoch.", float64(len(st.Tenants))),
		}
		flows := obs.Family{
			Name: "fbs_gateway_active_flows",
			Help: "Active flows per tenant in the live epoch.",
			Type: "gauge",
		}
		for _, ts := range st.Tenants {
			flows.Samples = append(flows.Samples, obs.Sample{
				Labels: []obs.Label{{Key: "tenant", Value: ts.Name}},
				Value:  float64(ts.ActiveFlows),
			})
		}
		fams = append(fams, flows,
			obs.CounterFamily("fbs_gateway_accepted_total", "Datagrams accepted by any tenant shard of any config epoch.", st.Accepted),
			obs.DropsFamily("fbs_gateway_drops_total", "Datagrams refused by any tenant shard of any config epoch, by drop reason.", rd.total.Drops),
		)

		// Per-shard endpoint families for the live epoch, through the
		// same exposition path a standalone endpoint uses.
		if rd.epoch == nil {
			return fams
		}
		epochLbl := obs.Label{Key: "config_epoch", Value: strconv.FormatUint(rd.epoch.seq, 10)}
		for _, t := range rd.tenants {
			for i, snap := range t.shards {
				lbls := []obs.Label{{Key: "tenant", Value: t.plane.cfg.Name}, {Key: "shard", Value: strconv.Itoa(i)}, epochLbl}
				fams = append(fams, obs.EndpointFamilies(snap, lbls...)...)
				fams = append(fams, obs.ReplayPeerFamily(t.plane.grp.Shard(i).ReplayPerPeer(), lbls...))
			}
		}
		return fams
	})
}
