// Package gateway is the deployable face of the repo: a long-running
// datagram-security gateway assembled from the library subsystems
// (core endpoints and shards, budgets, admission, prefilter, keying,
// obs) behind a declarative configuration with zero-downtime
// reconfiguration.
//
// The operational model leans on the paper's central property: every
// byte of per-flow state an endpoint holds is soft — rebuildable from
// the key-management plane. That is what makes reconfiguration cheap
// enough to do live. A configuration change builds a complete new data
// plane (a config epoch), warms it from the old one's keying caches
// (HandoffSoftState: certificates always, master keys when the
// identity is unchanged), atomically redirects new datagrams to it,
// and quiesces the old epoch — in-flight datagrams finish against the
// configuration they arrived under, and no flow is ever dropped:
// anything not handed off re-derives through the normal upcall path.
// Listener sockets live outside the epochs, so the swap never rebinds
// a port and never loses a datagram to a closed socket.
package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"fbs/internal/core"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("64s", "10m") in the config file, while still accepting plain
// nanosecond numbers.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "64s"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case float64:
		*d = Duration(time.Duration(x))
		return nil
	case string:
		dur, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("gateway: bad duration %q: %w", x, err)
		}
		*d = Duration(dur)
		return nil
	default:
		return fmt.Errorf("gateway: duration must be a string or number, got %T", v)
	}
}

// Config is the gateway's declarative configuration: what to serve and
// how. It is the unit of atomic reconfiguration — SIGHUP reload, the
// admin API's POST /config, and programmatic Swap all take a complete
// Config and realise it as a new config epoch.
type Config struct {
	// AdminAddr is the admin/observability listen address (loopback
	// recommended — the plane is unauthenticated). Empty disables the
	// admin server. Fixed for the life of the process: changing it in
	// a reload is rejected rather than silently ignored.
	AdminAddr string `json:"admin_addr,omitempty"`
	// DrainTimeout bounds how long a retiring epoch (or the final
	// shutdown) waits for in-flight datagrams. Default 5s.
	DrainTimeout Duration `json:"drain_timeout,omitempty"`
	// Tenants are the isolated data planes. Each keys for its own
	// principal address with its own shards, policy, budget, admission
	// and prefilter settings; datagrams route to a tenant by their
	// destination address.
	Tenants []TenantConfig `json:"tenants"`
}

// TenantConfig is one tenant's slice of the gateway: an independent
// sharded endpoint with its own identity, policy and resource
// envelope. Tenancy is partitioning by construction — tenants share no
// caches, budgets, quotas or counters.
type TenantConfig struct {
	// Name labels the tenant in metrics, stats and the admin API.
	Name string `json:"name"`
	// Address is the principal address this tenant keys for; incoming
	// datagrams with this destination route here. Must be unique.
	Address string `json:"address"`
	// Listen is the transport bind spec handed to Options.Listen —
	// for the UDP daemon a host:port, for the in-memory harness
	// unused. Empty means the Listen hook picks (e.g. Address).
	Listen string `json:"listen,omitempty"`
	// Shards is the number of data-plane shards; default 1.
	Shards int `json:"shards,omitempty"`
	// Suite names the default cipher suite ("DES", "AES-128-GCM",
	// "ChaCha20-Poly1305", ...); default AES-128-GCM.
	Suite string `json:"suite,omitempty"`
	// AcceptSuites is the accept-set for incoming datagrams, by suite
	// name. Empty leaves the endpoint's default acceptance policy.
	AcceptSuites []string `json:"accept_suites,omitempty"`
	// Mode selects what the gateway does with accepted payloads:
	// "echo" (default) seals each payload back to its sender — the
	// round trip the reconfiguration tests account end to end — and
	// "sink" just counts them.
	Mode string `json:"mode,omitempty"`
	// SecretEcho encrypts echoed bodies (echo mode only).
	SecretEcho bool `json:"secret_echo,omitempty"`
	// FreshnessWindow is the receive-side timestamp window; 0 keeps
	// the core default (10m). Anything else must be at least 1m, the
	// resolution of header timestamps.
	FreshnessWindow Duration `json:"freshness_window,omitempty"`
	// FlowIdleTimeout ends a flow after this idle gap; 0 keeps the
	// core default policy.
	FlowIdleTimeout Duration `json:"flow_idle_timeout,omitempty"`
	// FlowMaxPackets rekeys a flow after this many datagrams (0 = no
	// limit).
	FlowMaxPackets uint64 `json:"flow_max_packets,omitempty"`
	// ReplayCache enables exact duplicate suppression.
	ReplayCache bool `json:"replay_cache,omitempty"`
	// StateBudgetBytes is this tenant's soft-state hard limit (0 =
	// unbudgeted); pressure starts at 80% of it. Because every tenant
	// owns a private budget, one tenant's state can never evict
	// another's.
	StateBudgetBytes int64 `json:"state_budget_bytes,omitempty"`
	// Admission bounds this tenant's new-peer keying work.
	Admission *AdmissionConfig `json:"admission,omitempty"`
	// Prefilter configures this tenant's stateless edge pre-filter.
	Prefilter *PrefilterConfig `json:"prefilter,omitempty"`
}

// AdmissionConfig mirrors core.AdmissionConfig in config-file form.
type AdmissionConfig struct {
	UpcallRate  float64 `json:"upcall_rate,omitempty"`
	UpcallBurst int     `json:"upcall_burst,omitempty"`
}

// PrefilterConfig switches on core's adaptive edge pre-filter; its
// tuning is core's constants.
type PrefilterConfig struct {
	Enable bool `json:"enable"`
}

// suiteByName resolves a registered suite by its canonical name.
func suiteByName(name string) core.Suite {
	for _, s := range core.Suites() {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// drainTimeout returns the configured drain bound or the 5s default.
func (c *Config) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return time.Duration(c.DrainTimeout)
	}
	return 5 * time.Second
}

// Validate checks the configuration without touching any sockets or
// building any state — the daemon's -check flag and every swap run it
// first, so a bad config is refused while the old epoch keeps serving.
func (c *Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("gateway: config needs at least one tenant")
	}
	names := make(map[string]bool, len(c.Tenants))
	addrs := make(map[string]bool, len(c.Tenants))
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.Name == "" {
			return fmt.Errorf("gateway: tenant %d has no name", i)
		}
		if names[t.Name] {
			return fmt.Errorf("gateway: duplicate tenant name %q", t.Name)
		}
		names[t.Name] = true
		if t.Address == "" {
			return fmt.Errorf("gateway: tenant %q has no address", t.Name)
		}
		if addrs[t.Address] {
			return fmt.Errorf("gateway: duplicate tenant address %q", t.Address)
		}
		addrs[t.Address] = true
		if t.Shards < 0 {
			return fmt.Errorf("gateway: tenant %q: negative shard count", t.Name)
		}
		if t.Suite != "" && suiteByName(t.Suite) == nil {
			return fmt.Errorf("gateway: tenant %q: unknown suite %q", t.Name, t.Suite)
		}
		for _, s := range t.AcceptSuites {
			if suiteByName(s) == nil {
				return fmt.Errorf("gateway: tenant %q: unknown accept suite %q", t.Name, s)
			}
		}
		switch t.Mode {
		case "", "echo", "sink":
		default:
			return fmt.Errorf("gateway: tenant %q: unknown mode %q (want echo or sink)", t.Name, t.Mode)
		}
		if t.FreshnessWindow > 0 && t.FreshnessWindow < Duration(time.Minute) {
			// Header timestamps count whole minutes and freshness is
			// measured from the start of the sender's minute, so a datagram
			// sealed late in its minute arrives reading up to 60 s old.
			return fmt.Errorf("gateway: tenant %q: freshness_window %v is below the 1m resolution of header timestamps, "+
				"so nearly every datagram would be refused as stale (use 0 for the 10m default, or at least 1m)",
				t.Name, time.Duration(t.FreshnessWindow))
		}
		// core.NewBudget would quietly run a negative limit unbudgeted.
		if t.StateBudgetBytes < 0 {
			return fmt.Errorf("gateway: tenant %q: negative state_budget_bytes %d", t.Name, t.StateBudgetBytes)
		}
		// core would quietly read a negative admission value as "off" or
		// as its default, so a sign typo would run without the gate or at
		// another setting.
		if a := t.Admission; a != nil && (a.UpcallRate < 0 || a.UpcallBurst < 0) {
			return fmt.Errorf("gateway: tenant %q: negative admission value (upcall_rate %v, upcall_burst %d)",
				t.Name, a.UpcallRate, a.UpcallBurst)
		}
	}
	return nil
}

// Clone deep-copies the config via its JSON form (the admin API's
// PATCH path mutates a clone, never the live epoch's config).
func (c *Config) Clone() (*Config, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	out := new(Config)
	if err := json.Unmarshal(b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Parse decodes and validates a JSON config. Unknown fields are
// errors: a typoed knob should fail loudly at load, not silently run
// with defaults.
func Parse(b []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	cfg := new(Config)
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("gateway: parse config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// shardsOrDefault applies the single-shard default.
func (t *TenantConfig) shardsOrDefault() int {
	if t.Shards > 0 {
		return t.Shards
	}
	return 1
}

// coreConfigFor translates a tenant section into the per-shard
// core.Config (minus Identity, Transport, Directory, Verifier and
// Clock, which the gateway injects).
func (t *TenantConfig) coreConfigFor() (core.Config, error) {
	cfg := core.Config{}
	suiteName := t.Suite
	if suiteName == "" {
		suiteName = "AES-128-GCM"
	}
	s := suiteByName(suiteName)
	if s == nil {
		return cfg, fmt.Errorf("gateway: tenant %q: unknown suite %q", t.Name, suiteName)
	}
	cfg.Cipher = s.ID()
	for _, name := range t.AcceptSuites {
		as := suiteByName(name)
		if as == nil {
			return cfg, fmt.Errorf("gateway: tenant %q: unknown accept suite %q", t.Name, name)
		}
		cfg.AcceptCiphers = append(cfg.AcceptCiphers, as.ID())
	}
	if t.FreshnessWindow > 0 {
		cfg.FreshnessWindow = time.Duration(t.FreshnessWindow)
	}
	if t.FlowIdleTimeout > 0 || t.FlowMaxPackets > 0 {
		idle := time.Duration(t.FlowIdleTimeout)
		if idle <= 0 {
			idle = 10 * time.Minute
		}
		cfg.Policy = core.ThresholdPolicy{Threshold: idle, MaxPackets: t.FlowMaxPackets}
	}
	cfg.EnableReplayCache = t.ReplayCache
	if t.StateBudgetBytes > 0 {
		cfg.StateBudget = core.NewBudget(t.StateBudgetBytes*8/10, t.StateBudgetBytes)
	}
	if a := t.Admission; a != nil {
		cfg.Admission = core.AdmissionConfig{
			UpcallRate:  a.UpcallRate,
			UpcallBurst: a.UpcallBurst,
		}
	}
	if pf := t.Prefilter; pf != nil && pf.Enable {
		cfg.Prefilter = core.PrefilterConfig{Enable: true}
	}
	return cfg, nil
}
