package gateway

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Options wires the gateway into an environment: where identities and
// certificates come from and how listener transports are bound. The
// daemon fills these from its provisioning state and real UDP sockets;
// tests and netsim fill them from an in-memory domain and network.
type Options struct {
	// Identity returns the keying identity for a tenant (required).
	// Returning a different identity for the same address across a
	// swap is the key-rotation path: the new epoch's pair master keys
	// rebuild through upcalls while unaffected tenants keep theirs.
	Identity func(t TenantConfig) (*principal.Identity, error)
	// Listen binds the listener transport for a tenant (required).
	// Called once per tenant address; the transport then persists
	// across config epochs — swaps never rebind, which is what makes
	// them zero-downtime.
	Listen func(t TenantConfig) (transport.Transport, error)
	// Directory resolves peer certificates (required).
	Directory cert.Directory
	// Verifier checks certificate signatures (required).
	Verifier *cert.Verifier
	// Clock is the time source; nil means the real clock.
	Clock core.Clock
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) validate() error {
	if o.Identity == nil || o.Listen == nil {
		return errors.New("gateway: Options.Identity and Options.Listen are required")
	}
	if o.Directory == nil || o.Verifier == nil {
		return errors.New("gateway: Options.Directory and Options.Verifier are required")
	}
	return nil
}

// tenantPlane is one tenant's realised data plane within an epoch. The
// listener is resolved once, when the epoch is built: echoes go out on
// it without a lookup, and a plane whose tenant has since been removed
// finds it closed (the send fails and counts as an echo failure).
type tenantPlane struct {
	cfg TenantConfig
	id  *principal.Identity
	grp *core.ShardGroup
	ln  *listener
}

// epoch is one realised configuration: the immutable unit the atomic
// swap exchanges. Datagram dispatch pins the current epoch once per
// batch and holds it until the batch's echoes are sent, so a datagram is
// opened, and its echo sealed, entirely under one configuration.
type epoch struct {
	seq     uint64
	file    *Config
	tenants map[principal.Address]*tenantPlane
	// pins counts the batches holding this epoch; retire waits for it to
	// reach zero before it folds and closes the epoch's groups.
	pins atomic.Int64
}

// listener is a persistent receive socket. Listeners belong to the
// gateway, not to any epoch: endpoints send through them via a
// nop-close wrapper, and only the gateway's shutdown (or a tenant
// address disappearing from the config) actually closes one. It holds
// its tenant's refusal-log limiter, so a flood mutes only its tenant.
type listener struct {
	addr     principal.Address
	tr       transport.Transport
	refusals refusalLog
}

// sharedTransport lets every shard of every epoch send on one listener
// socket while keeping Endpoint.Close harmless: core endpoints close
// their transport when closed, and the listener must outlive them.
type sharedTransport struct{ transport.Transport }

func (sharedTransport) Close() error { return nil }

// Gateway is the long-running daemon core: persistent listeners, an
// atomically swappable config epoch, and cumulative accounting.
type Gateway struct {
	opts    Options
	current atomic.Pointer[epoch]

	// swapMu serialises configuration changes (swap, shutdown); the
	// datagram path never takes it.
	swapMu   sync.Mutex
	seq      atomic.Uint64
	swaps    atomic.Uint64
	draining atomic.Bool

	// listeners is only touched by swap and shutdown, under swapMu.
	listeners map[principal.Address]*listener

	// The cumulative ledger. Every datagram ever pulled off a listener is
	// counted in exactly one shard group, and every group is in exactly
	// one of three places: the live epoch, the retiring list (superseded,
	// still draining), or folded into retired. retiredMu guards the last
	// two and every move between the three — install and retire — so a
	// reading taken under it never misses a group or sees one twice. The
	// datagram path never takes it.
	retiredMu sync.Mutex
	retired   core.Snapshot
	retiring  []*core.ShardGroup

	// loops counts the receive loops and the sweeper; stop ends the
	// sweeper (the receive loops end when their listener closes).
	loops sync.WaitGroup
	stop  chan struct{}

	// Gateway-plane counters (everything endpoint counters can't see).
	received     atomic.Uint64 // datagrams pulled off listeners
	noTenant     atomic.Uint64 // no tenant keyed for the destination
	absorbed     atomic.Uint64 // prefilter control frames absorbed
	echoed       atomic.Uint64 // echo replies sealed and sent
	echoFailures atomic.Uint64 // echo seal/send failures
	delivered    atomic.Uint64 // accepted payloads handed to the mode
}

// New validates the environment and returns an idle gateway; Start
// realises the first config epoch.
func New(opts Options) (*Gateway, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Clock == nil {
		opts.Clock = core.RealClock{}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Gateway{opts: opts, listeners: make(map[principal.Address]*listener), stop: make(chan struct{})}, nil
}

// Start realises cfg as the first config epoch and begins serving.
func (g *Gateway) Start(cfg *Config) error {
	_, err := g.Swap(cfg)
	return err
}

// Epoch returns the current config epoch sequence number.
func (g *Gateway) Epoch() uint64 { return g.seq.Load() }

// CurrentConfig returns the configuration of the live epoch (nil
// before Start or after Shutdown).
func (g *Gateway) CurrentConfig() *Config {
	if ep := g.current.Load(); ep != nil {
		return ep.file
	}
	return nil
}

// SwapReport describes what a completed swap carried across.
type SwapReport struct {
	Epoch      uint64 `json:"epoch"`
	Certs      int    `json:"certs_handed_off"`
	MasterKeys int    `json:"master_keys_handed_off"`
	// DrainErr reports a retiring epoch whose batches missed the drain
	// deadline (they finish against freed-from-duty state; nothing is
	// lost, but the operator should know).
	DrainErr string `json:"drain_error,omitempty"`
}

// Swap atomically replaces the running configuration. The sequence is
// all-or-nothing on the build side — the new epoch's listeners,
// identities and shard groups are fully constructed (and warmed from
// the old epoch's keying caches) before the pointer moves, so a
// failing config is rejected while the old epoch keeps serving. After
// the pointer moves, the old epoch drains: the batches that pinned it
// finish against it, its counters are folded into the cumulative
// ledger, and its shards close (their transports are nop-close
// wrappers, so the shared listeners live on).
func (g *Gateway) Swap(cfg *Config) (*SwapReport, error) {
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	if g.draining.Load() {
		return nil, errors.New("gateway: shutting down")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	old := g.current.Load()
	if old != nil && cfg.AdminAddr != old.file.AdminAddr {
		return nil, errors.New("gateway: admin_addr cannot change across a reload (restart to move the admin plane)")
	}

	// Build phase: nothing live is touched until every tenant plane
	// stands. Listeners created for brand-new tenant addresses are
	// rolled back on failure; reused listeners are left untouched.
	next := &epoch{
		seq:     g.seq.Load() + 1,
		file:    cfg,
		tenants: make(map[principal.Address]*tenantPlane, len(cfg.Tenants)),
	}
	var newListeners []*listener
	fail := func(err error) (*SwapReport, error) {
		for _, p := range next.tenants {
			p.grp.Close()
		}
		for _, ln := range newListeners {
			ln.tr.Close()
			delete(g.listeners, ln.addr)
		}
		return nil, err
	}
	for _, tc := range cfg.Tenants {
		addr := principal.Address(tc.Address)
		ln, created, err := g.ensureListener(tc)
		if err != nil {
			return fail(fmt.Errorf("gateway: tenant %q: listen: %w", tc.Name, err))
		}
		if created {
			newListeners = append(newListeners, ln)
		}
		id, err := g.opts.Identity(tc)
		if err != nil {
			return fail(fmt.Errorf("gateway: tenant %q: identity: %w", tc.Name, err))
		}
		if id.Addr != addr {
			return fail(fmt.Errorf("gateway: tenant %q: identity keyed for %q, config says %q", tc.Name, id.Addr, addr))
		}
		base, err := tc.coreConfigFor()
		if err != nil {
			return fail(err)
		}
		tr := sharedTransport{ln.tr}
		grp, err := core.NewShardGroup(tc.shardsOrDefault(), func(int) (core.Config, error) {
			shardCfg := base // per-tenant Budget pointer is shared across shards: one tenant, one envelope
			shardCfg.Identity = id
			shardCfg.Transport = tr
			shardCfg.Directory = g.opts.Directory
			shardCfg.Verifier = g.opts.Verifier
			shardCfg.Clock = g.opts.Clock
			return shardCfg, nil
		})
		if err != nil {
			return fail(fmt.Errorf("gateway: tenant %q: %w", tc.Name, err))
		}
		next.tenants[addr] = &tenantPlane{cfg: tc, id: id, grp: grp, ln: ln}
	}

	// Warm phase: hand each tenant's key plane to its successor's — one
	// copy per certificate and master key, whatever the shard counts on
	// either side — so established peers keep flowing without a single
	// upcall. Master keys only cross when the tenant's identity is
	// unchanged — a rotation hands nothing over by design.
	report := &SwapReport{Epoch: next.seq}
	if old != nil {
		for addr, np := range next.tenants {
			if op := old.tenants[addr]; op != nil {
				hs := op.grp.HandoffSoftState(np.grp)
				report.Certs += hs.Certs
				report.MasterKeys += hs.MasterKeys
			}
		}
	}

	// Commit phase: one atomic store redirects every batch that pins
	// the epoch after this line.
	g.install(next)
	g.seq.Store(next.seq)
	g.swaps.Add(1)
	for _, ln := range newListeners {
		g.loops.Add(1)
		go g.recvLoop(ln)
	}
	if old == nil {
		g.loops.Add(1)
		go g.sweepLoop()
	}

	// Retire phase: the batches holding the old epoch finish, its totals
	// move to the cumulative ledger, and tenant addresses dropped from
	// the config lose their listeners.
	if old != nil {
		if err := g.retire(old, cfg.drainTimeout()); err != nil {
			report.DrainErr = err.Error()
		}
		for addr, ln := range g.listeners {
			if _, keep := next.tenants[addr]; !keep {
				ln.tr.Close()
				delete(g.listeners, addr)
			}
		}
	}
	g.opts.Logf("gateway: epoch %d live (%d tenants, %d certs / %d master keys handed off)",
		next.seq, len(next.tenants), report.Certs, report.MasterKeys)
	return report, nil
}

// install makes next the live epoch (nil: none, at shutdown) and puts
// the groups of the epoch it supersedes on the retiring list, as one
// step under retiredMu. Caller holds swapMu.
func (g *Gateway) install(next *epoch) {
	g.retiredMu.Lock()
	defer g.retiredMu.Unlock()
	if old := g.current.Load(); old != nil {
		for _, p := range old.tenants {
			g.retiring = append(g.retiring, p.grp)
		}
	}
	g.current.Store(next)
}

// retire drains a superseded epoch: it waits until no batch pins the
// epoch, then moves each tenant's group from the retiring list into the
// retired fold and closes it. A batch that still holds the epoch at the
// deadline is reported (it finishes against freed-from-duty state;
// nothing is lost). Caller holds swapMu, and old is no longer current,
// so its pin count only falls.
func (g *Gateway) retire(old *epoch, timeout time.Duration) error {
	var err error
	deadline := time.Now().Add(timeout)
	for n := old.pins.Load(); n != 0; n = old.pins.Load() {
		if time.Now().After(deadline) {
			err = fmt.Errorf("epoch %d: %d batches still in flight after %v", old.seq, n, timeout)
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	for _, p := range old.tenants {
		g.retiredMu.Lock()
		g.retired.Merge(p.grp.Snapshot())
		g.retiring = slices.DeleteFunc(g.retiring, func(r *core.ShardGroup) bool { return r == p.grp })
		g.retiredMu.Unlock()
		p.grp.Close()
	}
	return err
}

// sweepInterval is how often the sweeper module of Figure 7 runs over
// the live epoch: the interval core.Endpoint.StartSweeper defaults to.
const sweepInterval = time.Minute

// sweepLoop is the gateway's standing sweeper, started with the first
// epoch and stopped by Shutdown. Without it idle flows are only ever
// reclaimed when a budget is already hot, and the active-flow gauges
// only grow.
func (g *Gateway) sweepLoop() {
	defer g.loops.Done()
	t := time.NewTicker(sweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.sweep()
		case <-g.stop:
			return
		}
	}
}

// sweep expires idle flows on every shard of the current epoch. A
// retiring epoch needs none: it closes as soon as it has drained. Sweep
// takes one FAM stripe lock at a time and pins no epoch, so it neither
// delays a swap nor is delayed by one.
func (g *Gateway) sweep() {
	ep := g.current.Load()
	if ep == nil {
		return
	}
	for _, p := range ep.tenants {
		for i := 0; i < p.grp.NumShards(); i++ {
			p.grp.Shard(i).Sweep()
		}
	}
}

// ensureListener reuses the persistent listener for a tenant address
// or binds a new one. Caller holds swapMu.
func (g *Gateway) ensureListener(tc TenantConfig) (*listener, bool, error) {
	addr := principal.Address(tc.Address)
	if ln, ok := g.listeners[addr]; ok {
		return ln, false, nil
	}
	tr, err := g.opts.Listen(tc)
	if err != nil {
		return nil, false, err
	}
	ln := &listener{addr: addr, tr: tr}
	g.listeners[addr] = ln
	return ln, true, nil
}

// maxBatch is how many datagrams a receive loop takes off its socket,
// opens, echoes and sends in one turn. It matches the transport's vector
// call, so a full batch is one recvmmsg and (GSO permitting) one sendmsg
// per peer.
const maxBatch = 32

// recvLoop pulls batches off one listener for the gateway's lifetime:
// ReceiveBatch blocks for the first datagram and then takes only what
// the socket already holds, so a lone datagram is a batch of one and
// never waits for company. Dispatch is synchronous: by the time the
// loop returns to ReceiveBatch, every datagram of the batch is fully
// processed (opened, and echoed if the tenant echoes), which is what
// lets shutdown reason "loops joined ⇒ nothing in flight".
func (g *Gateway) recvLoop(ln *listener) {
	defer g.loops.Done()
	l := &batchLoop{g: g}
	in := make([]transport.Datagram, maxBatch)
	for {
		n, err := transport.ReceiveBatch(ln.tr, in)
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || g.draining.Load() {
				return
			}
			// An undecodable frame lands here, so anyone who can reach
			// the socket can cause this line: it is rate-limited like a
			// refusal, in the slot for errors that carry no DropReason.
			if suppressed, ok := ln.refusals.allow(core.DropNone, g.opts.Clock.Now()); ok {
				g.opts.Logf("gateway: listener %s: receive: %v (%d more suppressed since the last reason-less line)",
					ln.addr, err, suppressed)
			}
			continue
		}
		l.dispatch(in[:n])
	}
}

// steered is a set of datagrams, each bound to the tenant plane and
// shard that must process it.
type steered struct {
	dgs    []transport.Datagram
	planes []*tenantPlane
	shards []int
}

func (s *steered) reset() {
	s.dgs, s.planes, s.shards = s.dgs[:0], s.planes[:0], s.shards[:0]
}

func (s *steered) add(dg transport.Datagram, plane *tenantPlane, shard int) {
	s.dgs = append(s.dgs, dg)
	s.planes = append(s.planes, plane)
	s.shards = append(s.shards, shard)
}

// takeBucket removes the first datagram's bucket — every datagram bound
// to the same plane and shard, in arrival order — and appends it to
// run. A batch is mostly one train, so this is mostly one pass.
func (s *steered) takeBucket(run []transport.Datagram) ([]transport.Datagram, *tenantPlane, *core.Endpoint) {
	plane, shard := s.planes[0], s.shards[0]
	kept := 0
	for i := range s.dgs {
		if s.planes[i] == plane && s.shards[i] == shard {
			run = append(run, s.dgs[i])
			continue
		}
		s.dgs[kept], s.planes[kept], s.shards[kept] = s.dgs[i], s.planes[i], s.shards[i]
		kept++
	}
	s.dgs, s.planes, s.shards = s.dgs[:kept], s.planes[:kept], s.shards[:kept]
	return run, plane, plane.grp.Shard(shard)
}

// batchLoop is one receive loop's scratch: every slice is reused from
// batch to batch, so the steady state allocates nothing of its own.
type batchLoop struct {
	g *Gateway

	arrivals steered              // the batch, steered into the pinned epoch's shards
	echoes   steered              // accepted payloads awaiting their echo seal
	run      []transport.Datagram // the bucket at hand
	res      [maxBatch]core.BatchResult
	clear    []byte // cleartext of the batch's accepted datagrams
	wire     []byte // the batch's sealed echoes

	out   []transport.Datagram // sealed echoes queued for outLn
	outLn *listener
}

// pin returns the live epoch with one more batch holding it, or nil when
// there is none. The count goes up before current is read again: if the
// epoch is still live after the increment, its retire has not begun and
// will see the pin; if a swap moved current in between, the pin is given
// back and taken on the successor.
func (g *Gateway) pin() *epoch {
	for {
		ep := g.current.Load()
		if ep == nil {
			return nil
		}
		ep.pins.Add(1)
		if g.current.Load() == ep {
			return ep
		}
		ep.pins.Add(-1)
	}
}

// dispatch processes one batch under one epoch: it pins the live epoch,
// opens every datagram and seals every echo with that epoch's groups,
// sends the echoes and unpins. A swap that commits meanwhile waits in
// retire until the unpin, so nothing the batch started is refused, and
// one peer's echoes leave in arrival order.
func (l *batchLoop) dispatch(batch []transport.Datagram) {
	g := l.g
	g.received.Add(uint64(len(batch)))
	ep := g.pin()
	if ep == nil {
		return
	}
	l.clear, l.wire = l.clear[:0], l.wire[:0]
	l.echoes.reset()
	l.open(ep, batch)
	l.echo()
	ep.pins.Add(-1)
}

// open steers batch into ep's shards, opens it one bucket at a time and
// queues an echo for each accepted payload.
func (l *batchLoop) open(ep *epoch, batch []transport.Datagram) {
	g := l.g
	var noTenant, delivered, absorbed uint64
	l.arrivals.reset()
	for _, dg := range batch {
		plane := ep.tenants[dg.Destination]
		if plane == nil {
			noTenant++
			continue
		}
		l.arrivals.add(dg, plane, plane.grp.ShardOfIncoming(dg))
	}
	for len(l.arrivals.dgs) > 0 {
		run, plane, shard := l.arrivals.takeBucket(l.run[:0])
		l.run = run
		res := l.res[:len(run)]
		l.clear, _ = shard.OpenBatch(l.clear, run, res)
		for i, r := range res {
			switch {
			case r.Err == nil:
				delivered++
				if plane.cfg.Mode != "sink" {
					l.echoes.add(transport.Datagram{
						Source:      plane.id.Addr,
						Destination: run[i].Source,
						Payload:     l.clear[r.Off : r.Off+r.Len],
					}, plane, plane.grp.ShardOfPair(plane.id.Addr, run[i].Source))
				}
			case r.Drop == core.DropNone:
				// An error with no verdict is an absorbed challenge frame.
				absorbed++
			default:
				// Refused: the shard's drop ledger has the reason and the count.
				g.logRefusal(plane.ln, r.Drop, r.Err, "refused datagram", run[i].Source)
			}
		}
	}
	g.noTenant.Add(noTenant)
	g.delivered.Add(delivered)
	g.absorbed.Add(absorbed)
}

// echo seals the queued echoes one bucket at a time, each with the plane
// that opened it, and sends them.
func (l *batchLoop) echo() {
	g := l.g
	var failures uint64
	for len(l.echoes.dgs) > 0 {
		run, plane, shard := l.echoes.takeBucket(l.run[:0])
		l.run = run
		res := l.res[:len(run)]
		l.wire, _ = shard.SealBatch(l.wire, run, plane.cfg.SecretEcho, res)
		for i, r := range res {
			if r.Err != nil {
				failures++
				g.logRefusal(plane.ln, r.Drop, r.Err, "echo seal refused", run[i].Destination)
				continue
			}
			l.queue(plane.ln, transport.Datagram{
				Source:      run[i].Source,
				Destination: run[i].Destination,
				Payload:     l.wire[r.Off : r.Off+r.Len],
				Trace:       r.Trace,
			})
		}
	}
	g.echoFailures.Add(failures)
	l.flush()
}

// queue adds a sealed echo to the pending send. Echoes leave on their
// plane's listener; a batch that spans listeners (a frame addressed to
// another tenant than the socket it arrived on) is sent in one piece
// per listener.
func (l *batchLoop) queue(ln *listener, dg transport.Datagram) {
	if ln != l.outLn {
		l.flush()
		l.outLn = ln
	}
	l.out = append(l.out, dg)
}

// flush hands the pending echoes to their listener in one SendBatch. A
// send error is about the first datagram not handed off: it is counted
// and logged, and the rest of the batch is still sent.
func (l *batchLoop) flush() {
	g := l.g
	out := l.out
	for len(out) > 0 {
		n, err := transport.SendBatch(l.outLn.tr, out)
		g.echoed.Add(uint64(n))
		if err == nil || n >= len(out) {
			break
		}
		g.echoFailures.Add(1)
		g.logRefusal(l.outLn, core.DropNone, err, "echo send failed", out[n].Destination)
		out = out[n+1:]
	}
	l.out = l.out[:0]
}

// refusalLogInterval is how often one DropReason may produce a log
// line. A flood is exactly when refusals are most frequent, so logging
// each one would let an attacker buy log volume — and the CPU to format
// it — at one spoofed datagram per line.
const refusalLogInterval = time.Second

// refusalLog rate-limits one tenant's per-datagram refusal lines: per
// DropReason (slot DropNone takes errors that carry no reason, such as a
// failed send), when the next line may be written and how many
// refusals have gone unlogged since the last one. The drop ledger stays
// the exact record; the log is a sample of it.
type refusalLog [core.NumDropReasons]struct {
	next       atomic.Int64 // unix nanos
	suppressed atomic.Uint64
}

// allow reports whether a line for reason may be written now and, if
// so, how many same-reason lines went unwritten since the previous one.
func (r *refusalLog) allow(reason core.DropReason, at time.Time) (suppressed uint64, ok bool) {
	slot := &r[reason]
	now := at.UnixNano()
	next := slot.next.Load()
	if now < next || !slot.next.CompareAndSwap(next, now+int64(refusalLogInterval)) {
		slot.suppressed.Add(1)
		return 0, false
	}
	return slot.suppressed.Swap(0), true
}

// logRefusal writes at most one line per tenant (ln, its listener) and
// DropReason per refusalLogInterval: the refusal at hand as the example,
// formatted only then, plus the number of the tenant's same-reason
// refusals suppressed since the previous line.
func (g *Gateway) logRefusal(ln *listener, reason core.DropReason, err error, what string, peer principal.Address) {
	if suppressed, ok := ln.refusals.allow(reason, g.opts.Clock.Now()); ok {
		g.opts.Logf("gateway: tenant %s: %s, peer %s: %v (reason %s; %d more suppressed since its last line)",
			ln.addr, what, peer, err, reason, suppressed)
	}
}

// FlushPeer evicts one peer's keying state from the named tenant — its
// key plane, and the flow keys every shard holds for that peer — the
// hot-rotation path when a peer's certificate is reissued: only flows
// with that peer re-key; everything else keeps its soft state.
func (g *Gateway) FlushPeer(tenant string, peer principal.Address) error {
	ep := g.current.Load()
	if ep == nil {
		return errors.New("gateway: not running")
	}
	for _, plane := range ep.tenants {
		if plane.cfg.Name == tenant {
			for i := 0; i < plane.grp.NumShards(); i++ {
				plane.grp.Shard(i).FlushPeer(peer)
			}
			return nil
		}
	}
	return fmt.Errorf("gateway: no tenant %q", tenant)
}

// TenantSnapshot folds the shards of the named tenant in the live
// epoch. It is the external witness for warm handoff: an epoch created
// by a swap that carried master keys across reports zero
// Keying.MasterKeyComputes for peers that were already flowing.
func (g *Gateway) TenantSnapshot(tenant string) (core.Snapshot, error) {
	ep := g.current.Load()
	if ep == nil {
		return core.Snapshot{}, errors.New("gateway: not running")
	}
	for _, plane := range ep.tenants {
		if plane.cfg.Name == tenant {
			return plane.grp.Snapshot(), nil
		}
	}
	return core.Snapshot{}, fmt.Errorf("gateway: no tenant %q", tenant)
}

// TenantStats is one tenant's slice of a stats snapshot.
type TenantStats struct {
	Name        string            `json:"name"`
	Address     string            `json:"address"`
	Shards      int               `json:"shards"`
	Accepted    uint64            `json:"accepted"`
	Sent        uint64            `json:"sent"`
	ActiveFlows int               `json:"active_flows"`
	Drops       map[string]uint64 `json:"drops,omitempty"`
}

// Stats is a point-in-time accounting snapshot. The cumulative fields
// (Received, Accepted, Drops, ...) include every retired epoch, so
//
//	Received == Accepted + ΣDrops + NoTenant + Absorbed
//
// holds across any number of swaps whenever EchoFailures is zero — the
// gateway-level restatement of the repo's exact drop-ledger
// reconciliation. (A failed echo seal charges the shared per-reason
// ledger from the seal side; each such refusal is also counted in
// EchoFailures, which is how to tell the two apart.)
type Stats struct {
	Epoch        uint64 `json:"epoch"`
	Swaps        uint64 `json:"swaps"`
	Received     uint64 `json:"received"`
	Accepted     uint64 `json:"accepted"`
	Delivered    uint64 `json:"delivered"`
	Echoed       uint64 `json:"echoed"`
	EchoFailures uint64 `json:"echo_failures"`
	NoTenant     uint64 `json:"no_tenant"`
	Absorbed     uint64 `json:"absorbed"`
	// RetryStarved is always 0: a batch pins its epoch, so no datagram is
	// refused by a swap and retried. It stays because the end-to-end
	// benchmark's ledger check (bench/gwbench) still reads it.
	RetryStarved uint64            `json:"retry_starved"`
	ActiveFlows  int               `json:"active_flows"`
	Drops        map[string]uint64 `json:"drops,omitempty"`
	Tenants      []TenantStats     `json:"tenants,omitempty"`
}

// reading is one consistent look at the ledger: the live epoch with each
// tenant's shards read once (tenants in name order), and total, the fold
// of retired + retiring + live whose counters are the cumulative ones.
type reading struct {
	epoch   *epoch
	tenants []tenantReading
	total   core.Snapshot
}

type tenantReading struct {
	plane  *tenantPlane
	fold   core.Snapshot
	shards []core.Snapshot
}

func (g *Gateway) read() reading {
	g.retiredMu.Lock()
	defer g.retiredMu.Unlock()
	r := reading{epoch: g.current.Load(), total: g.retired}
	for _, grp := range g.retiring {
		r.total.Merge(grp.Snapshot())
	}
	if r.epoch == nil {
		return r
	}
	for _, p := range r.epoch.tenants {
		fold, shards := p.grp.Snapshots()
		r.tenants = append(r.tenants, tenantReading{plane: p, fold: fold, shards: shards})
		r.total.Merge(fold)
	}
	sort.Slice(r.tenants, func(i, j int) bool { return r.tenants[i].plane.cfg.Name < r.tenants[j].plane.cfg.Name })
	return r
}

// Stats snapshots the cumulative ledger plus the live epoch.
func (g *Gateway) Stats() Stats { return g.stats(g.read()) }

func (g *Gateway) stats(r reading) Stats {
	st := Stats{
		Epoch:        g.seq.Load(),
		Swaps:        g.swaps.Load(),
		Received:     g.received.Load(),
		Accepted:     r.total.Received,
		Delivered:    g.delivered.Load(),
		Echoed:       g.echoed.Load(),
		EchoFailures: g.echoFailures.Load(),
		NoTenant:     g.noTenant.Load(),
		Absorbed:     g.absorbed.Load(),
		Drops:        core.DropMap(r.total.Drops),
	}
	for _, t := range r.tenants {
		st.ActiveFlows += t.fold.ActiveFlows
		st.Tenants = append(st.Tenants, TenantStats{
			Name:        t.plane.cfg.Name,
			Address:     t.plane.cfg.Address,
			Shards:      len(t.shards),
			Accepted:    t.fold.Received,
			Sent:        t.fold.Sent,
			ActiveFlows: t.fold.ActiveFlows,
			Drops:       core.DropMap(t.fold.Drops),
		})
	}
	return st
}

// Shutdown is the graceful exit: stop the sweeper and intake (close
// every listener), join the loops (synchronous dispatch means joined
// receive loops ⇒ nothing mid-datagram), retire the final epoch, and
// return the final cumulative stats. The returned error reports a
// missed drain deadline; the stats are valid either way.
func (g *Gateway) Shutdown(timeout time.Duration) (Stats, error) {
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	if !g.draining.Swap(true) {
		close(g.stop)
	}

	for addr, ln := range g.listeners {
		ln.tr.Close()
		delete(g.listeners, addr)
	}
	g.loops.Wait()

	var firstErr error
	if ep := g.current.Load(); ep != nil {
		g.install(nil)
		if err := g.retire(ep, timeout); err != nil {
			firstErr = fmt.Errorf("gateway: drain %w", err)
		}
	}
	st := g.Stats()
	g.opts.Logf("gateway: drained at epoch %d: %d received, %d accepted, %d echoed",
		st.Epoch, st.Received, st.Accepted, st.Echoed)
	return st, firstErr
}
