package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	fbs "fbs"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/gateway"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// The traced run. Spans come from the benchmark's own files, around the
// public calls gateway.handle makes — UDPTransport.Receive →
// ShardGroup.ShardOfIncoming + Endpoint.Open → Endpoint.Seal →
// UDPTransport.Send — replayed in one goroutine over real loopback
// sockets with the workload's seeded sequence. Nothing inside the
// product is instrumented. The calls beneath Open and Seal that a
// gateway-side span cannot see (suite, header codec, FAM, keying) are
// timed alone, at the workload's size and suite.

// tracedLayers are the per-layer metrics only the traced run reports.
var tracedLayers = []metricSpec{
	{name: "transport.recv_us", unit: "us", better: "lower"},
	{name: "transport.send_us", unit: "us", better: "lower"},
	{name: "core.open_us", unit: "us", better: "lower"},
	{name: "core.seal_us", unit: "us", better: "lower"},
	{name: "core.suite.seal_us", unit: "us", better: "lower"},
	{name: "core.suite.open_us", unit: "us", better: "lower"},
	{name: "core.header.codec_us", unit: "us", better: "lower"},
	{name: "core.open_newflow_us", unit: "us", better: "lower"},
	{name: "core.open_newpeer_us", unit: "us", better: "lower"},
	{name: "core.fam.classify_hit_us", unit: "us", better: "lower"},
	{name: "core.fam.classify_miss_us", unit: "us", better: "lower"},
	{name: "core.keying.flowkey_us", unit: "us", better: "lower"},
	{name: "core.keying.masterkey_miss_us", unit: "us", better: "lower"},
	{name: "cert.verify_us", unit: "us", better: "lower"},
	{name: "cryptolib.dh_shared_us", unit: "us", better: "lower"},
	{name: "core.open_refuse_us", unit: "us", better: "lower"},
	{name: "core.replay.check_us", unit: "us", better: "lower"},
	{name: "gateway.dispatch_us", unit: "us", better: "lower"},
	{name: "model.sum_us", unit: "us", better: "lower"},
	{name: "model.coverage", unit: "share", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.datagrams", unit: "count", better: "higher"},
}

// Span names, indexed by span.Name.
const (
	spHandle = iota
	spRecv
	spOpen
	spOpenRefuse
	spSeal
	spSend
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"gateway.handle", "transport.recv", "core.open", "core.open_refuse", "core.seal", "transport.send",
}

// span is one timed call: what, when (ns since the trace began), the
// index of the span that caused it (-1 for a root), and the datagram.
type span struct {
	Name   uint8
	Start  int64
	End    int64
	Parent int32
	Dgram  int32
}

// nopClose lets several endpoints share a socket the harness owns.
type nopClose struct{ transport.Transport }

func (nopClose) Close() error { return nil }

// replica is the in-harness gateway: the tenant's two shards on one
// learning UDP socket, plus the seeded clients that drive it.
type replica struct {
	w      workload
	seed   uint64
	dom    *fbs.Domain
	tenant *principal.Identity
	grp    *core.ShardGroup
	gwUDP  *transport.UDPTransport
	cliUDP *transport.UDPTransport
	flUDP  *transport.UDPTransport
	cli    map[principal.Address]*fbs.Endpoint
	sched  schedule
	seq    uint64
	pool   []transport.Datagram // flood frames, flood workloads only
	poolAt int
	// floodShare is the share of spoofed frames in what the replica is
	// offered, taken from the live run's phase A; floodOwed accumulates it
	// and a flood frame goes out each time it reaches one.
	floodShare, floodOwed float64

	base   time.Time
	spans  []span
	traced bool
	dgram  int32
}

// shardConfig restates gateway.TenantConfig.coreConfigFor for the
// fields gatewayConfig sets.
func shardConfig(w workload) core.Config {
	cfg := core.Config{Cipher: w.cipher}
	if w.floodKpps > 0 {
		cfg.Admission = core.AdmissionConfig{UpcallRate: floodUpcallRate, UpcallBurst: floodUpcallBurst}
		cfg.Prefilter = core.PrefilterConfig{Enable: true}
		cfg.StateBudget = core.NewBudget(floodBudgetBytes*8/10, floodBudgetBytes)
	}
	return cfg
}

func newReplica(w workload, seed uint64, floodShare float64) (*replica, error) {
	r := &replica{w: w, seed: seed, floodShare: floodShare, cli: map[principal.Address]*fbs.Endpoint{}, sched: schedule{w: w, seed: seed}}
	var err error
	if r.dom, err = fbs.NewDomain("gwbench"); err != nil {
		return nil, err
	}
	if r.tenant, err = r.dom.NewPrincipal(tenantAddr); err != nil {
		return nil, err
	}
	open := func(name string) (*transport.UDPTransport, error) {
		return transport.NewUDPTransport(principal.Address(name), "127.0.0.1:0")
	}
	if r.gwUDP, err = open(tenantAddr); err != nil {
		return nil, err
	}
	r.gwUDP.SetLearnPeers(true)
	if r.cliUDP, err = open("clients"); err != nil {
		r.close()
		return nil, err
	}
	if r.flUDP, err = open("flood"); err != nil {
		r.close()
		return nil, err
	}
	gwAddr := r.gwUDP.LocalAddr().String()
	for _, u := range []*transport.UDPTransport{r.cliUDP, r.flUDP} {
		if err := u.AddPeer(tenantAddr, gwAddr); err != nil {
			r.close()
			return nil, err
		}
	}
	base := shardConfig(w)
	r.grp, err = core.NewShardGroup(2, func(int) (core.Config, error) {
		cfg := base
		cfg.Identity, cfg.Transport = r.tenant, nopClose{r.gwUDP}
		cfg.Directory, cfg.Verifier = r.dom.Directory(), r.dom.Verifier()
		return cfg, nil
	})
	if err != nil {
		r.close()
		return nil, err
	}
	for i, name := range w.clientNames() {
		addr := principal.Address(name)
		id, err := r.dom.NewPrincipal(addr)
		if err != nil {
			r.close()
			return nil, err
		}
		ep, err := r.dom.NewEndpointOn(id, nopClose{r.cliUDP}, func(c *fbs.Config) {
			c.Cipher, c.Selector, c.SFLSeed = w.cipher, payloadSelector, clientSFLSeed(i)
			if w.floodKpps > 0 {
				c.Prefilter = core.PrefilterConfig{Enable: true}
			}
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.cli[addr] = ep
		r.sched.names = append(r.sched.names, addr)
	}
	if w.floodKpps > 0 {
		r.pool = floodPool(w, seed, 8192)
	}
	return r, nil
}

func (r *replica) close() {
	for _, ep := range r.cli {
		ep.Close()
	}
	if r.grp != nil {
		r.grp.Close()
	}
	for _, u := range []*transport.UDPTransport{r.gwUDP, r.cliUDP, r.flUDP} {
		if u != nil {
			u.Close()
		}
	}
}

func (r *replica) now() int64 { return int64(time.Since(r.base)) }

// handle is gateway.handle + gateway.reply, restated from public calls
// with a span around each. It reports whether an echo went out.
func (r *replica) handle() (echoed bool, err error) {
	id := r.dgram
	r.dgram++
	var t0, t1, t2, t3 int64
	if r.traced {
		t0 = r.now()
	}
	dg, err := r.gwUDP.Receive()
	if err != nil {
		return false, err
	}
	if r.traced {
		t1 = r.now()
	}
	opened, oerr := r.grp.Shard(r.grp.ShardOfIncoming(dg)).Open(dg)
	if r.traced {
		t2 = r.now()
	}
	if oerr == nil {
		out := transport.Datagram{Source: r.tenant.Addr, Destination: dg.Source, Payload: opened.Payload}
		sealed, serr := r.grp.Shard(r.grp.ShardOfPair(r.tenant.Addr, dg.Source)).Seal(out, true)
		if serr != nil {
			return false, fmt.Errorf("replica seal: %w", serr)
		}
		if r.traced {
			t3 = r.now()
		}
		if err := r.gwUDP.Send(sealed); err != nil {
			return false, fmt.Errorf("replica send: %w", err)
		}
		echoed = true
	}
	if r.traced {
		end := r.now()
		root := int32(len(r.spans))
		r.spans = append(r.spans, span{spHandle, t0, end, -1, id}, span{spRecv, t0, t1, root, id})
		if echoed {
			r.spans = append(r.spans, span{spOpen, t1, t2, root, id}, span{spSeal, t2, t3, root, id}, span{spSend, t3, end, root, id})
		} else {
			r.spans = append(r.spans, span{spOpenRefuse, t1, t2, root, id})
		}
	}
	return echoed, nil
}

// sendLegit seals and sends the schedule's next datagram and returns
// the payload the echo must match.
func (r *replica) sendLegit() ([]byte, error) {
	name, aux := r.sched.next()
	p := make([]byte, r.w.payload)
	writePayload(p, r.seed, r.seq, 0, 0, aux)
	r.seq++
	return p, r.cli[name].Send(transport.Datagram{Source: name, Destination: tenantAddr, Payload: p}, true)
}

func (r *replica) sendFlood() error {
	if r.poolAt == len(r.pool) {
		r.poolAt = 0
	}
	dg := r.pool[r.poolAt]
	r.poolAt++
	return r.flUDP.Send(dg)
}

// replay pushes n datagrams of the workload's mix through the replica
// in lockstep batches — the clients send a batch, the replica handles
// each datagram, the clients open and compare the echoes — and returns
// the time spent inside handle. On flood workloads spoofed datagrams
// are interleaved evenly at floodShare, the live phase A's measured mix.
func (r *replica) replay(n int) (time.Duration, error) {
	const batch = 16
	var inHandle time.Duration
	rx := make([]transport.Datagram, batch)
	for done := 0; done < n; {
		want := map[uint64][]byte{}
		k := 0
		for ; k < batch && done+k < n; k++ {
			if r.floodOwed += r.floodShare; r.floodOwed >= 1 {
				r.floodOwed--
				if err := r.sendFlood(); err != nil {
					return 0, err
				}
				continue
			}
			p, err := r.sendLegit()
			if err != nil {
				return 0, err
			}
			want[binary.BigEndian.Uint64(p[offSeq:])] = p
		}
		echoes := 0
		t := time.Now()
		for i := 0; i < k; i++ {
			echoed, err := r.handle()
			if err != nil {
				return 0, err
			}
			if echoed {
				echoes++
			}
		}
		inHandle += time.Since(t)
		done += k
		if echoes != len(want) {
			return 0, fmt.Errorf("replica echoed %d of %d legit datagrams", echoes, len(want))
		}
		for echoes > 0 {
			got, err := r.cliUDP.ReceiveBatch(rx)
			if err != nil {
				return 0, err
			}
			for _, dg := range rx[:got] {
				ep := r.cli[dg.Destination]
				if ep == nil {
					continue
				}
				opened, err := ep.Open(dg)
				if errors.Is(err, core.ErrChallengeAbsorbed) {
					continue
				}
				if err != nil {
					return 0, fmt.Errorf("client refused the replica's echo: %w", err)
				}
				if len(opened.Payload) < minPay || !bytes.Equal(opened.Payload, want[binary.BigEndian.Uint64(opened.Payload[offSeq:])]) {
					return 0, errors.New("replica echo differs from what was sent")
				}
				echoes--
			}
		}
	}
	return inHandle, nil
}

// runTraced builds the replica, makes first contact from every
// principal, replays the workload untraced and then traced, times the
// inner layers alone, writes the spans to path and returns the
// per-layer metrics. floodShare is the share of the live run's offered
// datagrams that were spoofed (0 without a flood); the replica is
// offered the same mix, so model.sum_us weights the refuse path as the
// live fbsgw.gw_cpu_us_per_dgram does.
func runTraced(w workload, seed uint64, floodShare float64, path string, fp fingerprint) (values, error) {
	if w.floodKpps == 0 {
		floodShare = 0
	}
	r, err := newReplica(w, seed, floodShare)
	if err != nil {
		return nil, err
	}
	defer r.close()
	// A datagram the kernel dropped would park the lockstep loop in
	// Receive for good; closing the sockets turns that into an error.
	watchdog := time.AfterFunc(100*time.Second, func() {
		r.gwUDP.Close()
		r.cliUDP.Close()
	})
	defer watchdog.Stop()

	r.sched.cold = append([]principal.Address(nil), r.sched.names...)
	if _, err := r.replay(len(r.sched.names)); err != nil {
		return nil, fmt.Errorf("first contact: %w", err)
	}
	n := w.traceDatagrams
	plain, err := r.replay(n)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	r.traced, r.base, r.dgram = true, time.Now(), 0
	r.spans = make([]span, 0, 5*n)
	timed, err := r.replay(n)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	r.traced = false

	v := values{"trace.datagrams": float64(n), "trace.overhead_ratio": ratio(float64(timed), float64(plain))}
	// Self time: a leaf's is its duration; handle's is what its children
	// leave uncovered, the glue between the calls.
	self := make([][]float64, numSpanNames)
	var total float64
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		d := float64(s.End-s.Start-covered[i]) / 1e3
		self[s.Name] = append(self[s.Name], d)
		total += d
	}
	v["transport.recv_us"] = median(self[spRecv])
	v["transport.send_us"] = median(self[spSend])
	v["core.open_us"] = median(self[spOpen])
	v["core.seal_us"] = median(self[spSeal])
	// The model is the mean over the workload's mix, not a sum of
	// medians: on peer_churn one open in four costs a hundred times the
	// median.
	v["model.sum_us"] = total / float64(n)

	if err := r.innerLayers(v); err != nil {
		return nil, err
	}
	if err := r.dispatch(v); err != nil {
		return nil, fmt.Errorf("gateway.dispatch: %w", err)
	}
	return v, writeTrace(path, w, fp, n, r.spans)
}

// sampleUs times fn per calls at a time, samples times, and returns the
// median per-call time in µs. Grouping keeps the clock reads (tens of
// ns each) out of sub-microsecond calls.
func sampleUs(samples, per int, fn func()) float64 {
	out := make([]float64, samples)
	for i := range out {
		t := time.Now()
		for j := 0; j < per; j++ {
			fn()
		}
		out[i] = float64(time.Since(t)) / 1e3 / float64(per)
	}
	return median(out)
}

// innerLayers times, each alone, the calls Open and Seal make beneath
// the replica's spans.
func (r *replica) innerLayers(v values) error {
	w := r.w
	peer := r.sched.names[0]
	now := time.Now()
	var failed error
	fail := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// Suite alone, at the workload's size.
	suite := core.SuiteByID(w.cipher)
	h := core.Header{Version: core.HeaderVersion, Flags: core.FlagSecret, Cipher: w.cipher, SFL: 7, Timestamp: core.TimestampOf(now)}
	h.MAC, h.Mode = suite.WireAlg(0, 0)
	var kf [16]byte
	fill(kf[:], r.seed)
	payload := make([]byte, w.payload)
	fill(payload, r.seed+1)
	buf := make([]byte, 0, core.HeaderSize+w.payload+suite.Overhead())
	var sealed []byte
	v["core.suite.seal_us"] = sampleUs(400, 16, func() {
		h.Confounder++
		var err error
		sealed, err = suite.SealAppend(h.Encode(buf[:0]), 0, h, kf, payload, false, nil)
		fail(err)
	})
	var hs core.Header
	if _, err := hs.Decode(sealed); err != nil {
		return err
	}
	plain := make([]byte, 0, w.payload+suite.Overhead())
	v["core.suite.open_us"] = sampleUs(400, 16, func() {
		_, _, err := suite.OpenAppend(plain[:0], hs, kf, sealed[core.HeaderSize:], nil)
		fail(err)
	})
	v["core.header.codec_us"] = sampleUs(400, 64, func() {
		var d core.Header
		_, err := d.Decode(h.Encode(buf[:0]))
		fail(err)
	})

	// FAM classify: the same flow again, then a flow never seen.
	fam, err := core.NewFAM(core.ThresholdPolicy{Threshold: 10 * time.Minute}, 0)
	if err != nil {
		return err
	}
	id := core.FlowID{Src: tenantAddr, Dst: peer}
	fam.Classify(id, now, w.payload)
	v["core.fam.classify_hit_us"] = sampleUs(400, 64, func() { fam.Classify(id, now, w.payload) })
	fresh := id
	v["core.fam.classify_miss_us"] = sampleUs(400, 64, func() { fresh.Aux++; fam.Classify(fresh, now, w.payload) })

	// Keying: flow-key derivation, then the whole miss chain and its two
	// expensive parts alone.
	var master [16]byte
	sfl := core.SFL(1)
	v["core.keying.flowkey_us"] = sampleUs(400, 64, func() {
		sfl++
		master = core.FlowKey(cryptolib.HashMD5, sfl, master, peer, tenantAddr)
	})
	ks := core.NewKeyService(r.tenant, r.dom.Directory(), r.dom.Verifier(), nil, core.KeyServiceConfig{})
	v["core.keying.masterkey_miss_us"] = sampleUs(40, 1, func() {
		ks.FlushPeer(peer)
		_, err := ks.MasterKey(peer)
		fail(err)
	})
	crt, err := r.dom.Directory().Lookup(peer)
	if err != nil {
		return err
	}
	v["cert.verify_us"] = sampleUs(40, 1, func() { fail(r.dom.Verifier().Verify(crt, peer, now)) })
	v["cryptolib.dh_shared_us"] = sampleUs(40, 1, func() {
		_, err := r.tenant.MasterKey(crt.Public)
		fail(err)
	})

	// Whole opens that leave the hit path: a fresh flow from a known
	// peer, then from a flushed one. They run against a plain endpoint of
	// the tenant, not the replica's shards: on a flood workload those
	// have by now spent their admission tokens and raised the ladder, and
	// would refuse a flushed peer instead of keying it.
	shard, err := core.NewEndpoint(core.Config{Identity: r.tenant, Transport: nopClose{r.gwUDP},
		Directory: r.dom.Directory(), Verifier: r.dom.Verifier(), Cipher: w.cipher})
	if err != nil {
		return err
	}
	defer shard.Close()
	aux := r.seed<<32 | 1<<31
	freshFlow := func() transport.Datagram {
		aux++
		p := make([]byte, w.payload)
		writePayload(p, r.seed, aux, 0, 0, aux)
		dg, err := r.cli[peer].Seal(transport.Datagram{Source: peer, Destination: tenantAddr, Payload: p}, true)
		fail(err)
		return dg
	}
	openUs := func(samples int, prep func()) float64 {
		out := make([]float64, samples)
		for i := range out {
			dg := freshFlow()
			prep()
			t := time.Now()
			_, err := shard.Open(dg)
			out[i] = float64(time.Since(t)) / 1e3
			fail(err)
		}
		return median(out)
	}
	v["core.open_newflow_us"] = openUs(400, func() {})
	v["core.open_newpeer_us"] = openUs(40, func() { shard.FlushPeer(peer) })

	// The refuse path as this workload's tenant is configured: spoofed
	// sealed datagrams and garbage, three to one.
	refuse := floodPool(w, r.seed+2, 512)
	at := 0
	v["core.open_refuse_us"] = sampleUs(128, 4, func() {
		dg := refuse[at%len(refuse)]
		at++
		if _, err := r.grp.Shard(r.grp.ShardOfIncoming(dg)).Open(dg); err == nil {
			fail(errors.New("replica accepted a spoofed datagram"))
		}
	})

	rc := core.NewReplayCache(10 * time.Minute)
	v["core.replay.check_us"] = sampleUs(400, 16, func() {
		h.Confounder++
		if rc.Check(peer, &h, now) != core.ReplayFresh {
			fail(errors.New("replay cache refused a fresh signature"))
		}
	})
	return failed
}

// dispatch measures what the gateway adds around Open and Seal: an
// in-process gateway.Gateway over the in-memory network is pinged one
// pre-sealed datagram at a time, and the replica's median open and seal
// are taken off the round trip. What remains is tenant lookup, shard
// steering, listenMu, the counters and two goroutine hand-offs.
func (r *replica) dispatch(v values) error {
	net := transport.NewNetwork(transport.Impairments{})
	gw, err := gateway.New(gateway.Options{
		Identity:  func(gateway.TenantConfig) (*principal.Identity, error) { return r.tenant, nil },
		Listen:    func(gateway.TenantConfig) (transport.Transport, error) { return net.Attach(tenantAddr, 0) },
		Directory: r.dom.Directory(),
		Verifier:  r.dom.Verifier(),
	})
	if err != nil {
		return err
	}
	cfg := r.w.gatewayConfig()
	cfg.AdminAddr = ""
	if err := gw.Start(cfg); err != nil {
		return err
	}
	defer gw.Shutdown(2 * time.Second) //nolint:errcheck // the ping loop below already verified every echo arrived
	peer := r.sched.names[0]
	port, err := net.Attach(peer, 0)
	if err != nil {
		return err
	}
	defer port.Close()
	cli := r.cli[peer]
	const pings = 2000
	walls := make([]float64, 0, pings)
	p := make([]byte, r.w.payload)
	for i := 0; i < pings+100; i++ {
		writePayload(p, r.seed, uint64(i), 0, 0, 0)
		sealed, err := cli.Seal(transport.Datagram{Source: peer, Destination: tenantAddr, Payload: p}, true)
		if err != nil {
			return err
		}
		t := time.Now()
		if err := port.Send(sealed); err != nil {
			return err
		}
		if _, err := port.Receive(); err != nil {
			return err
		}
		if i >= 100 { // the first hundred warm the in-process gateway's caches
			walls = append(walls, float64(time.Since(t))/1e3)
		}
	}
	d := median(walls) - v["core.open_us"] - v["core.seal_us"]
	if d < 0 {
		d = 0
	}
	v["gateway.dispatch_us"] = d
	return nil
}

// writeTrace writes every span, with the runner fingerprint, as one
// JSON document.
func writeTrace(path string, w workload, fp fingerprint, n int, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	head, err := json.Marshal(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Workload    string      `json:"workload"`
		Datagrams   int         `json:"datagrams"`
		Names       []string    `json:"span_names"`
		Columns     []string    `json:"span_columns"`
	}{fp, w.name, n, spanNames[:], []string{"name", "start_ns", "end_ns", "parent", "datagram"}})
	if err != nil {
		f.Close()
		return err
	}
	// head is an object; splice the span rows in before its closing brace.
	bw.Write(head[:len(head)-1])
	bw.WriteString(`,"spans":[`)
	for i, s := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "[%d,%d,%d,%d,%d]", s.Name, s.Start, s.End, s.Parent, s.Dgram)
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
