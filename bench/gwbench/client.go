package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fbs "fbs"
	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Legit payload layout. Everything after the fixed fields is seeded
// filler; the whole payload is compared byte for byte against the echo.
const (
	offSeq    = 0  // uint64: per-lane sequence number
	offSlot   = 8  // uint32: credit slot the datagram occupies
	offSentAt = 16 // int64: ns since the run's time base at seal
	offAux    = 24 // uint64: conversation id, read by the client Selector
	minPay    = 32
)

// lostAfter is how long a credit may stay out before it is written off
// as a failure and refilled. It is sized to outlast the stalls this kind
// of runner has (a vCPU descheduled for over 100 ms turned up about once
// in ten runs and wrote off a whole window of echoes that then arrived);
// a datagram the kernel really dropped is still found.
const lostAfter = 500 * time.Millisecond

// payloadSelector distinguishes flows by the conversation id the
// generator wrote into the payload, so one principal can hold several
// long-lived flows or start a fresh one per visit.
func payloadSelector(dg transport.Datagram) core.FlowID {
	id := core.FlowID{Src: dg.Source, Dst: dg.Destination}
	if len(dg.Payload) >= minPay {
		id.Aux = binary.BigEndian.Uint64(dg.Payload[offAux:])
	}
	return id
}

// trustAnchors is what every client endpoint shares: the directory of
// all certificates in the state file and the CA verifier.
type trustAnchors struct {
	dir   *cert.StaticDirectory
	certs map[principal.Address]*cert.Certificate
	ver   *cert.Verifier
}

func loadTrust(st *provisionState) (*trustAnchors, error) {
	ta := &trustAnchors{dir: cert.NewStaticDirectory(), certs: map[principal.Address]*cert.Certificate{}}
	for _, wire := range st.Certs {
		c, err := cert.Unmarshal(wire)
		if err != nil {
			return nil, fmt.Errorf("state: certificate: %w", err)
		}
		ta.dir.Publish(c)
		ta.certs[c.Subject] = c
	}
	n, ok := new(big.Int).SetString(st.CAN, 16)
	if !ok {
		return nil, errors.New("state: bad CA modulus")
	}
	e, ok := new(big.Int).SetString(st.CAE, 16)
	if !ok {
		return nil, errors.New("state: bad CA exponent")
	}
	ta.ver = &cert.Verifier{CAKey: cryptolib.RSAPublicKey{N: n, E: e}, CA: "fbsgw"}
	return ta, nil
}

// newClientEndpoint rebuilds a pre-provisioned client from the state
// file, as cmd/fbsgw's test helper of the same name does, but over a
// caller-supplied transport so many principals can share one socket.
func newClientEndpoint(st *provisionState, ta *trustAnchors, i int, name string, tr transport.Transport, w workload) (*fbs.Endpoint, error) {
	privHex, ok := st.ClientPrivate[name]
	if !ok {
		return nil, fmt.Errorf("state has no client %q", name)
	}
	priv, err := hex.DecodeString(privHex)
	if err != nil {
		return nil, err
	}
	own := ta.certs[principal.Address(name)]
	if own == nil {
		return nil, fmt.Errorf("state carries no certificate for %q", name)
	}
	id, err := principal.NewIdentityWithPrivate(principal.Address(name), own.Group(), new(big.Int).SetBytes(priv))
	if err != nil {
		return nil, err
	}
	cfg := fbs.Config{
		Identity:  id,
		Transport: tr,
		Directory: ta.dir,
		Verifier:  ta.ver,
		Cipher:    w.cipher,
		Selector:  payloadSelector,
		SFLSeed:   clientSFLSeed(i),
	}
	if w.floodKpps > 0 {
		// Only the sender-side cookie jar is wanted: it lets legit
		// traffic answer a challenge if the gateway's ladder ever asks.
		cfg.Prefilter = core.PrefilterConfig{Enable: true}
	}
	return fbs.NewEndpoint(cfg)
}

// lane is one generator socket with the client principals multiplexed
// over it and the closed loop that drives them. All lane state is
// guarded by mu; the receive goroutine and the watchdog are the only
// writers once a phase runs.
type lane struct {
	id   int
	udp  *transport.UDPTransport
	base time.Time
	// floodDue is when the flood sender's next burst is due (Unix ns; 0
	// with no flood). A lane that finds it passed yields its P.
	floodDue *atomic.Int64

	mu       sync.Mutex
	schedule // who sends next, on which conversation
	eps      map[principal.Address]*fbs.Endpoint
	pending  []transport.Datagram // sealed frames awaiting one SendBatch
	slots    []slot
	active   bool
	live     int // slots out
	nextSeq  uint64
	rtts     []uint32 // ns, this phase

	sent     atomic.Uint64
	verified atomic.Uint64
	lost     atomic.Uint64 // credits written off after lostAfter
	corrupt  atomic.Uint64 // echoes that opened but did not match
	stray    atomic.Uint64 // late, duplicate or unaddressed frames
}

type slot struct {
	live    bool
	seq     uint64
	sentAt  int64
	payload []byte
}

// lanePort is the Transport each multiplexed endpoint sees. Send only
// queues: the lane flushes a whole batch with one sendmmsg. Callers
// hold lane.mu.
type lanePort struct{ l *lane }

func (p lanePort) Send(dg transport.Datagram) error {
	p.l.pending = append(p.l.pending, dg)
	return nil
}
func (p lanePort) Receive() (transport.Datagram, error) {
	return transport.Datagram{}, errors.New("gwbench: lanes receive on the socket, not per endpoint")
}
func (p lanePort) Close() error { return nil }

func newLane(id int, base time.Time, w workload, seed uint64, gwUDP string, floodDue *atomic.Int64) (*lane, error) {
	udp, err := transport.NewUDPTransport(principal.Address(fmt.Sprintf("lane%d", id)), "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := udp.AddPeer(tenantAddr, gwUDP); err != nil {
		udp.Close()
		return nil, err
	}
	return &lane{id: id, udp: udp, base: base, floodDue: floodDue, schedule: schedule{w: w, seed: seed}, eps: map[principal.Address]*fbs.Endpoint{}}, nil
}

// schedule is a workload's seeded send sequence over a set of
// principals: the live lanes and the traced replica both draw from it.
type schedule struct {
	w      workload
	seed   uint64
	names  []principal.Address
	cursor uint64
	cold   []principal.Address // principals still owed their first-contact datagram
}

// next returns the principal and conversation id of the next datagram.
// Long-lived workloads rotate over (principal, flow) pairs; churn
// visits principals round-robin and gives each visit a conversation id
// no earlier visit used.
func (s *schedule) next() (principal.Address, uint64) {
	if len(s.cold) > 0 {
		name := s.cold[0]
		s.cold = s.cold[1:]
		return name, 0
	}
	c := s.cursor
	s.cursor++
	if s.w.churnLen > 0 {
		visit := c / uint64(s.w.churnLen)
		return s.names[visit%uint64(len(s.names))], s.seed<<32 | (visit + 1)
	}
	pair := c % uint64(len(s.names)*s.w.flows)
	return s.names[pair/uint64(s.w.flows)], pair % uint64(s.w.flows)
}

// writePayload fills p with the fixed fields and the seeded filler of
// datagram seq; the caller stamps offSentAt when it seals.
func writePayload(p []byte, seed, seq uint64, slot, lane int, aux uint64) {
	binary.BigEndian.PutUint64(p[offSeq:], seq)
	binary.BigEndian.PutUint32(p[offSlot:], uint32(slot))
	binary.BigEndian.PutUint32(p[offSlot+4:], uint32(lane))
	binary.BigEndian.PutUint64(p[offAux:], aux)
	fill(p[minPay:], seed^seq<<8^uint64(lane))
}

// fire seals one datagram into slot i and queues it. Caller holds mu.
func (l *lane) fire(i int) {
	s := &l.slots[i]
	name, aux := l.next()
	seq := l.nextSeq
	l.nextSeq++
	p := s.payload
	writePayload(p, l.seed, seq, i, l.id, aux)
	now := int64(time.Since(l.base))
	binary.BigEndian.PutUint64(p[offSentAt:], uint64(now))
	if !s.live {
		l.live++
	}
	s.live, s.seq, s.sentAt = true, seq, now
	l.sent.Add(1)
	// Seal copies the payload, so the slot's copy stays the reference
	// the echo is compared against.
	// A seal or send failure leaves the credit out; it is written off as
	// lost after lostAfter like any other missing echo.
	_ = l.eps[name].Send(transport.Datagram{Source: name, Destination: tenantAddr, Payload: p}, true)
}

// xorshift is the benchmark's seeded generator (xorshift64*); its state
// must be non-zero.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x >> 12
	*x ^= *x << 25
	*x ^= *x >> 27
	return uint64(*x) * 0x2545F4914F6CDD1D
}

// fill writes deterministic filler derived from seed.
func fill(b []byte, seed uint64) {
	x := xorshift(seed | 1)
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, x.next())
		b = b[8:]
	}
	v := x.next()
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

// flush sends whatever the last critical section queued.
func (l *lane) flush(batch []transport.Datagram) {
	if len(batch) == 0 {
		return
	}
	_, _ = l.udp.SendBatch(batch) // an unsent frame's credit times out as lost
}

// takePending hands the queued frames to the caller. Caller holds mu.
func (l *lane) takePending() []transport.Datagram {
	out := l.pending
	l.pending = nil
	return out
}

// receiveLoop opens and verifies echoes and, while a phase is active,
// refills each returned credit at once: that is the closed loop.
func (l *lane) receiveLoop() {
	buf := make([]transport.Datagram, 32)
	for {
		n, err := l.udp.ReceiveBatch(buf)
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return
			}
			continue
		}
		l.mu.Lock()
		for _, dg := range buf[:n] {
			l.onEcho(dg)
		}
		batch := l.takePending()
		l.mu.Unlock()
		l.flush(batch)
		// At window 32 a lane never blocks, and Go preempts a busy
		// goroutine only every 10 ms: with both Ps held by lanes the flood
		// sender's 1 ms timer ran up to 8 ms late. Yielding when a burst is
		// due lets the timer fire.
		if due := l.floodDue.Load(); due != 0 && time.Now().UnixNano() >= due {
			runtime.Gosched()
		}
	}
}

func (l *lane) onEcho(dg transport.Datagram) {
	ep := l.eps[dg.Destination]
	if ep == nil {
		l.stray.Add(1)
		return
	}
	opened, err := ep.Open(dg)
	if err != nil {
		// A challenge frame was absorbed into the cookie jar, or the echo
		// was refused; a refused echo's credit times out as lost.
		return
	}
	p := opened.Payload
	if len(p) < minPay {
		l.corrupt.Add(1)
		return
	}
	i := int(binary.BigEndian.Uint32(p[offSlot:]))
	if i >= len(l.slots) {
		l.corrupt.Add(1)
		return
	}
	s := &l.slots[i]
	if !s.live || s.seq != binary.BigEndian.Uint64(p[offSeq:]) {
		l.stray.Add(1) // an echo that outlived its credit
		return
	}
	if !bytes.Equal(p, s.payload) {
		l.corrupt.Add(1)
		return
	}
	l.rtts = append(l.rtts, uint32(int64(time.Since(l.base))-s.sentAt))
	l.verified.Add(1)
	l.settle(i)
}

// settle disposes of slot i's credit once its datagram is accounted
// for: refilled while a phase runs, retired otherwise. Caller holds mu.
func (l *lane) settle(i int) {
	if l.active {
		l.fire(i)
		return
	}
	l.slots[i].live = false
	l.live--
}

// reap writes off credits that have been out longer than lostAfter.
func (l *lane) reap() {
	l.mu.Lock()
	now := int64(time.Since(l.base))
	for i := range l.slots {
		s := &l.slots[i]
		if s.live && now-s.sentAt > int64(lostAfter) {
			l.lost.Add(1)
			l.settle(i)
		}
	}
	batch := l.takePending()
	l.mu.Unlock()
	l.flush(batch)
}

// start opens window credits and fires them all.
func (l *lane) start(window int) {
	l.mu.Lock()
	l.slots = make([]slot, window)
	for i := range l.slots {
		l.slots[i].payload = make([]byte, l.w.payload)
	}
	l.live = 0
	l.active = true
	for i := range l.slots {
		l.fire(i)
	}
	batch := l.takePending()
	l.mu.Unlock()
	l.flush(batch)
}

// stop ends refilling and waits for the credits still out; the
// watchdog writes off any that never return.
func (l *lane) stop() []uint32 {
	l.mu.Lock()
	l.active = false
	l.mu.Unlock()
	for {
		l.mu.Lock()
		live := l.live
		l.mu.Unlock()
		if live == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rtts := append([]uint32(nil), l.rtts...)
	l.rtts = l.rtts[:0]
	return rtts
}

// generator is the whole client side: the lanes, the watchdog that
// writes off lost credits, and (on flood workloads) the flood socket.
type generator struct {
	lanes    []*lane
	floodDue atomic.Int64 // see lane.floodDue; written by the flood sender
	wg       sync.WaitGroup
	quit     chan struct{}
}

// newGenerator opens up to two sockets, builds every provisioned
// client endpoint and deals the principals round-robin onto the lanes.
func newGenerator(st *provisionState, w workload, seed uint64, base time.Time) (*generator, error) {
	ta, err := loadTrust(st)
	if err != nil {
		return nil, err
	}
	g := &generator{quit: make(chan struct{})}
	nLanes := 2
	if w.principals < nLanes {
		nLanes = w.principals
	}
	for i := 0; i < nLanes; i++ {
		l, err := newLane(i, base, w, seed, st.TenantUDP[tenantAddr], &g.floodDue)
		if err != nil {
			g.close()
			return nil, err
		}
		g.lanes = append(g.lanes, l)
	}
	for i, name := range w.clientNames() {
		l := g.lanes[i%nLanes]
		ep, err := newClientEndpoint(st, ta, i, name, lanePort{l}, w)
		if err != nil {
			g.close()
			return nil, err
		}
		l.eps[principal.Address(name)] = ep
		l.names = append(l.names, principal.Address(name))
	}
	for _, l := range g.lanes {
		g.wg.Add(1)
		go func(l *lane) { defer g.wg.Done(); l.receiveLoop() }(l)
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(lostAfter / 5)
		defer t.Stop()
		for {
			select {
			case <-g.quit:
				return
			case <-t.C:
				for _, l := range g.lanes {
					l.reap()
				}
			}
		}
	}()
	return g, nil
}

func (g *generator) close() {
	close(g.quit)
	for _, l := range g.lanes {
		l.udp.Close()
	}
	g.wg.Wait()
	for _, l := range g.lanes {
		for _, ep := range l.eps {
			ep.Close()
		}
	}
}

// counts is a point-in-time copy of the lanes' counters.
type counts struct {
	sent, verified, lost, corrupt, stray uint64
}

func (g *generator) counts() counts {
	var c counts
	for _, l := range g.lanes {
		c.sent += l.sent.Load()
		c.verified += l.verified.Load()
		c.lost += l.lost.Load()
		c.corrupt += l.corrupt.Load()
		c.stray += l.stray.Load()
	}
	return c
}

// start splits window credits over the lanes and opens the loop. A
// lane is only brought in once it can have two credits, so windows 1 and
// 2 run on the first socket alone: generator and gateway then each have
// one busy thread and a vCPU to themselves. (With one credit on each of
// two sockets, three busy threads share two vCPUs and the median round
// trip moved 25 % between identical runs.)
func (g *generator) start(window int) {
	used := window / 2
	if used > len(g.lanes) {
		used = len(g.lanes)
	}
	if used < 1 {
		used = 1
	}
	for _, l := range g.lanes[:used] {
		l.start(window / used)
	}
}

// stop closes the loop and returns every round-trip time of the phase.
func (g *generator) stop() []uint32 {
	var rtts []uint32
	for _, l := range g.lanes {
		rtts = append(rtts, l.stop()...)
	}
	return rtts
}

// warmTimeout bounds the whole of warm. At baseline it takes one to two
// seconds; a gateway that needs thirty is not going to be measured.
const warmTimeout = 30 * time.Second

// warm sends one datagram from every principal — the first contact
// that makes each side compute the pair's master key — then runs the
// normal schedule until warm further echoes have been verified. The
// loop is left running; the caller stops it. It gives up, with the end
// of the gateway's log, when the gateway exits, when more credits have
// been written off than a healthy run ever loses, or after warmTimeout.
func (g *generator) warm(window, warm int, gw *gatewayProc) error {
	before := g.counts()
	var principals uint64
	for _, l := range g.lanes {
		l.mu.Lock()
		l.cold = append([]principal.Address(nil), l.names...)
		principals += uint64(len(l.names))
		l.mu.Unlock()
	}
	g.start(window)
	target := before.verified + principals + uint64(warm)
	deadline := time.After(warmTimeout)
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		c := g.counts()
		if c.verified >= target {
			return nil
		}
		if lost := c.lost - before.lost; lost > uint64(4*window) {
			return fmt.Errorf("warm-up: %d credits lost with %d of %d echoes verified; fbsgw log ends:\n%s",
				lost, c.verified-before.verified, target-before.verified, gw.logTail())
		}
		select {
		case <-gw.exited:
			return fmt.Errorf("fbsgw exited during warm-up: %v; its log ends:\n%s", gw.exitErr, gw.logTail())
		case <-deadline:
			return fmt.Errorf("warm-up: %d of %d echoes verified after %v; fbsgw log ends:\n%s",
				c.verified-before.verified, target-before.verified, warmTimeout, gw.logTail())
		case <-tick.C:
		}
	}
}

// floodName is the i'th spoofed source principal. The first eight
// bytes — the gateway sketch's default prefix — take only 16 values, so
// each prefix's score sits decisively above the shed threshold once the
// ladder engages instead of hovering at it.
func floodName(i int) principal.Address {
	return principal.Address(fmt.Sprintf("spoof-%x.%02x", i>>8&0xf, i&0xff))
}

const floodNames = 4096

// flood is the open-loop spoofed sender: bursts of perTick frames every
// millisecond from its own socket, never reading replies.
type flood struct {
	udp   *transport.UDPTransport
	gw    string        // the gateway's socket, as procUDPKey names it
	due   *atomic.Int64 // generator.floodDue
	pool  []transport.Datagram
	sent  atomic.Uint64
	quit  chan struct{}
	done  chan struct{}
	lates []uint32 // ns each burst left after it was due
}

// newFlood pre-builds the seeded frame pool: three quarters well-formed
// AEAD-sealed datagrams from un-provisioned principals (valid header,
// fresh timestamp, random tag and body — indistinguishable from real
// traffic until the gateway fails to key the peer), one quarter random
// bytes.
func newFlood(gwUDP string, w workload, seed uint64, due *atomic.Int64) (*flood, error) {
	udp, err := transport.NewUDPTransport("flood", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := udp.AddPeer(tenantAddr, gwUDP); err != nil {
		udp.Close()
		return nil, err
	}
	f := &flood{udp: udp, gw: procUDPKey(gwUDP), due: due, pool: floodPool(w, seed, 8192), quit: make(chan struct{}), done: make(chan struct{})}
	if _, err := udpBacklog(f.gw); err != nil {
		udp.Close()
		return nil, err
	}
	return f, nil
}

// floodBacklogLimit is how many bytes may wait on the gateway's socket
// before the flood holds its next burst back. The kernel charges a small
// datagram 832 bytes and the default receive buffer (208 KiB) holds 256
// of them; stopping at 96 KiB leaves room for more than a window of
// legit datagrams and a burst.
const floodBacklogLimit = 96 << 10

// procUDPKey renders an IPv4 "host:port" the way /proc/net/udp writes a
// socket's local_address.
func procUDPKey(hostPort string) string {
	ap, err := netip.ParseAddrPort(hostPort)
	if err != nil || !ap.Addr().Is4() {
		return hostPort // matches no line; udpBacklog reports it
	}
	ip := ap.Addr().As4()
	return fmt.Sprintf("%08X:%04X", binary.LittleEndian.Uint32(ip[:]), ap.Port())
}

// udpBacklog returns the bytes queued for receipt on the UDP socket
// bound to key, from /proc/net/udp: the flood's only view of the
// gateway, taken like every other reading from outside the program.
func udpBacklog(key string) (int64, error) {
	table, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(table), "\n") {
		fields := strings.Fields(line)
		if len(fields) > 4 && fields[1] == key {
			_, rx, _ := strings.Cut(fields[4], ":")
			return strconv.ParseInt(rx, 16, 64)
		}
	}
	return 0, fmt.Errorf("/proc/net/udp lists no socket at %s", key)
}

func floodPool(w workload, seed uint64, n int) []transport.Datagram {
	rng := xorshift(seed*0x9E3779B97F4A7C15 | 1)
	next := rng.next
	now := core.TimestampOf(time.Now())
	pool := make([]transport.Datagram, n)
	for i := range pool {
		src := floodName(int(next() % floodNames))
		var payload []byte
		if i%4 == 3 {
			payload = make([]byte, 16+next()%96)
			fill(payload, next())
		} else {
			h := core.Header{
				Version:    core.HeaderVersion,
				Flags:      core.FlagSecret,
				MAC:        cryptolib.MACAEAD,
				Cipher:     w.cipher,
				SFL:        core.SFL(next()),
				Confounder: uint32(i + 1),
				Timestamp:  now,
			}
			fill(h.MACValue[:], next())
			payload = h.Encode(make([]byte, 0, core.HeaderSize+w.payload))
			payload = payload[:core.HeaderSize+w.payload]
			fill(payload[core.HeaderSize:], next())
		}
		pool[i] = transport.Datagram{Source: src, Destination: tenantAddr, Payload: payload}
	}
	return pool
}

// run sends at kpps until stop. A burst that cannot leave on time is
// sent as soon as possible and its lateness recorded; none is skipped.
// Two rules keep the flood from overflowing the gateway's socket buffer
// and taking legit datagrams down with it, which would measure the
// kernel's tail drop and the host's stalls, not the program. Bursts are
// kept at least half a tick apart: a sender that the scheduler held up
// for 8 ms (it happens, with two saturated lanes beside it) would
// otherwise send eight bursts back to back. And a burst waits while more
// than floodBacklogLimit is queued on the gateway's socket: a gateway
// whose vCPU the host took away for 20 ms (about one session in ten)
// otherwise found its buffer full of flood and lost up to a window of
// legit datagrams.
func (f *flood) run(kpps int) {
	defer close(f.done)
	const tick = time.Millisecond
	perTick := kpps // kpps × 1 ms
	start := time.Now()
	var last time.Time
	pos := 0
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * tick)
		if earliest := last.Add(tick / 2); earliest.After(due) {
			due = earliest
		}
		for {
			f.due.Store(due.UnixNano())
			select {
			case <-f.quit:
				f.due.Store(0)
				return
			case <-time.After(time.Until(due)):
			}
			// A socket that cannot be read any more (the gateway is gone)
			// holds nothing back: the session fails elsewhere.
			if queued, err := udpBacklog(f.gw); err != nil || queued <= floodBacklogLimit {
				break
			}
			due = time.Now().Add(tick / 4)
		}
		last = time.Now()
		f.lates = append(f.lates, uint32(last.Sub(start.Add(time.Duration(k)*tick))))
		if pos+perTick > len(f.pool) {
			pos = 0
		}
		n, _ := f.udp.SendBatch(f.pool[pos : pos+perTick])
		f.sent.Add(uint64(n))
		pos += perTick
	}
}

func (f *flood) stop() {
	close(f.quit)
	<-f.done
	f.udp.Close()
}
