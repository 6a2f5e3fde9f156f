package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// This file is the scenario rig: everything a soak run does whatever
// fault it injects. The rig owns the world (CA, directory, identities),
// the in-memory network, endpoint attachment, the sequence-marking receiver
// loop, the sequence-stamped payload, draining the network into the
// receiver's books, the retransmission rounds that must complete the
// transfer on soft state alone, and the opening of the verdict: drained,
// complete, no overflow, conservation. A scenario (chaos.go, crash.go,
// flood.go) adds its phases and the invariants only it asserts.
// reconfig.go, whose traffic is lockstep echoes rather than a one-way
// transfer, stands on the world, the network, attach, payload and the
// report header, and leaves the transfer half unused.

// ReportHeader is the verdict every scenario report leads with. It is
// embedded, so its fields serialise flat under their own names.
type ReportHeader struct {
	// Scenario names the run.
	Scenario string
	// Complete reports whether every unique datagram arrived.
	Complete bool
	// Violations lists every reconciliation equation that failed; empty
	// means the run reconciled exactly.
	Violations []string
}

// Report is a scenario report of any kind: fbschaos runs its five
// matrices through it, and `fbsstat bench-validate` re-checks the
// header from the serialised form.
type Report interface {
	Header() *ReportHeader
	Summary() string
}

// Header returns h: embedding ReportHeader makes a report a Report.
func (h *ReportHeader) Header() *ReportHeader { return h }

func (h *ReportHeader) fail(format string, args ...any) {
	h.Violations = append(h.Violations, fmt.Sprintf(format, args...))
}

// conserve asserts the conservation equation for one incarnation of a
// receiver: every copy enqueued at its port was either accepted or
// dropped with exactly one reason.
func (h *ReportHeader) conserve(epoch string, accepted, drops uint64, port transport.PortStats) {
	if got, enq := accepted+drops, enqueued(port); got != enq {
		h.fail("%sconservation: accepted(%d)+drops(%d)=%d != enqueued(%d)", epoch, accepted, drops, got, enq)
	}
}

// verdictLines is the tail every Summary ends with.
func (h *ReportHeader) verdictLines() string {
	if len(h.Violations) == 0 {
		return "  reconciliation: exact\n"
	}
	return "  VIOLATION: " + strings.Join(h.Violations, "\n  VIOLATION: ") + "\n"
}

// enqueued counts every copy the network placed in the port's queue.
func enqueued(ps transport.PortStats) uint64 {
	return ps.DeliveredClean + ps.DeliveredDup + ps.DeliveredCorrupt + ps.Injected
}

// sumDrops totals a per-reason drop ledger.
func sumDrops(drops [core.NumDropReasons]uint64) (n uint64) {
	for _, d := range drops {
		n += d
	}
	return n
}

// dropLines renders the non-zero buckets of a per-reason drop ledger.
func dropLines(drops [core.NumDropReasons]uint64) (s string) {
	for reason := core.DropReason(1); int(reason) < core.NumDropReasons; reason++ {
		if n := drops[reason]; n > 0 {
			s += fmt.Sprintf("  drop %s: %d\n", reason, n)
		}
	}
	return s
}

// transferDefaults fills the knobs every transfer scenario shares; only
// the payload size a scenario defaults to is its own.
func transferDefaults(datagrams, payloadBytes, maxRounds *int, payloadDefault int) {
	if *datagrams <= 0 {
		*datagrams = 64
	}
	if *payloadBytes < 8 {
		*payloadBytes = payloadDefault
	}
	if *maxRounds <= 0 {
		*maxRounds = 10
	}
}

// drainDeadline bounds one drain: missing it is a violation, not a hang.
const drainDeadline = 15 * time.Second

// rig is one transfer scenario's standing equipment. The embedded header
// is the scenario report's own, so what the rig finds lands in the
// report.
type rig struct {
	*ReportHeader
	// The world: every principal's certificate, the verifier that trusts
	// their CA, and their TestGroup identities.
	dir *cert.StaticDirectory
	ver *cert.Verifier
	ids map[principal.Address]*principal.Identity

	net          *transport.Network
	receiver     principal.Address
	queue        int // per-port queue length
	payloadBytes int

	wg  sync.WaitGroup
	got []atomic.Bool // got[seq]: datagram seq of the transfer was accepted
}

// newRig builds the world — a fresh 512-bit CA named root and, for
// receiver and others, an identity and a certificate valid from an hour
// ago for a day — and a network degraded by link. The transfer to
// complete is want datagrams of payloadBytes each. Ports hold 4096
// datagrams, enough that a scenario can assert Overflow == 0 and keep
// its accounting exact.
func newRig(hdr *ReportHeader, root string, link transport.Impairments, payloadBytes, want int, receiver principal.Address, others ...principal.Address) (*rig, error) {
	ca, err := cert.NewAuthority(root, 512)
	if err != nil {
		return nil, err
	}
	r := &rig{
		ReportHeader: hdr,
		dir:          cert.NewStaticDirectory(),
		ver:          &cert.Verifier{CAKey: ca.PublicKey(), CA: root},
		ids:          make(map[principal.Address]*principal.Identity),
		net:          transport.NewNetwork(link),
		receiver:     receiver,
		queue:        4096,
		payloadBytes: payloadBytes,
		got:          make([]atomic.Bool, want),
	}
	now := time.Now()
	for _, addr := range append(others, receiver) {
		id, err := principal.NewIdentity(addr, cryptolib.TestGroup)
		if err != nil {
			return nil, err
		}
		c, err := ca.Issue(id, now.Add(-time.Hour), now.Add(24*time.Hour))
		if err != nil {
			return nil, err
		}
		r.dir.Publish(c)
		r.ids[addr] = id
	}
	return r, nil
}

// attach builds addr's endpoint from cfg, filling in what the world
// decides: identity, verifier, a port on the network unless the scenario
// attached one itself, and the directory unless the scenario wraps its
// own. (The MAC is left at Config's zero value, keyed MD5 in prefix
// form.)
func (r *rig) attach(addr principal.Address, cfg core.Config) (*core.Endpoint, error) {
	if cfg.Transport == nil {
		tr, err := r.net.Attach(addr, r.queue)
		if err != nil {
			return nil, err
		}
		cfg.Transport = tr
	}
	cfg.Identity, cfg.Verifier = r.ids[addr], r.ver
	if cfg.Directory == nil {
		cfg.Directory = r.dir
	}
	return core.NewEndpoint(cfg)
}

// receive starts e's receiver loop, which runs until e is closed: open
// everything, through the batched data plane when batch is set;
// rejections are counted by the endpoint, accepted datagrams are marked
// off by sequence number.
func (r *rig) receive(e *core.Endpoint, batch bool) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		var one [1]transport.Datagram
		for {
			accepted, err := one[:0], error(nil)
			if batch {
				accepted, _, err = e.ReceiveBatch(32)
			} else if one[0], err = e.Receive(); err == nil {
				accepted = one[:]
			}
			if errors.Is(err, transport.ErrClosed) {
				return
			}
			for _, dg := range accepted {
				if len(dg.Payload) < 4 {
					continue
				}
				if seq := binary.BigEndian.Uint32(dg.Payload); int(seq) < len(r.got) {
					r.got[seq].Store(true)
				}
			}
		}
	}()
}

// stop closes the endpoints and waits for their receiver loops.
func (r *rig) stop(eps ...*core.Endpoint) {
	for _, e := range eps {
		e.Close()
	}
	r.wg.Wait()
}

// missing lists the transfer's sequence numbers not yet accepted.
func (r *rig) missing() (out []uint32) {
	for seq := range r.got {
		if !r.got[seq].Load() {
			out = append(out, uint32(seq))
		}
	}
	return out
}

// payload builds datagram seq of the transfer: the sequence number, then
// filler derived from it.
func (r *rig) payload(seq uint32) []byte {
	p := make([]byte, r.payloadBytes)
	binary.BigEndian.PutUint32(p, seq)
	for i := 4; i < len(p); i++ {
		p[i] = byte(seq + uint32(i))
	}
	return p
}

// drain blocks until e, the endpoint attached at the receiver's port,
// has processed every copy the network enqueued for it; books read
// after a drain that timed out carry the violation.
func (r *rig) drain(e *core.Endpoint) {
	if !poll(drainDeadline, func() bool {
		r.net.Quiesce(time.Second)
		enq := enqueued(r.net.PortStats(r.receiver))
		m := e.Snapshot()
		return m.Received+sumDrops(m.Drops) >= enq && r.net.Pending() == 0
	}) {
		r.fail("network failed to drain before the books were read")
	}
}

// poll checks done every millisecond until it holds or timeout passes,
// and reports whether it held.
func poll(timeout time.Duration, done func() bool) bool {
	for deadline := time.Now().Add(timeout); !done(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// recover runs retransmission rounds until the transfer completes or
// maxRounds is spent: each round calls beforeRound (if any), re-sends
// what is still missing and drains e. It sets Complete and returns the
// rounds taken.
func (r *rig) recover(e *core.Endpoint, maxRounds int, send func(seq uint32), beforeRound func()) (rounds int) {
	missing := r.missing()
	for ; len(missing) > 0 && rounds < maxRounds; missing = r.missing() {
		rounds++
		if beforeRound != nil {
			beforeRound()
		}
		for _, seq := range missing {
			send(seq)
		}
		r.drain(e)
	}
	r.Complete = len(missing) == 0
	return rounds
}

// verdict opens the reconciliation with what every transfer must show:
// it completed, the receiver's queue never overflowed (or the accounting
// is not exact), and the final incarnation's books conserve.
func (r *rig) verdict(rounds int, accepted, drops uint64, port transport.PortStats) {
	if !r.Complete {
		r.fail("transfer incomplete after %d retransmission rounds", rounds)
	}
	if port.Overflow != 0 {
		r.fail("receiver queue overflowed %d times; accounting not exact", port.Overflow)
	}
	r.conserve("", accepted, drops, port)
}
