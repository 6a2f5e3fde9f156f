// Differential cross-validation: internal/core versus the deliberately
// naive internal/refmodel, driven by a seeded op stream.
//
// Both implementations are built over the same identities, the same
// simulated clock and identically seeded confounder/sfl sources, so
// every observable — sealed wire bytes, accept/drop verdicts, drop
// classification, flow key material, final counters — must agree
// exactly. The optimised endpoint runs with all its machinery (striped
// caches, MKD, single-flight keying) but without budgets or admission
// gates, which the reference deliberately lacks; within that envelope
// any divergence is a bug in one of the two implementations.
package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/refmodel"
	"fbs/internal/transport"
)

// DiffScenario parameterises one differential run.
type DiffScenario struct {
	// Seed drives the op-stream generator; equal seeds replay equal
	// runs bit for bit (identities are derived from fixed private
	// values, so even the wire bytes reproduce across processes).
	Seed uint64
	// Ops is how many generator steps to execute.
	Ops int
	// ReplayCache enables exact-duplicate suppression on both sides
	// (the default for Ops > 0 scenarios built by callers here).
	ReplayCache bool
	// Suite selects the cipher suite on both sides (core.CipherNone
	// selects the default, DES), so the differential harness
	// cross-validates every registered suite's framing, key schedule
	// and drop classification against the reference model.
	Suite core.CipherID
	// Prefilter pins the edge pre-filter ladder at a level on both
	// sides (core.PrefilterOff leaves it disabled). Both sides derive
	// the cookie secret from the same fixed seed and run their own
	// statement of the sketch constants, so sketch sheds, decays,
	// challenge refusals and cookie verdicts must agree exactly; the op
	// stream additionally injects forged cookie frames.
	Prefilter core.PrefilterLevel
}

// DiffReport is the outcome of a differential run. A DiffScenario has no
// name, so RunDiff leaves Scenario for the caller that names its matrix;
// Complete is set once the stream ran to its verdict, and Violations
// holds the Divergence, if any.
type DiffReport struct {
	ReportHeader
	Ops      int
	Sends    int
	Delivers int
	Accepted uint64
	Dropped  uint64
	// Sheds counts datagrams the pre-filter sketch refused before the
	// header parse (DropPrefilter), on which both sides agreed.
	Sheds uint64
	// Decays counts the sketch's halving sweeps, on which both sides
	// agreed.
	Decays uint64
	// Divergence is empty on success; otherwise it describes the first
	// observable on which the two implementations disagreed.
	Divergence string
	// OpStream is the full generated op sequence, and OptLog/RefLog the
	// per-op outcomes of the optimised and reference endpoints — the
	// three artifacts needed to reproduce and localise a divergence.
	OpStream []string
	OptLog   []string
	RefLog   []string
}

// Summary renders a one-line human-readable result.
func (r *DiffReport) Summary() string {
	if r.Divergence != "" {
		return fmt.Sprintf("DIVERGED after %d ops: %s", r.Ops, r.Divergence)
	}
	return fmt.Sprintf("ok: %d ops (%d sends, %d delivers, %d accepted, %d dropped, %d shed, %d decays), implementations agree",
		r.Ops, r.Sends, r.Delivers, r.Accepted, r.Dropped, r.Sheds, r.Decays)
}

// Artifact renders the op stream and both transcripts as a single
// text blob for divergence debugging (written to a file by the CI smoke
// on failure).
func (r *DiffReport) Artifact() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n== op stream ==\n%s\n", r.Summary(), strings.Join(r.OpStream, "\n"))
	fmt.Fprintf(&b, "\n== optimised transcript ==\n%s\n", strings.Join(r.OptLog, "\n"))
	fmt.Fprintf(&b, "\n== reference transcript ==\n%s\n", strings.Join(r.RefLog, "\n"))
	return b.String()
}

// diffWorld is the deterministic PKI shared by every differential run:
// a CA and three principals with fixed private exponents. Building the
// CA costs a keypair, so it is done once per process.
type diffWorld struct {
	dir *cert.StaticDirectory
	ver *cert.Verifier
	ids []*principal.Identity
	err error
}

var (
	diffOnce sync.Once
	diffW    diffWorld
)

var diffPeers = []principal.Address{"diff-p0", "diff-p1", "diff-p2"}

// diffPrefilterSeed is the shared deterministic cookie-secret seed for
// prefilter-enabled differential runs.
var diffPrefilterSeed = []byte("diff-prefilter-secret")

// diffEpoch is the fixed start of simulated time for differential runs.
var diffEpoch = time.Date(2026, 7, 4, 9, 0, 0, 0, time.UTC)

func buildDiffWorld() {
	ca, err := cert.NewAuthority("diff-root", 512)
	if err != nil {
		diffW.err = err
		return
	}
	diffW.dir = cert.NewStaticDirectory()
	diffW.ver = &cert.Verifier{CAKey: ca.PublicKey(), CA: "diff-root"}
	for i, addr := range diffPeers {
		// Fixed private exponents make the master keys — and therefore
		// the sealed wire bytes — identical across processes, so a fuzz
		// corpus entry reproduces anywhere.
		priv := new(big.Int).SetInt64(int64(0xD1F0 + 7919*i))
		id, err := principal.NewIdentityWithPrivate(addr, cryptolib.TestGroup, priv)
		if err != nil {
			diffW.err = err
			return
		}
		c, err := ca.Issue(id, diffEpoch.Add(-time.Hour), diffEpoch.Add(10*365*24*time.Hour))
		if err != nil {
			diffW.err = err
			return
		}
		diffW.dir.Publish(c)
		diffW.ids = append(diffW.ids, id)
	}
}

// diffTransport satisfies transport.Transport for endpoints exercised
// only through Seal/Open.
type diffTransport struct{}

func (diffTransport) Send(transport.Datagram) error { return nil }
func (diffTransport) Receive() (transport.Datagram, error) {
	return transport.Datagram{}, transport.ErrClosed
}
func (diffTransport) Close() error { return nil }

// diffPair is one principal instantiated twice: optimised and reference.
type diffPair struct {
	addr principal.Address
	opt  *core.Endpoint
	ref  *refmodel.Endpoint
}

// inFlight is a sealed datagram travelling the simulated network.
type inFlight struct {
	src, dst int
	wire     []byte
}

// RunDiff executes one differential run. The returned error reports
// harness setup failures only; protocol disagreements land in
// DiffReport.Divergence.
func RunDiff(sc DiffScenario) (*DiffReport, error) {
	diffOnce.Do(buildDiffWorld)
	if diffW.err != nil {
		return nil, diffW.err
	}
	if sc.Ops <= 0 {
		sc.Ops = 1000
	}
	clk := core.NewSimClock(diffEpoch)
	var optPF core.PrefilterConfig
	var refPF refmodel.PrefilterConfig
	rep := &DiffReport{}
	if sc.Prefilter != core.PrefilterOff {
		// Pin the ladder (the reference has no pressure signals to
		// adapt to) and share the secret seed so cookie MACs agree.
		optPF = core.PrefilterConfig{Enable: true, ForceLevel: sc.Prefilter, SecretSeed: diffPrefilterSeed}
		refPF = refmodel.PrefilterConfig{Enable: true, Level: sc.Prefilter, SecretSeed: diffPrefilterSeed}
	}
	pairs := make([]diffPair, len(diffPeers))
	for i, addr := range diffPeers {
		confSeed := sc.Seed ^ uint64(i+1)*0x9E3779B97F4A7C15
		sflSeed := uint64(i+1) * 1_000_000
		opt, err := core.NewEndpoint(core.Config{
			Identity:          diffW.ids[i],
			Transport:         diffTransport{},
			Directory:         diffW.dir,
			Verifier:          diffW.ver,
			Clock:             clk,
			Confounder:        cryptolib.NewLCGSeeded(confSeed),
			SFLSeed:           sflSeed,
			Cipher:            sc.Suite,
			EnableReplayCache: sc.ReplayCache,
			Prefilter:         optPF,
		})
		if err != nil {
			return nil, err
		}
		ref, err := refmodel.New(refmodel.Config{
			Identity:          diffW.ids[i],
			Directory:         diffW.dir,
			Verifier:          diffW.ver,
			Clock:             clk,
			Confounder:        cryptolib.NewLCGSeeded(confSeed),
			SFLSeed:           sflSeed,
			Cipher:            sc.Suite,
			EnableReplayCache: sc.ReplayCache,
			Prefilter:         refPF,
		})
		if err != nil {
			opt.Close()
			return nil, err
		}
		pairs[i] = diffPair{addr: addr, opt: opt, ref: ref}
	}
	defer func() {
		for _, p := range pairs {
			p.opt.Close()
		}
	}()

	rng := cryptolib.NewLCGSeeded(sc.Seed ^ 0x5DEECE66D)
	var queue []inFlight   // undelivered sealed datagrams, FIFO
	var history []inFlight // delivered datagrams, replay material
	const maxHistory = 256

	logOp := func(format string, args ...any) {
		rep.OpStream = append(rep.OpStream, fmt.Sprintf(format, args...))
	}
	diverge := func(format string, args ...any) {
		if rep.Divergence == "" {
			rep.Divergence = fmt.Sprintf("op %d: %s", rep.Ops, fmt.Sprintf(format, args...))
			rep.Violations = []string{rep.Divergence}
		}
	}
	// agree puts one operation's outcome on both transcripts and
	// cross-checks it: the same verdict, the same drop reason when
	// refused, the same bytes when not. what names the operation in a
	// divergence ("seal", "batch open at 3"). It reports whether both
	// sides succeeded with equal output.
	agree := func(what string, outcome func([]byte, error) string, opt []byte, optErr error, ref []byte, refErr error) bool {
		rep.OptLog = append(rep.OptLog, outcome(opt, optErr))
		rep.RefLog = append(rep.RefLog, outcome(ref, refErr))
		switch {
		case (optErr == nil) != (refErr == nil):
			diverge("%s verdicts differ: opt=%v ref=%v", what, optErr, refErr)
		case optErr != nil:
			if or, rr := core.DropReasonOf(optErr), core.DropReasonOf(refErr); or != rr {
				diverge("%s drop reasons differ: opt=%v ref=%v", what, or, rr)
			}
		case !bytes.Equal(opt, ref):
			diverge("%s output differs:\n opt %x\n ref %x", what, opt, ref)
		default:
			return true
		}
		return false
	}
	// opened is agree for an open, which also feeds the report's totals:
	// a datagram counts once both sides gave the same verdict on it.
	opened := func(what string, opt []byte, optErr error, ref []byte, refErr error) bool {
		if optErr == nil && refErr == nil {
			rep.Accepted++
		} else if optErr != nil && refErr != nil {
			rep.Dropped++
		}
		return agree(what, openOutcome, opt, optErr, ref, refErr)
	}
	randBytes := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Uint32())
		}
		return p
	}
	// delivered records f as replay material, keeping the newest
	// maxHistory.
	delivered := func(f inFlight) {
		history = append(history, f)
		if len(history) > maxHistory {
			history = history[1:]
		}
	}
	// cookieFrame forges a cookie control frame of the given kind:
	// well-formed framing, random epoch, stamp and MAC.
	cookieFrame := func(kind byte) []byte {
		return append([]byte{core.CookieMagic, kind, core.CookieVersion}, randBytes(core.CookieFrameLen-3)...)
	}

	// send seals one datagram on both implementations and cross-checks
	// the result. flowAux varies the flow identity (flow churn).
	send := func(si, di int, flowAux uint64, size int, secret bool, enqueue bool) {
		s, d := &pairs[si], &pairs[di]
		payload := randBytes(size)
		id := core.FlowID{
			Src: s.addr, Dst: d.addr, Proto: 17,
			SrcPort: 4000 + uint16(flowAux%4), DstPort: 5000, Aux: flowAux / 4,
		}
		rep.Sends++
		optOut, optErr := s.opt.SealAppend(nil, transport.Datagram{
			Source: s.addr, Destination: d.addr, Payload: payload,
		}, &id, secret)
		refOut, refErr := s.ref.Seal(d.addr, id, payload, secret)
		logOp("send %s->%s aux=%d len=%d secret=%v", s.addr, d.addr, flowAux, size, secret)
		if !agree("seal", sealOutcome, optOut, optErr, refOut, refErr) {
			return
		}
		// Every few sends, cross-check the derived flow key material
		// itself, not just its effect on the MAC.
		if rep.Sends%8 == 0 {
			sfl := core.SFL(binary.BigEndian.Uint64(optOut[4:12]))
			ok, oerr := s.opt.PeerFlowKey(sfl, d.addr)
			rk, rerr := s.ref.FlowKeyTo(uint64(sfl), d.addr)
			if (oerr == nil) != (rerr == nil) || (oerr == nil && ok != rk) {
				diverge("flow key material differs for sfl %d: opt %x (%v) ref %x (%v)", sfl, ok, oerr, rk, rerr)
				return
			}
		}
		if enqueue {
			queue = append(queue, inFlight{src: si, dst: di, wire: optOut})
		}
	}

	// sendBatch seals a run of same-flow datagrams through the optimised
	// endpoint's batch engine and holds it to the reference semantics —
	// a loop of Seal calls. Batch flows are named by host pair (the
	// DefaultSelector identity SealBatch groups runs by), so they churn
	// independently of the port-qualified flows the single sends use.
	sendBatch := func(si, di int, count int, secret bool) {
		s, d := &pairs[si], &pairs[di]
		id := core.FlowID{Src: s.addr, Dst: d.addr}
		dgs := make([]transport.Datagram, count)
		payloads := make([][]byte, count)
		for i := 0; i < count; i++ {
			payloads[i] = randBytes(int(rng.Uint32() % 128))
			dgs[i] = transport.Datagram{Source: s.addr, Destination: d.addr, Payload: payloads[i]}
		}
		rep.Sends += count
		res := make([]core.BatchResult, count)
		out, _ := s.opt.SealBatch(nil, dgs, secret, res)
		refOuts, refErrs := s.ref.SealBatch(d.addr, id, payloads, secret)
		logOp("sendbatch %s->%s n=%d secret=%v", s.addr, d.addr, count, secret)
		for i := 0; i < count; i++ {
			var optWire []byte
			if res[i].Err == nil {
				optWire = out[res[i].Off : res[i].Off+res[i].Len]
			}
			if agree(fmt.Sprintf("batch seal at %d", i), sealOutcome, optWire, res[i].Err, refOuts[i], refErrs[i]) {
				queue = append(queue, inFlight{src: si, dst: di, wire: append([]byte{}, optWire...)})
			} else if rep.Divergence != "" {
				return
			}
		}
	}

	// deliver opens one datagram on both implementations (optionally
	// mutated in flight) and cross-checks verdicts and plaintext.
	deliver := func(f inFlight, mutation string) {
		s, d := &pairs[f.src], &pairs[f.dst]
		wire := append([]byte{}, f.wire...)
		switch mutation {
		case "bitflip":
			if len(wire) > 0 {
				wire[int(rng.Uint32())%len(wire)] ^= 1 << (rng.Uint32() % 8)
			}
		case "truncate":
			wire = wire[:int(rng.Uint32())%(len(wire)+1)]
		case "cookie-forge":
			// Forged echo envelope: well-formed framing, random epoch,
			// stamp and MAC. Both sides must refuse it as a bad cookie
			// and charge the source's sketch prefix identically.
			wire = append(cookieFrame(core.CookieKindEcho), wire...)
		case "cookie-frame":
			// A bare forged challenge frame: both sides absorb it into
			// the sender-side jar (cookies are opaque to the learner)
			// and classify it DropNone.
			wire = cookieFrame(core.CookieKindChallenge)
		}
		rep.Delivers++
		optOut, optErr := d.opt.Open(transport.Datagram{
			Source: s.addr, Destination: d.addr, Payload: wire,
		})
		refOut, refErr := d.ref.Open(s.addr, d.addr, wire)
		logOp("deliver %s->%s len=%d mut=%s", s.addr, d.addr, len(wire), mutation)
		opened("open", optOut.Payload, optErr, refOut, refErr)
	}

	// deliverBatch opens a same-destination run from the queue through
	// OpenBatch and holds it to the reference loop, including intra-batch
	// replays when the picker re-queued history.
	deliverBatch := func(count int) {
		if len(queue) == 0 {
			return
		}
		di := queue[0].dst
		var run []inFlight
		rest := queue[:0]
		for _, f := range queue {
			if f.dst == di && len(run) < count {
				run = append(run, f)
			} else {
				rest = append(rest, f)
			}
		}
		queue = rest
		d := &pairs[di]
		dgs := make([]transport.Datagram, len(run))
		for i, f := range run {
			dgs[i] = transport.Datagram{
				Source:      pairs[f.src].addr,
				Destination: d.addr,
				Payload:     append([]byte{}, f.wire...),
			}
		}
		rep.Delivers += len(run)
		res := make([]core.BatchResult, len(run))
		out, _ := d.opt.OpenBatch(nil, dgs, res)
		logOp("deliverbatch ->%s n=%d", d.addr, len(run))
		for i, f := range run {
			refOut, refErr := d.ref.Open(pairs[f.src].addr, d.addr, f.wire)
			var optBody []byte
			if res[i].Err == nil {
				optBody = out[res[i].Off : res[i].Off+res[i].Len]
			}
			if opened(fmt.Sprintf("batch open at %d", i), optBody, res[i].Err, refOut, refErr) {
				delivered(f)
			} else if rep.Divergence != "" {
				return
			}
		}
	}

	for op := 0; op < sc.Ops && rep.Divergence == ""; op++ {
		rep.Ops = op + 1
		si := int(rng.Uint32()) % len(pairs)
		di := int(rng.Uint32()) % len(pairs)
		if di == si {
			di = (di + 1) % len(pairs)
		}
		switch pick := rng.Uint32() % 100; {
		case pick < 24: // plain send on a small set of long-lived flows
			send(si, di, uint64(rng.Uint32()%3), int(rng.Uint32()%256), rng.Uint32()%4 != 0, true)
		case pick < 30: // batched send: a run of same-flow datagrams
			sendBatch(si, di, 2+int(rng.Uint32()%6), rng.Uint32()%4 != 0)
		case pick < 65: // drain a batch of in-flight datagrams, mostly clean
			if len(queue) == 0 {
				send(si, di, 0, int(rng.Uint32()%128), true, true)
				continue
			}
			batch := int(rng.Uint32()%3) + 1
			for ; batch > 0 && len(queue) > 0 && rep.Divergence == ""; batch-- {
				f := queue[0]
				queue = queue[1:]
				mutation := "clean"
				switch rng.Uint32() % 10 {
				case 0:
					mutation = "bitflip"
				case 1:
					mutation = "truncate"
				}
				if sc.Prefilter != core.PrefilterOff && rng.Uint32()%8 == 0 {
					// Prefilter runs also fuzz the cookie control plane.
					if rng.Uint32()%2 == 0 {
						mutation = "cookie-forge"
					} else {
						mutation = "cookie-frame"
					}
				}
				deliver(f, mutation)
				if mutation == "clean" {
					delivered(f)
				}
			}
		case pick < 70: // replay something already delivered
			if len(history) == 0 {
				continue
			}
			f := history[int(rng.Uint32())%len(history)]
			logOp("replay-pick")
			deliver(f, "clean")
		case pick < 75: // batched deliver, possibly seeded with a replay
			if len(history) > 0 && rng.Uint32()%3 == 0 {
				f := history[int(rng.Uint32())%len(history)]
				logOp("replay-requeue")
				queue = append([]inFlight{f}, queue...)
			}
			deliverBatch(2 + int(rng.Uint32()%6))
		case pick < 85: // clock step, whole seconds
			step := time.Duration(rng.Uint32()%30) * time.Second
			clk.Advance(step)
			logOp("clock+%v", step)
		case pick < 87: // large clock step: expire flows, stale the queue
			clk.Advance(11 * time.Minute)
			logOp("clock+11m")
		case pick < 93: // flow churn: fresh flow identity every time
			send(si, di, uint64(0x1000)+uint64(op), int(rng.Uint32()%64), true, true)
		case pick < 97: // keying failure: seal for a principal nobody published
			s := &pairs[si]
			id := core.FlowID{Src: s.addr, Dst: "diff-stranger", Proto: 17, SrcPort: 9, DstPort: 9}
			_, optErr := s.opt.SealAppend(nil, transport.Datagram{
				Source: s.addr, Destination: "diff-stranger", Payload: []byte("hello?"),
			}, &id, true)
			_, refErr := s.ref.Seal("diff-stranger", id, []byte("hello?"), true)
			logOp("send %s->stranger", s.addr)
			agree("stranger seal", sealOutcome, nil, optErr, nil, refErr)
		default: // detach: flush every cached key on one principal
			p := &pairs[si]
			p.opt.FlushKeys()
			p.ref.FlushKeys()
			logOp("detach %s", p.addr)
		}
	}

	// Final ledger: the per-reason drop counters and accept totals must
	// have marched in lockstep.
	if rep.Divergence == "" {
		for _, p := range pairs {
			opt := p.opt.Snapshot()
			od, rd := opt.Drops, p.ref.Drops()
			for r := 0; r < core.NumDropReasons; r++ {
				if od[r] != rd[r] {
					diverge("final drop ledger differs at %s for %v: opt=%d ref=%d",
						p.addr, core.DropReason(r), od[r], rd[r])
				}
			}
			if got := opt.Received; got != p.ref.Accepted() {
				diverge("final accept totals differ at %s: opt=%d ref=%d", p.addr, got, p.ref.Accepted())
			}
			if got, want := opt.Prefilter.SketchDecays, p.ref.SketchDecays(); got != want {
				diverge("sketch decays differ at %s: opt=%d ref=%d", p.addr, got, want)
			}
			rep.Sheds += od[core.DropPrefilter]
			rep.Decays += opt.Prefilter.SketchDecays
		}
	}
	rep.Complete = true
	return rep, nil
}

func sealOutcome(wire []byte, err error) string {
	if err != nil {
		return "seal DROP " + core.DropReasonOf(err).String()
	}
	return fmt.Sprintf("seal %d bytes %x…", len(wire), wire[:min(12, len(wire))])
}

func openOutcome(body []byte, err error) string {
	if err != nil {
		return "open DROP " + core.DropReasonOf(err).String()
	}
	return fmt.Sprintf("open ACCEPT %d bytes", len(body))
}
