package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// batchPair builds a deterministic sender/receiver pair sharing a test
// world: fixed clock, fixed SFL seed, AEAD suite (whose confounder is
// the flow sequence counter, so wire bytes are reproducible across two
// identically configured endpoints).
func batchPair(t *testing.T, w *testWorld, cipher CipherID, replay bool) (*Endpoint, *Endpoint) {
	t.Helper()
	mk := func(name principal.Address) *Endpoint {
		ep, err := NewEndpoint(Config{
			Identity:          w.principal(t, name),
			Transport:         nullTransport{},
			Directory:         w.dir,
			Verifier:          w.ver,
			Clock:             w.clock,
			Cipher:            cipher,
			SFLSeed:           100,
			EnableReplayCache: replay,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	return mk("batch-a"), mk("batch-b")
}

type nullTransport struct{}

func (nullTransport) Send(transport.Datagram) error { return nil }
func (nullTransport) Receive() (transport.Datagram, error) {
	return transport.Datagram{}, transport.ErrClosed
}
func (nullTransport) Close() error { return nil }

// TestSealBatchMatchesSingleLoop pins the central batch invariant: a
// SealBatch over a mixed-flow sequence produces byte-for-byte the wire
// datagrams a loop of single SealAppend calls produces on an
// identically configured endpoint, with identical counter movement.
func TestSealBatchMatchesSingleLoop(t *testing.T) {
	for _, cipher := range []CipherID{CipherAES128GCM, CipherChaCha20Poly1305} {
		t.Run(SuiteByID(cipher).Name(), func(t *testing.T) {
			w := newWorld(t)
			batchEP, _ := batchPair(t, w, cipher, false)
			w2 := &testWorld{ca: w.ca, dir: w.dir, ver: w.ver, clock: w.clock, ids: w.ids}
			loopEP, _ := batchPair(t, w2, cipher, false)

			// Three flows interleaved in runs of varying length,
			// including a run longer than one and singletons.
			var dgs []transport.Datagram
			dests := []principal.Address{"batch-b", "batch-b", "batch-b", "peer-c", "batch-b", "peer-c", "peer-c", "batch-b"}
			for i, d := range dests {
				w.principal(t, d)
				dgs = append(dgs, transport.Datagram{
					Source:      "batch-a",
					Destination: d,
					Payload:     []byte(fmt.Sprintf("payload-%02d", i)),
				})
			}

			res := make([]BatchResult, len(dgs))
			batched, n := batchEP.SealBatch(nil, append([]transport.Datagram(nil), dgs...), true, res)
			if n != len(dgs) {
				t.Fatalf("SealBatch sealed %d of %d", n, len(dgs))
			}

			var single []byte
			var offs []int
			for _, dg := range dgs {
				offs = append(offs, len(single))
				out, err := loopEP.SealAppend(single, dg, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				single = out
			}

			if !bytes.Equal(batched, single) {
				t.Fatalf("batched wire bytes differ from single-loop bytes\nbatch:  %x\nsingle: %x", batched, single)
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("datagram %d: %v", i, r.Err)
				}
				if r.Off != offs[i] {
					t.Errorf("datagram %d: Off = %d, want %d", i, r.Off, offs[i])
				}
				want := len(single) - offs[i]
				if i+1 < len(offs) {
					want = offs[i+1] - offs[i]
				}
				if r.Len != want {
					t.Errorf("datagram %d: Len = %d, want %d", i, r.Len, want)
				}
			}

			bf, lf := batchEP.Snapshot().FAM, loopEP.Snapshot().FAM
			if bf.Lookups != lf.Lookups || bf.Hits != lf.Hits || bf.FlowsCreated != lf.FlowsCreated {
				t.Errorf("FAM accounting diverged: batch %+v vs loop %+v", bf, lf)
			}
			if bf.Lookups != bf.Hits+bf.FlowsCreated {
				t.Errorf("FAM invariant broken: Lookups=%d Hits=%d FlowsCreated=%d", bf.Lookups, bf.Hits, bf.FlowsCreated)
			}
			bs := batchEP.Snapshot().Batch
			if bs.SealDatagrams != uint64(len(dgs)) {
				t.Errorf("SealDatagrams = %d, want %d", bs.SealDatagrams, len(dgs))
			}
			if bs.SealCalls[batchBucket(len(dgs))] != 1 {
				t.Errorf("SealCalls bucket %d = %d, want 1", batchBucket(len(dgs)), bs.SealCalls[batchBucket(len(dgs))])
			}
			if ls := loopEP.Snapshot().Batch; ls.SealDatagrams != 0 {
				t.Errorf("single-datagram calls moved batch stats: %+v", ls)
			}
		})
	}
}

// TestOpenBatchMatchesSingleLoop seals a sequence, then opens it once
// via OpenBatch and once via a loop of OpenAppend on an identically
// configured receiver: recovered bytes, per-datagram outcomes and
// counters must match, including a mid-batch duplicate (DropReplay) and
// a corrupted datagram (DropBadMAC/DropDecrypt).
func TestOpenBatchMatchesSingleLoop(t *testing.T) {
	w := newWorld(t)
	sender, batchRecv := batchPair(t, w, CipherAES128GCM, true)
	w2 := &testWorld{ca: w.ca, dir: w.dir, ver: w.ver, clock: w.clock, ids: w.ids}
	_, loopRecv := batchPair(t, w2, CipherAES128GCM, true)

	var dgs []transport.Datagram
	seal := func(payload string) transport.Datagram {
		dg, err := sender.Seal(transport.Datagram{
			Source:      "batch-a",
			Destination: "batch-b",
			Payload:     []byte(payload),
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		return dg
	}
	for i := 0; i < 5; i++ {
		dgs = append(dgs, seal(fmt.Sprintf("msg-%d", i)))
	}
	// Exact duplicate of datagram 2: the replay window must reject the
	// second sighting inside the same batch.
	dup := dgs[2].Clone()
	dgs = append(dgs, dup)
	// Corrupted body: flip a ciphertext bit.
	bad := dgs[3].Clone()
	bad.Payload[len(bad.Payload)-1] ^= 0x40
	dgs = append(dgs, bad)
	dgs = append(dgs, seal("tail"))

	res := make([]BatchResult, len(dgs))
	opened, n := batchRecv.OpenBatch(nil, append([]transport.Datagram(nil), dgs...), res)

	var singleOuts [][]byte
	var singleErrs []error
	okCount := 0
	for _, dg := range dgs {
		out, err := loopRecv.OpenAppend(nil, dg)
		singleOuts = append(singleOuts, out)
		singleErrs = append(singleErrs, err)
		if err == nil {
			okCount++
		}
	}
	if n != okCount {
		t.Fatalf("OpenBatch accepted %d, single loop accepted %d", n, okCount)
	}
	for i := range dgs {
		if (res[i].Err == nil) != (singleErrs[i] == nil) {
			t.Fatalf("datagram %d: batch err %v vs single err %v", i, res[i].Err, singleErrs[i])
		}
		if res[i].Err != nil {
			if br, sr := DropReasonOf(res[i].Err), DropReasonOf(singleErrs[i]); br != sr {
				t.Errorf("datagram %d: batch drop %v vs single drop %v", i, br, sr)
			}
			continue
		}
		got := opened[res[i].Off : res[i].Off+res[i].Len]
		if !bytes.Equal(got, singleOuts[i]) {
			t.Errorf("datagram %d: batch plaintext %q vs single %q", i, got, singleOuts[i])
		}
	}
	bm, lm := batchRecv.Snapshot(), loopRecv.Snapshot()
	if bm.Received != lm.Received || bm.ReceivedBytes != lm.ReceivedBytes {
		t.Errorf("receive counters diverged: batch %d/%d vs loop %d/%d",
			bm.Received, bm.ReceivedBytes, lm.Received, lm.ReceivedBytes)
	}
	if bm.Drops != lm.Drops {
		t.Errorf("drop counters diverged:\nbatch %v\nloop  %v", bm.Drops, lm.Drops)
	}
	if bm.Drops[DropReplay] != 1 {
		t.Errorf("DropReplay = %d, want 1", bm.Drops[DropReplay])
	}
	bs := batchRecv.Snapshot().Batch
	if bs.OpenDatagrams != uint64(len(dgs)) {
		t.Errorf("OpenDatagrams = %d, want %d", bs.OpenDatagrams, len(dgs))
	}
}

// TestBatchDropReasonsExact drives every refusal the batch receive path
// classifies and checks each datagram's sentinel maps to the exact
// DropReason the single path reports.
func TestBatchDropReasonsExact(t *testing.T) {
	w := newWorld(t)
	sender, recv := batchPair(t, w, CipherAES128GCM, true)

	good, err := sender.Seal(transport.Datagram{Source: "batch-a", Destination: "batch-b", Payload: []byte("ok")}, true)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := sender.Seal(transport.Datagram{Source: "batch-a", Destination: "batch-b", Payload: []byte("old")}, true)
	if err != nil {
		t.Fatal(err)
	}

	dgs := []transport.Datagram{
		{Source: "batch-a", Destination: "elsewhere", Payload: good.Payload}, // DropNotForUs
		{Source: "batch-a", Destination: "batch-b", Payload: []byte{0x01}},   // DropMalformed
		good.Clone(), // accepted
	}
	// Advance the clock past the freshness window so the stale datagram
	// is refused, then re-stamp the good one via a fresh seal.
	w.clock.Advance(21 * time.Minute)
	fresh, err := sender.Seal(transport.Datagram{Source: "batch-a", Destination: "batch-b", Payload: []byte("fresh")}, true)
	if err != nil {
		t.Fatal(err)
	}
	dgs[2] = fresh
	dgs = append(dgs, transport.Datagram{Source: "batch-a", Destination: "batch-b", Payload: stale.Payload}) // DropStale

	res := make([]BatchResult, len(dgs))
	_, n := recv.OpenBatch(nil, dgs, res)
	if n != 1 {
		t.Fatalf("accepted %d, want 1", n)
	}
	wantReasons := []DropReason{DropNotForUs, DropMalformed, DropNone, DropStale}
	for i, want := range wantReasons {
		got := DropNone
		if res[i].Err != nil {
			got = DropReasonOf(res[i].Err)
		}
		if got != want {
			t.Errorf("datagram %d: drop reason %v, want %v (err: %v)", i, got, want, res[i].Err)
		}
	}
	m := recv.Snapshot()
	for _, want := range []DropReason{DropNotForUs, DropMalformed, DropStale} {
		if m.Drops[want] != 1 {
			t.Errorf("Drops[%v] = %d, want 1", want, m.Drops[want])
		}
	}
}

// TestBatchObservationGates runs every seal and open entry point —
// single and batch — under an always-tracing tracer. Every datagram,
// accepted or refused, must produce its own trace, and the trace must
// describe the stages the datagram actually crossed: the span-kind
// sequence (MAC and cipher passes included) with the refusing stage's
// DropReason, the key tier on the flow-key span, and the payload length
// on the root span.
func TestBatchObservationGates(t *testing.T) {
	w := newWorld(t)
	tr := &recordingTracer{spans: map[TraceID][]Span{}}
	mk := func(name principal.Address, mutate func(*Config)) *Endpoint {
		cfg := Config{
			Identity:  w.principal(t, name),
			Transport: nullTransport{},
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
			Cipher:    CipherAES128GCM,
			SFLSeed:   100,
			Tracer:    tr,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		ep, err := NewEndpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	sender := mk("obs-a", nil)
	w.principal(t, "obs-b")
	// A sender whose budget is already spent refuses at classification.
	full := NewBudget(0, CostFAMEntry)
	full.TryCharge(CostFAMEntry)
	broke := mk("obs-a", func(c *Config) { c.StateBudget = full })

	type step struct {
		kind SpanKind
		drop DropReason
	}
	type want struct {
		seal   bool
		steps  []step // the last is the root span, whose Drop is the datagram's verdict
		keyHit bool   // FlagKeyHit on the flow-key span, where the datagram reached keying
		bytes  int    // the root span's Attr
	}
	// check consumes the traces recorded since the last call: one per
	// datagram, in datagram order.
	check := func(t *testing.T, wants []want) {
		t.Helper()
		traces := tr.take()
		if len(traces) != len(wants) {
			t.Fatalf("%d traces for %d datagrams", len(traces), len(wants))
		}
		for i, wt := range wants {
			var got []step
			for _, sp := range traces[i] {
				if sp.Seal != wt.seal {
					t.Errorf("datagram %d: %v span on the wrong side", i, sp.Kind)
				}
				if sp.Kind == SpanFlowKey && (sp.Flags&FlagKeyHit != 0) != wt.keyHit {
					t.Errorf("datagram %d: flow-key span flags %v, want key hit=%v", i, sp.Flags.Names(), wt.keyHit)
				}
				got = append(got, step{sp.Kind, sp.Drop})
			}
			if fmt.Sprint(got) != fmt.Sprint(wt.steps) {
				t.Errorf("datagram %d: spans %v, want %v", i, got, wt.steps)
			}
			if root := traces[i][len(traces[i])-1]; root.Attr != uint64(wt.bytes) {
				t.Errorf("datagram %d: root span carries %d bytes, want %d", i, root.Attr, wt.bytes)
			}
		}
	}
	repeat := func(n int, first, rest want) []want {
		out := []want{first}
		for len(out) < n {
			out = append(out, rest)
		}
		return out
	}

	const N = 4
	// A one-byte body sealed by an AEAD suite: no padding.
	const wireLen = HeaderSize + 1
	// An AEAD sealed box is one fused pass: a cipher span, no MAC span.
	sealSteps := []step{{SpanClassify, 0}, {SpanFlowKey, 0}, {SpanCipher, 0}, {SpanCrypto, 0}, {SpanSeal, 0}}
	sealMiss := want{seal: true, steps: sealSteps, bytes: 1}
	sealHit := want{seal: true, steps: sealSteps, keyHit: true, bytes: 1}
	noKey := want{seal: true, bytes: 1,
		steps: []step{{SpanClassify, 0}, {SpanFlowKey, DropKeying}, {SpanSeal, DropKeying}}}
	noRoom := want{seal: true, bytes: 1,
		steps: []step{{SpanClassify, DropStateBudget}, {SpanSeal, DropStateBudget}}}
	dgsTo := func(dst principal.Address) []transport.Datagram {
		dgs := make([]transport.Datagram, N)
		for i := range dgs {
			dgs[i] = transport.Datagram{Source: "obs-a", Destination: dst, Payload: []byte{byte(i)}}
		}
		return dgs
	}
	res := make([]BatchResult, N)

	var wires [][]byte
	t.Run("seal/single", func(t *testing.T) {
		for _, dg := range dgsTo("obs-b") {
			out, err := sender.SealAppend(nil, dg, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			wires = append(wires, out)
		}
		check(t, repeat(N, sealMiss, sealHit))
		for _, dg := range dgsTo("nobody") {
			if _, err := sender.Seal(dg, true); DropReasonOf(err) != DropKeying {
				t.Fatalf("seal to an unknown peer: %v", err)
			}
		}
		check(t, repeat(N, noKey, noKey))
		if _, err := broke.Seal(dgsTo("obs-b")[0], true); DropReasonOf(err) != DropStateBudget {
			t.Fatalf("seal over budget: %v", err)
		}
		check(t, []want{noRoom})
	})
	t.Run("seal/batch", func(t *testing.T) {
		sealed, n := sender.SealBatch(nil, dgsTo("obs-b"), true, res)
		if n != N {
			t.Fatalf("sealed %d of %d", n, N)
		}
		for _, r := range res {
			wires = append(wires, sealed[r.Off:r.Off+r.Len])
		}
		check(t, repeat(N, sealHit, sealHit))
		if _, n := sender.SealBatch(nil, dgsTo("nobody"), true, res); n != 0 {
			t.Fatalf("sealed %d to an unknown peer", n)
		}
		check(t, repeat(N, noKey, noKey))
		if _, n := broke.SealBatch(nil, dgsTo("obs-b"), true, res); n != 0 {
			t.Fatalf("sealed %d over budget", n)
		}
		check(t, repeat(N, noRoom, noRoom))
	})

	// Receive side: N accepted, then one refusal per stage that can
	// refuse — addressing, header structure, freshness, authentication,
	// and (with a replay cache) the duplicate.
	arrivals := func(wires [][]byte) ([]transport.Datagram, []want) {
		var dgs []transport.Datagram
		for _, wire := range wires {
			dgs = append(dgs, transport.Datagram{Source: "obs-a", Destination: "obs-b", Payload: wire})
		}
		elsewhere := dgs[0]
		elsewhere.Destination = "elsewhere"
		runt := dgs[0]
		runt.Payload = []byte{0x01}
		forged := dgs[0].Clone()
		forged.Payload[len(forged.Payload)-1] ^= 0x40
		dgs = append(dgs, elsewhere, runt, forged)
		return dgs, []want{
			{bytes: wireLen, steps: []step{{SpanParse, DropNotForUs}, {SpanOpen, DropNotForUs}}},
			{bytes: 1, steps: []step{{SpanParse, DropMalformed}, {SpanOpen, DropMalformed}}},
			{bytes: wireLen, keyHit: true,
				steps: []step{{SpanParse, 0}, {SpanFlowKey, 0}, {SpanCipher, 0}, {SpanCrypto, DropBadMAC}, {SpanOpen, DropBadMAC}}},
		}
	}
	for _, replay := range []bool{false, true} {
		okSteps := []step{{SpanParse, 0}, {SpanFlowKey, 0}, {SpanCipher, 0}, {SpanCrypto, 0}, {SpanOpen, 0}}
		dupSteps := okSteps
		if replay {
			okSteps = []step{{SpanParse, 0}, {SpanFlowKey, 0}, {SpanCipher, 0}, {SpanCrypto, 0}, {SpanReplay, 0}, {SpanOpen, 0}}
			dupSteps = []step{{SpanParse, 0}, {SpanFlowKey, 0}, {SpanCipher, 0}, {SpanCrypto, 0}, {SpanReplay, DropReplay}, {SpanOpen, DropReplay}}
		}
		openMiss := want{steps: okSteps, bytes: wireLen}
		openHit := want{steps: okSteps, keyHit: true, bytes: wireLen}
		dup := want{steps: dupSteps, keyHit: true, bytes: wireLen}
		recv := mk("obs-b", func(c *Config) { c.EnableReplayCache = replay })
		t.Run(fmt.Sprintf("open/single/replay=%v", replay), func(t *testing.T) {
			dgs, refused := arrivals(wires[:N])
			dgs = append(dgs, dgs[0])
			for i, dg := range dgs {
				var err error
				if i%2 == 0 {
					_, err = recv.Open(dg)
				} else {
					_, err = recv.OpenAppend(nil, dg)
				}
				if accepted := i < N || (i == len(dgs)-1 && !replay); (err == nil) != accepted {
					t.Fatalf("arrival %d: %v", i, err)
				}
			}
			check(t, append(append(repeat(N, openMiss, openHit), refused...), dup))
		})
		t.Run(fmt.Sprintf("open/batch/replay=%v", replay), func(t *testing.T) {
			dgs, refused := arrivals(wires[N:])
			dgs = append(dgs, dgs[0])
			rres := make([]BatchResult, len(dgs))
			wantOK := N
			if !replay {
				wantOK++
			}
			if _, n := recv.OpenBatch(nil, dgs, rres); n != wantOK {
				t.Fatalf("opened %d, want %d", n, wantOK)
			}
			check(t, append(append(repeat(N, openHit, openHit), refused...), dup))
		})
	}

	// A gate that fires mid-run (quiet, quiet, fire) ends the run it
	// interrupts, and the decision already drawn for that datagram is
	// carried into the next iteration rather than dropped or drawn again:
	// under a 1-in-3 tracer a batch of ten must consult the gate ten
	// times and trace the datagrams a loop of ten single calls traces,
	// and tracing must not move a byte. Payload lengths differ, so a root
	// span's Attr names the datagram it describes.
	t.Run("mid-run", func(t *testing.T) {
		const M = 10
		dgs := make([]transport.Datagram, M)
		for i := range dgs {
			dgs[i] = transport.Datagram{Source: "obs-a", Destination: "obs-b", Payload: make([]byte, i+1)}
		}
		// run seals the ten datagrams and opens the ten sealed ones on a
		// fresh pair, each side under its own tracer, in one batch call
		// per side or in ten single calls. It returns every output and
		// which datagrams each side traced.
		run := func(every int, batch bool) (outs [][]byte, sealed, opened []int) {
			sealTr := &recordingTracer{every: every, spans: map[TraceID][]Span{}}
			openTr := &recordingTracer{every: every, spans: map[TraceID][]Span{}}
			a := mk("obs-a", func(c *Config) { c.Tracer = sealTr })
			b := mk("obs-b", func(c *Config) { c.Tracer = openTr })
			arrived := make([]transport.Datagram, M)
			if batch {
				res := make([]BatchResult, M)
				wire, n := a.SealBatch(nil, dgs, true, res)
				if n != M {
					t.Fatalf("sealed %d of %d", n, M)
				}
				for i, r := range res {
					arrived[i] = transport.Datagram{Source: "obs-a", Destination: "obs-b", Payload: wire[r.Off : r.Off+r.Len]}
					outs = append(outs, arrived[i].Payload)
				}
				plain, n := b.OpenBatch(nil, arrived, res)
				if n != M {
					t.Fatalf("opened %d of %d", n, M)
				}
				for _, r := range res {
					outs = append(outs, plain[r.Off:r.Off+r.Len])
				}
			} else {
				for i, dg := range dgs {
					wire, err := a.SealAppend(nil, dg, nil, true)
					if err != nil {
						t.Fatal(err)
					}
					arrived[i] = transport.Datagram{Source: "obs-a", Destination: "obs-b", Payload: wire}
					outs = append(outs, wire)
				}
				for _, dg := range arrived {
					plain, err := b.OpenAppend(nil, dg)
					if err != nil {
						t.Fatal(err)
					}
					outs = append(outs, plain)
				}
			}
			if sealTr.calls != M || openTr.calls != M {
				t.Errorf("batch=%v: gate drawn %d times sealing and %d opening %d datagrams", batch, sealTr.calls, openTr.calls, M)
			}
			// index names the datagram a trace describes: its root span
			// carries the payload length, less overhead bytes of framing.
			index := func(spans []Span, overhead int) int {
				if len(spans) == 0 {
					t.Errorf("batch=%v: a trace was started and no span followed", batch)
					return -1
				}
				return int(spans[len(spans)-1].Attr) - overhead - 1
			}
			for _, spans := range sealTr.take() {
				sealed = append(sealed, index(spans, 0))
			}
			for _, spans := range openTr.take() {
				opened = append(opened, index(spans, HeaderSize))
			}
			return outs, sealed, opened
		}
		quiet, _, _ := run(M+1, true)
		_, loopSealed, loopOpened := run(3, false)
		traced, sealed, opened := run(3, true)
		if want := "[2 5 8]"; fmt.Sprint(loopSealed) != want || fmt.Sprint(loopOpened) != want {
			t.Fatalf("the loop traced %v sealing and %v opening, want %s", loopSealed, loopOpened, want)
		}
		if fmt.Sprint(sealed) != fmt.Sprint(loopSealed) || fmt.Sprint(opened) != fmt.Sprint(loopOpened) {
			t.Errorf("the batch traced %v sealing and %v opening; the loop traced %v and %v", sealed, opened, loopSealed, loopOpened)
		}
		for i := range quiet {
			if !bytes.Equal(traced[i], quiet[i]) {
				t.Errorf("output %d differs between the traced and the untraced batch", i)
			}
		}
	})

	// A stale datagram is refused at the parse stage with its flow label
	// already known.
	t.Run("open/stale", func(t *testing.T) {
		recv := mk("obs-b", nil)
		w.clock.Advance(21 * time.Minute)
		dg := transport.Datagram{Source: "obs-a", Destination: "obs-b", Payload: wires[0]}
		if _, err := recv.Open(dg); DropReasonOf(err) != DropStale {
			t.Fatalf("stale open: %v", err)
		}
		if _, n := recv.OpenBatch(nil, []transport.Datagram{dg}, res); n != 0 {
			t.Fatal("stale datagram accepted by OpenBatch")
		}
		stale := want{bytes: wireLen, steps: []step{{SpanParse, DropStale}, {SpanOpen, DropStale}}}
		check(t, []want{stale, stale})
	})
}

// TestSendBatchCarriesTraceIDs sends three datagrams with SendBatch over
// a metadata-preserving transport, both ends sharing an always-sampling
// tracer. Each wire must carry its seal's trace ID, as Send's does, so
// the receiver continues the sender's trace: three traces, each holding
// both roots — not three seal traces beside three open traces — and one
// transport_send span for the hand-off that carried it.
func TestSendBatchCarriesTraceIDs(t *testing.T) {
	w := newWorld(t)
	tr := &recordingTracer{spans: map[TraceID][]Span{}}
	net := transport.NewNetwork(transport.Impairments{})
	mk := func(name principal.Address) *Endpoint {
		port, err := net.Attach(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(Config{
			Identity:  w.principal(t, name),
			Transport: port,
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
			Cipher:    CipherAES128GCM,
			Tracer:    tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	a, b := mk("trace-a"), mk("trace-b")
	dgs := make([]transport.Datagram, 3)
	for i := range dgs {
		dgs[i] = transport.Datagram{Source: "trace-a", Destination: "trace-b", Payload: []byte{byte(i)}}
	}
	if n, err := a.SendBatch(dgs, true); n != len(dgs) || err != nil {
		t.Fatalf("SendBatch sent %d of %d: %v", n, len(dgs), err)
	}
	accepted := 0
	for arrived := 0; arrived < len(dgs); {
		acc, n, err := b.ReceiveBatch(len(dgs))
		if err != nil {
			t.Fatal(err)
		}
		accepted, arrived = accepted+len(acc), arrived+n
	}
	if accepted != len(dgs) {
		t.Fatalf("ReceiveBatch accepted %d of %d", accepted, len(dgs))
	}
	traces := tr.take()
	if len(traces) != len(dgs) {
		t.Fatalf("%d traces for %d datagrams sent and received", len(traces), len(dgs))
	}
	for i, spans := range traces {
		var sealRoot, openRoot bool
		sends := 0
		for _, sp := range spans {
			sealRoot = sealRoot || sp.Kind == SpanSeal
			openRoot = openRoot || sp.Kind == SpanOpen
			if sp.Kind == SpanTransportSend {
				sends++
			}
		}
		if !sealRoot || !openRoot {
			t.Errorf("trace %d: seal root %v, open root %v; want one trace spanning both ends", i, sealRoot, openRoot)
		}
		if sends != 1 {
			t.Errorf("trace %d: %d transport_send spans, want the batch hand-off's one", i, sends)
		}
	}
}

// recordingTracer traces every datagram (or, with every > 1, every
// every-th), counts its gate draws, and keeps each trace's spans in
// emission order.
type recordingTracer struct {
	mu     sync.Mutex
	every  int
	calls  int
	nextID TraceID
	order  []TraceID
	spans  map[TraceID][]Span
}

func (tr *recordingTracer) StartTrace() TraceID {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.calls++
	if tr.every > 1 && tr.calls%tr.every != 0 {
		return 0
	}
	tr.nextID++
	tr.order = append(tr.order, tr.nextID)
	return tr.nextID
}

func (tr *recordingTracer) Span(s Span) {
	tr.mu.Lock()
	tr.spans[s.Trace] = append(tr.spans[s.Trace], s)
	tr.mu.Unlock()
}

// take returns the traces started since the last call, in start order.
func (tr *recordingTracer) take() [][]Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out [][]Span
	for _, id := range tr.order {
		out = append(out, tr.spans[id])
		delete(tr.spans, id)
	}
	tr.order = nil
	return out
}
