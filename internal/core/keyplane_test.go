package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// planeGroup builds an n-shard group for hub, each shard's config passed
// through mutate (which may be nil).
func planeGroup(t *testing.T, w *testWorld, hub principal.Address, n int, mutate func(shard int, c *Config)) (*ShardGroup, error) {
	t.Helper()
	id := w.principal(t, hub)
	grp, err := NewShardGroup(n, func(shard int) (Config, error) {
		c := Config{Identity: id, Transport: nullTransport{}, Directory: w.dir, Verifier: w.ver, Clock: w.clock}
		if mutate != nil {
			mutate(shard, &c)
		}
		return c, nil
	})
	if err == nil {
		t.Cleanup(func() { grp.Close() })
	}
	return grp, err
}

// visit is one gateway-shaped exchange: peer seals a datagram to hub,
// the shard ShardOfIncoming picks opens it, the shard ShardOfPair picks
// seals the answer, and peer opens that.
func visit(t *testing.T, grp *ShardGroup, hub principal.Address, peer *Endpoint, payload string) {
	t.Helper()
	sealed, err := peer.Seal(transport.Datagram{Destination: hub, Payload: []byte(payload)}, true)
	if err != nil {
		t.Fatalf("%s seal: %v", peer.Addr(), err)
	}
	got, err := grp.Shard(grp.ShardOfIncoming(sealed)).Open(sealed)
	if err != nil {
		t.Fatalf("hub open from %s: %v", peer.Addr(), err)
	}
	echo, err := grp.Shard(grp.ShardOfPair(hub, peer.Addr())).Seal(transport.Datagram{Source: hub, Destination: peer.Addr(), Payload: got.Payload}, true)
	if err != nil {
		t.Fatalf("hub seal to %s: %v", peer.Addr(), err)
	}
	if back, err := peer.Open(echo); err != nil || string(back.Payload) != payload {
		t.Fatalf("%s opened echo %q, %v; want %q", peer.Addr(), back.Payload, err, payload)
	}
}

// TestShardGroupSharesOneKeyPlane: a pair master key belongs to the
// principal, not to the shard that first needed it. Every peer here is
// opened on one shard and answered from another, and the group pays one
// certificate fetch and one exponentiation per peer — with a key service
// per shard it paid two.
func TestShardGroupSharesOneKeyPlane(t *testing.T) {
	const numShards, numPeers = 3, 12
	const hub = principal.Address("plane-hub")
	w := newWorld(t)
	grp, err := planeGroup(t, w, hub, numShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	var peers []*Endpoint
	for i := 0; len(peers) < numPeers; i++ {
		name := principal.Address(fmt.Sprintf("plane-peer-%d", i))
		if grp.ShardOfPair(name, hub) == grp.ShardOfPair(hub, name) {
			continue // both directions on one shard: the parent shared that key too
		}
		peers = append(peers, lifecycleEndpoint(t, w, name, nullTransport{}))
		visit(t, grp, hub, peers[len(peers)-1], "first")
	}

	fold, shards := grp.Snapshots()
	if fold.Keying.MasterKeyComputes != numPeers || fold.Keying.CertFetches != numPeers {
		t.Fatalf("%d peers cost %d exponentiations and %d certificate fetches, want one of each per peer",
			numPeers, fold.Keying.MasterKeyComputes, fold.Keying.CertFetches)
	}
	if fold.MKDUpcalls != numPeers {
		t.Errorf("%d upcalls, want %d: the answering shard found the key in the MKC", fold.MKDUpcalls, numPeers)
	}
	// The plane is read once: on shard 0, nowhere else, and so the shard
	// readings add up to the fold.
	planeOf := func(s Snapshot) Snapshot {
		return Snapshot{Caches: [NumCaches]CacheInfo{CachePVC: s.Caches[CachePVC], CacheMKC: s.Caches[CacheMKC]},
			Keying: s.Keying, MKDUpcalls: s.MKDUpcalls}
	}
	borrowed := Snapshot{Caches: [NumCaches]CacheInfo{CachePVC: {Name: "pvc"}, CacheMKC: {Name: "mkc"}}}
	var sum Snapshot
	for i, s := range shards {
		if i > 0 && planeOf(s) != borrowed {
			t.Errorf("shard %d's reading carries key-plane counts: %+v", i, planeOf(s))
		}
		sum.Merge(s)
	}
	if planeOf(sum) != planeOf(fold) {
		t.Errorf("shard readings do not add up to the fold:\n sum %+v\nfold %+v", planeOf(sum), planeOf(fold))
	}
	if got := fold.Caches[CacheMKC].Slots; got != numShards*keyCacheSize {
		t.Errorf("plane MKC has %d slots, want shards × keyCacheSize = %d", got, numShards*keyCacheSize)
	}

	// Closing one shard — shard 0, which carries the plane's readings —
	// leaves its siblings keying: a brand-new peer still gets through.
	if err := grp.Shard(0).Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		name := principal.Address(fmt.Sprintf("plane-late-%d", i))
		if grp.ShardOfPair(name, hub) != 0 && grp.ShardOfPair(hub, name) != 0 {
			visit(t, grp, hub, lifecycleEndpoint(t, w, name, nullTransport{}), "late")
			break
		}
	}
	if got := grp.Snapshot().Keying.MasterKeyComputes; got != numPeers+1 {
		t.Errorf("after the late peer: %d exponentiations, want %d", got, numPeers+1)
	}

	// One group, one principal: a shard configured for another identity
	// is refused instead of sharing keys that are not its own.
	other := w.principal(t, "plane-intruder")
	if _, err := planeGroup(t, w, hub, numShards, func(shard int, c *Config) {
		if shard == 2 {
			c.Identity = other
		}
	}); err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("mismatched identity in shard 2: err = %v, want a shard 2 error", err)
	}
}

// TestKeyPlaneChurnMatchesSlotModel is peer_churn with revisits: 256
// peers, round-robin for three rounds, a fresh flow per visit, through a
// two-shard plane. A fresh flow misses the RFKC, so each visit probes
// the MKC once, and whether it re-keys is a matter of slots alone. The
// expected counts replay the same visit order through the plane's two
// direct-mapped arrays — the MKC indexed by addrHash, the PVC by pvcHash
// and consulted only on an MKC miss — so the test holds for any names
// at any size.
func TestKeyPlaneChurnMatchesSlotModel(t *testing.T) {
	const numShards, numPeers, rounds = 2, 256, 3
	const hub = principal.Address("churn-hub")
	w := newWorld(t)
	grp, err := planeGroup(t, w, hub, numShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*Endpoint, numPeers)
	for i := range peers {
		peers[i] = lifecycleEndpoint(t, w, principal.Address(fmt.Sprintf("churn-%d", i)), nullTransport{})
	}

	slots := uint32(numShards * keyCacheSize)
	mkc, pvc := make([]principal.Address, slots), make([]principal.Address, slots)
	var computes, fetches uint64
	for r := range rounds {
		for _, peer := range peers {
			p := peer.Addr()
			if i := addrHash(p) % slots; mkc[i] != p {
				if j := pvcHash(p) % slots; pvc[j] != p {
					fetches++
					pvc[j] = p
				}
				computes++
				mkc[i] = p
			}

			payload := fmt.Sprintf("%s-%d", p, r)
			sealed := transport.Datagram{Source: p, Destination: hub}
			if sealed.Payload, err = peer.SealAppend(nil, transport.Datagram{Destination: hub, Payload: []byte(payload)},
				&FlowID{Src: p, Dst: hub, Aux: uint64(r)}, true); err != nil {
				t.Fatalf("%s seal: %v", p, err)
			}
			got, err := grp.Shard(grp.ShardOfIncoming(sealed)).Open(sealed)
			if err != nil || string(got.Payload) != payload {
				t.Fatalf("hub opened %q, %v from %s; want %q", got.Payload, err, p, payload)
			}
			if _, err := grp.Shard(grp.ShardOfPair(hub, p)).Seal(transport.Datagram{Source: hub, Destination: p, Payload: got.Payload}, true); err != nil {
				t.Fatalf("hub seal to %s: %v", p, err)
			}
		}
	}
	k := grp.Snapshot().Keying
	if k.MasterKeyComputes != computes || k.CertFetches != fetches {
		t.Fatalf("%d peers × %d rounds in %d slots: %d exponentiations and %d certificate fetches, the slot model says %d and %d",
			numPeers, rounds, slots, k.MasterKeyComputes, k.CertFetches, computes, fetches)
	}
	t.Logf("%d peers × %d rounds in %d slots: %d exponentiations, %d certificate fetches", numPeers, rounds, slots, computes, fetches)
}

// TestKeyPlaneSingleFlightAcrossShards: every shard's goroutines miss on
// the same new peers at once. The per-peer single-flight spans shards —
// one exponentiation per peer however many asked — nobody is left
// waiting, and the daemon is woken exactly once per MKC miss.
func TestKeyPlaneSingleFlightAcrossShards(t *testing.T) {
	const numShards, perShard, numPeers = 4, 4, 6
	const hub = principal.Address("flight-hub")
	w := newWorld(t)
	grp, err := planeGroup(t, w, hub, numShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < numPeers; p++ {
		w.principal(t, principal.Address(fmt.Sprintf("flight-peer-%d", p)))
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < numShards; s++ {
		for g := 0; g < perShard; g++ {
			wg.Add(1)
			go func(s, g int) {
				defer wg.Done()
				<-start
				for i := 0; i < numPeers; i++ {
					peer := principal.Address(fmt.Sprintf("flight-peer-%d", (i+g)%numPeers))
					if _, err := grp.Shard(s).Seal(transport.Datagram{Source: hub, Destination: peer, Payload: []byte("x")}, true); err != nil {
						t.Errorf("shard %d goroutine %d seal to %s: %v", s, g, peer, err)
					}
				}
			}(s, g)
		}
	}
	close(start)
	wg.Wait()
	got := grp.Snapshot()
	if got.Keying.MasterKeyComputes != numPeers || got.Keying.CertFetches != numPeers {
		t.Errorf("%d exponentiations, %d certificate fetches for %d peers", got.Keying.MasterKeyComputes, got.Keying.CertFetches, numPeers)
	}
	mkc := got.Caches[CacheMKC].Stats
	if got.MKDUpcalls != mkc.Misses || got.MKDUpcalls < numPeers {
		t.Errorf("%d upcalls for %d MKC misses (%d peers): the daemon is woken once per miss", got.MKDUpcalls, mkc.Misses, numPeers)
	}
	if got.Keying.MasterKeyRequests != mkc.Hits+mkc.Misses {
		t.Errorf("%d requests moved %d MKC counts, want one each", got.Keying.MasterKeyRequests, mkc.Hits+mkc.Misses)
	}
	if want := uint64(numShards * perShard * numPeers); got.SuiteSeals[CipherDES] != want {
		t.Errorf("%d seals completed, want %d", got.SuiteSeals[CipherDES], want)
	}
}

// TestKnownPeerNewFlowMakesNoUpcall: Figure 6 puts the MKC before the
// daemon. A new flow to or from a peer whose master key is cached is
// keyed on the caller's goroutine — with an admission gate that has
// nothing left to give, which known peers bypass.
func TestKnownPeerNewFlowMakesNoUpcall(t *testing.T) {
	w := newWorld(t)
	mk := func(name principal.Address) *Endpoint {
		ep, err := NewEndpoint(Config{
			Identity: w.principal(t, name), Transport: nullTransport{}, Directory: w.dir, Verifier: w.ver, Clock: w.clock,
			Admission: AdmissionConfig{UpcallRate: 0.001, UpcallBurst: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	a, b := mk("known-a"), mk("known-b")
	flow := func(port uint16) {
		t.Helper()
		dg := transport.Datagram{Source: "known-a", Destination: "known-b", Payload: []byte("hello")}
		id := FlowID{Src: "known-a", Dst: "known-b", SrcPort: port}
		wire, err := a.SealAppend(nil, dg, &id, true)
		if err != nil {
			t.Fatalf("flow %d seal: %v", port, err)
		}
		dg.Payload = wire
		if _, err := b.Open(dg); err != nil {
			t.Fatalf("flow %d open: %v", port, err)
		}
	}
	flow(1) // first contact: each side pays its upcall, b spends its only admission token
	before := [2]Snapshot{a.Snapshot(), b.Snapshot()}
	if before[0].MKDUpcalls != 1 || before[1].MKDUpcalls != 1 || before[1].Admission.Admitted != 1 {
		t.Fatalf("first contact: upcalls %d/%d, admitted %d; want 1/1 and 1",
			before[0].MKDUpcalls, before[1].MKDUpcalls, before[1].Admission.Admitted)
	}
	flow(2)
	for i, ep := range []*Endpoint{a, b} {
		got, was := ep.Snapshot(), before[i]
		if got.FAM.FlowsCreated+got.Caches[CacheRFKC].Stats.Misses != was.FAM.FlowsCreated+was.Caches[CacheRFKC].Stats.Misses+1 {
			t.Errorf("%s: the second exchange was not a new flow", ep.Addr())
		}
		if got.MKDUpcalls != was.MKDUpcalls {
			t.Errorf("%s: new flow to a known peer made %d upcalls, want none", ep.Addr(), got.MKDUpcalls-was.MKDUpcalls)
		}
		if h, m := got.Caches[CacheMKC].Stats.Hits-was.Caches[CacheMKC].Stats.Hits, got.Caches[CacheMKC].Stats.Misses-was.Caches[CacheMKC].Stats.Misses; h != 1 || m != 0 {
			t.Errorf("%s: new flow moved MKC hits by %d and misses by %d, want 1 and 0", ep.Addr(), h, m)
		}
		if got.Admission != was.Admission || got.Drops != was.Drops {
			t.Errorf("%s: admission %+v → %+v, drops changed %v: a known peer bypasses the gate", ep.Addr(), was.Admission, got.Admission, got.Drops != was.Drops)
		}
	}
}

// firstContacts seals one datagram to hub from each named peer, each a
// peer's first.
func firstContacts(t *testing.T, w *testWorld, hub principal.Address, peers ...principal.Address) []transport.Datagram {
	t.Helper()
	var dgs []transport.Datagram
	for _, name := range peers {
		sealed, err := lifecycleEndpoint(t, w, name, nullTransport{}).Seal(transport.Datagram{Destination: hub, Payload: []byte("first")}, true)
		if err != nil {
			t.Fatal(err)
		}
		dgs = append(dgs, sealed)
	}
	return dgs
}

// TestOpenBatchKeysAsALoop: a batch keys its chunk's misses in order,
// exactly as a loop of single opens would, whether or not an admission
// gate or a pre-filter guards the plane: same verdicts, same drop
// ledger, same admission counts, same certificate fetches and
// exponentiations. The chunk mixes real first contacts with spoofed
// ones under published and unpublished names.
func TestOpenBatchKeysAsALoop(t *testing.T) {
	const hub = principal.Address("guard-hub")
	w := newWorld(t)
	w.principal(t, hub)
	var legit, published, unknown []principal.Address
	for i := 0; i < 5; i++ {
		legit = append(legit, principal.Address(fmt.Sprintf("guard-peer-%d", i)))
		published = append(published, principal.Address(fmt.Sprintf("guard-victim-%d", i)))
		unknown = append(unknown, principal.Address(fmt.Sprintf("guard-ghost-%d", i)))
		w.principal(t, published[i])
	}
	mallory := lifecycleEndpoint(t, w, "guard-mallory", nullTransport{})
	var dgs []transport.Datagram
	for i, first := range firstContacts(t, w, hub, legit...) {
		dgs = append(dgs, first)
		for _, spoofed := range []principal.Address{published[i], unknown[i]} {
			dg, err := mallory.Seal(transport.Datagram{Destination: hub, Payload: []byte("first")}, true)
			if err != nil {
				t.Fatal(err)
			}
			dg.Source = spoofed
			dgs = append(dgs, dg)
		}
	}
	for _, plane := range []struct {
		name string
		cfg  func(*Config)
	}{
		{"admission", func(c *Config) { c.Admission = AdmissionConfig{UpcallRate: 0.001, UpcallBurst: 6} }},
		// The victims' prefix is charged to one short of the shed score
		// (below), so the sketch sheds it after one bad MAC: the loop
		// keys the first spoofed victim and sheds the other four.
		{"prefilter", func(c *Config) {
			c.Prefilter = PrefilterConfig{Enable: true, ForceLevel: PrefilterSketch, SecretSeed: []byte("guard")}
		}},
		{"unguarded", func(*Config) {}},
	} {
		t.Run(plane.name, func(t *testing.T) {
			mk := func() *Endpoint {
				c := Config{Identity: w.principal(t, hub), Transport: nullTransport{}, Directory: w.dir, Verifier: w.ver, Clock: w.clock}
				plane.cfg(&c)
				ep, err := NewEndpoint(c)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ep.Close() })
				if ep.pf != nil {
					for i := 0; i < sketchShedAt-1; i++ {
						ep.pf.penalize(ep.pf.prefixOf(published[0]))
					}
				}
				return ep
			}
			batch, loop := mk(), mk()
			res := make([]BatchResult, len(dgs))
			batch.OpenBatch(nil, append([]transport.Datagram(nil), dgs...), res)
			for i, dg := range dgs {
				_, err := loop.Open(dg)
				if got, want := DropReasonOf(res[i].Err), DropReasonOf(err); got != want {
					t.Errorf("datagram %d from %s: batch verdict %v, loop %v", i, dg.Source, got, want)
				}
			}
			b, l := batch.Snapshot(), loop.Snapshot()
			if b.Drops != l.Drops {
				t.Errorf("drop ledger: batch %v, loop %v", b.Drops, l.Drops)
			}
			if b.Admission != l.Admission {
				t.Errorf("admission: batch %+v, loop %+v", b.Admission, l.Admission)
			}
			bk, lk := b.Keying, l.Keying
			if bk.CertFetches != lk.CertFetches || bk.MasterKeyComputes != lk.MasterKeyComputes {
				t.Errorf("batch fetched %d certificates and computed %d keys; the loop %d and %d",
					bk.CertFetches, bk.MasterKeyComputes, lk.CertFetches, lk.MasterKeyComputes)
			}
		})
	}
}
