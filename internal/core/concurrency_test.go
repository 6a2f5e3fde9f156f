package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// The hot path is lock-striped (FST, TFKC/RFKC, PVC/MKC), metrics are
// atomics and confounder generation is pooled; none of that may lose a
// count. This test hammers one sender from many goroutines across many
// peers and then demands that every counter reconciles exactly:
//
//	FAM Lookups == Hits + FlowsCreated         (classification accounting)
//	TFKC Hits + Misses == FAM Lookups          (one key lookup per seal)
//	Σ peer Received == seals performed         (no datagram lost or double-counted)
//
// Run it under -race: it is as much a data-race detector as a counter
// check.
func TestConcurrentSealOpenReconciles(t *testing.T) {
	const (
		goroutines = 8
		peers      = 24
		rounds     = 50
	)
	w := newWorld(t)
	net := transport.NewNetwork(transport.Impairments{})

	mkCfg := func(name principal.Address, tr transport.Transport) Config {
		return Config{
			Identity:  w.principal(t, name),
			Transport: tr,
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
		}
	}
	hubTr, err := net.Attach("hub", 16)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewEndpoint(mkCfg("hub", hubTr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })

	eps := make([]*Endpoint, peers)
	for i := range eps {
		name := principal.Address(fmt.Sprintf("rc-peer-%02d", i))
		tr, err := net.Attach(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(mkCfg(name, tr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sealBuf := make([]byte, 0, 256)
			openBuf := make([]byte, 0, 256)
			payload := []byte{byte(g), 0}
			for r := 0; r < rounds; r++ {
				for i, ep := range eps {
					payload[1] = byte(i)
					sealed, err := hub.SealAppend(sealBuf[:0], transport.Datagram{
						Source:      "hub",
						Destination: ep.Addr(),
						Payload:     payload,
					}, false)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d seal to %s: %w", g, ep.Addr(), err)
						return
					}
					sealBuf = sealed
					opened, err := ep.OpenAppend(openBuf[:0], transport.Datagram{
						Source:      "hub",
						Destination: ep.Addr(),
						Payload:     sealed,
					})
					if err != nil {
						errs <- fmt.Errorf("goroutine %d open at %s: %w", g, ep.Addr(), err)
						return
					}
					openBuf = opened
					if len(opened) != 2 || opened[0] != byte(g) || opened[1] != byte(i) {
						errs <- fmt.Errorf("goroutine %d: payload corrupted at %s: %x", g, ep.Addr(), opened)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const seals = goroutines * peers * rounds
	fam := hub.Snapshot().FAM
	if fam.Lookups != seals {
		t.Errorf("FAM Lookups = %d, want %d", fam.Lookups, seals)
	}
	if fam.Lookups != fam.Hits+fam.FlowsCreated {
		t.Errorf("FAM accounting broken: Lookups=%d, Hits=%d + FlowsCreated=%d = %d",
			fam.Lookups, fam.Hits, fam.FlowsCreated, fam.Hits+fam.FlowsCreated)
	}
	if fam.FlowsCreated < peers {
		t.Errorf("FlowsCreated = %d, want >= %d (one flow per peer)", fam.FlowsCreated, peers)
	}
	tfkc := hub.Snapshot().Caches[CacheTFKC].Stats
	if tfkc.Hits+tfkc.Misses != fam.Lookups {
		t.Errorf("TFKC lookups (%d hits + %d misses = %d) != FAM lookups %d",
			tfkc.Hits, tfkc.Misses, tfkc.Hits+tfkc.Misses, fam.Lookups)
	}
	// Seal must not count transmissions; only Send does.
	if m := hub.Snapshot(); m.Sent != 0 {
		t.Errorf("hub Sent = %d after Seal-only traffic, want 0", m.Sent)
	}
	var received, receivedBytes uint64
	for i, ep := range eps {
		m := ep.Snapshot()
		if m.Received != goroutines*rounds {
			t.Errorf("peer %d Received = %d, want %d", i, m.Received, goroutines*rounds)
		}
		rfkc := ep.Snapshot().Caches[CacheRFKC].Stats
		if rfkc.Hits+rfkc.Misses != m.Received {
			t.Errorf("peer %d RFKC lookups (%d) != opens (%d)", i, rfkc.Hits+rfkc.Misses, m.Received)
		}
		received += m.Received
		receivedBytes += m.ReceivedBytes
	}
	if received != seals {
		t.Errorf("total Received = %d, want %d", received, seals)
	}
	if receivedBytes != seals*2 {
		t.Errorf("total ReceivedBytes = %d, want %d", receivedBytes, seals*2)
	}
}

// TestConcurrentShardedBatchReconciles is the batch-plane companion of
// the test above: many goroutines drive SealBatch on a sharded sender
// (several goroutines land on the same shard) and OpenBatch on their
// receivers, with one intra-batch duplicate and one corrupted datagram
// injected per round. Every per-DropReason counter must reconcile
// exactly under -race. Batch runs amortize TFKC/RFKC probes per run,
// so unlike the single-datagram test this one does not assert
// probe-count equalities — it pins the datagram-level ledger instead.
func TestConcurrentShardedBatchReconciles(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 30
		batchSize  = 8
		numShards  = 4
	)
	w := newWorld(t)
	hubID := w.principal(t, "shard-hub")
	grp, err := NewShardGroup(numShards, func(shard int) (Config, error) {
		return Config{
			Identity:  hubID,
			Transport: nullTransport{},
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
			Cipher:    CipherAES128GCM,
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { grp.Close() })

	peers := make([]*Endpoint, goroutines)
	for g := range peers {
		name := principal.Address(fmt.Sprintf("shard-peer-%02d", g))
		ep, err := NewEndpoint(Config{
			Identity:          w.principal(t, name),
			Transport:         nullTransport{},
			Directory:         w.dir,
			Verifier:          w.ver,
			Clock:             w.clock,
			Cipher:            CipherAES128GCM,
			EnableReplayCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		peers[g] = ep
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			peer := peers[g]
			sh := grp.Shard(grp.ShardOfPair("shard-hub", peer.Addr()))
			dgs := make([]transport.Datagram, batchSize)
			res := make([]BatchResult, batchSize)
			odgs := make([]transport.Datagram, batchSize+2)
			ores := make([]BatchResult, batchSize+2)
			for r := 0; r < rounds; r++ {
				for i := range dgs {
					dgs[i] = transport.Datagram{
						Source:      "shard-hub",
						Destination: peer.Addr(),
						Payload:     []byte{byte(g), byte(r), byte(i)},
					}
				}
				wire, n := sh.SealBatch(nil, dgs, true, res)
				if n != batchSize {
					errs <- fmt.Errorf("goroutine %d round %d: sealed %d of %d", g, r, n, batchSize)
					return
				}
				for i, rr := range res {
					odgs[i] = transport.Datagram{
						Source:      "shard-hub",
						Destination: peer.Addr(),
						Payload:     wire[rr.Off : rr.Off+rr.Len],
					}
				}
				// An intra-batch duplicate of the first datagram and a
				// corrupted copy of the second.
				odgs[batchSize] = odgs[0]
				corrupt := append([]byte(nil), odgs[1].Payload...)
				corrupt[len(corrupt)-1] ^= 0xFF
				odgs[batchSize+1] = transport.Datagram{Source: "shard-hub", Destination: peer.Addr(), Payload: corrupt}

				clear, accepted := peer.OpenBatch(nil, odgs, ores)
				if accepted != batchSize {
					errs <- fmt.Errorf("goroutine %d round %d: accepted %d of %d", g, r, accepted, batchSize)
					return
				}
				for i := 0; i < batchSize; i++ {
					if ores[i].Err != nil {
						errs <- fmt.Errorf("goroutine %d round %d datagram %d: %v", g, r, i, ores[i].Err)
						return
					}
					if !bytes.Equal(clear[ores[i].Off:ores[i].Off+ores[i].Len], dgs[i].Payload) {
						errs <- fmt.Errorf("goroutine %d round %d datagram %d: payload corrupted", g, r, i)
						return
					}
				}
				if !errors.Is(ores[batchSize].Err, ErrReplay) {
					errs <- fmt.Errorf("goroutine %d round %d: duplicate verdict %v, want ErrReplay", g, r, ores[batchSize].Err)
					return
				}
				if ores[batchSize+1].Err == nil {
					errs <- fmt.Errorf("goroutine %d round %d: corrupted datagram accepted", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The group aggregate must equal the sum of its shards, and each
	// shard's classification accounting must balance.
	const seals = goroutines * rounds * batchSize
	var famLookups, activeFlows uint64
	for i := 0; i < grp.NumShards(); i++ {
		fam := grp.Shard(i).Snapshot().FAM
		if fam.Lookups != fam.Hits+fam.FlowsCreated {
			t.Errorf("shard %d FAM accounting broken: Lookups=%d Hits=%d FlowsCreated=%d",
				i, fam.Lookups, fam.Hits, fam.FlowsCreated)
		}
		famLookups += fam.Lookups
		activeFlows += uint64(grp.Shard(i).Snapshot().ActiveFlows)
	}
	if famLookups != seals {
		t.Errorf("Σ shard FAM Lookups = %d, want %d", famLookups, seals)
	}
	// RSS steering keeps each flow on exactly one shard: one live flow
	// per peer across the whole group, no straddling.
	if activeFlows != goroutines {
		t.Errorf("Σ shard ActiveFlows = %d, want %d", activeFlows, goroutines)
	}
	if m := grp.Snapshot(); m.Sent != 0 {
		t.Errorf("group Sent = %d after Seal-only traffic, want 0", m.Sent)
	}
	bs := grp.Snapshot().Batch
	if bs.SealDatagrams != seals {
		t.Errorf("group SealDatagrams = %d, want %d", bs.SealDatagrams, seals)
	}
	var sealCalls uint64
	for i := 0; i < NumBatchBuckets; i++ {
		sealCalls += bs.SealCalls[i]
	}
	if sealCalls != goroutines*rounds {
		t.Errorf("group SealBatch calls = %d, want %d", sealCalls, goroutines*rounds)
	}
	if got := bs.SealCalls[batchBucket(batchSize)]; got != goroutines*rounds {
		t.Errorf("SealCalls[%d] = %d, want %d (all batches size %d)",
			batchBucket(batchSize), got, goroutines*rounds, batchSize)
	}

	// Per-peer ledger: every datagram accepted exactly once, every
	// injected duplicate and corruption counted under its exact reason.
	for g, peer := range peers {
		m := peer.Snapshot()
		if m.Received != rounds*batchSize {
			t.Errorf("peer %d Received = %d, want %d", g, m.Received, rounds*batchSize)
		}
		if m.ReceivedBytes != rounds*batchSize*3 {
			t.Errorf("peer %d ReceivedBytes = %d, want %d", g, m.ReceivedBytes, rounds*batchSize*3)
		}
		if m.Drops[DropReplay] != rounds {
			t.Errorf("peer %d Drops[replay] = %d, want %d", g, m.Drops[DropReplay], rounds)
		}
		if m.Drops[DropBadMAC] != rounds {
			t.Errorf("peer %d Drops[bad_mac] = %d, want %d", g, m.Drops[DropBadMAC], rounds)
		}
		var total uint64
		for _, d := range m.Drops {
			total += d
		}
		if total != 2*rounds {
			t.Errorf("peer %d total drops = %d, want %d", g, total, 2*rounds)
		}
		ob := peer.Snapshot().Batch
		if ob.OpenDatagrams != rounds*(batchSize+2) {
			t.Errorf("peer %d OpenDatagrams = %d, want %d", g, ob.OpenDatagrams, rounds*(batchSize+2))
		}
	}
}
