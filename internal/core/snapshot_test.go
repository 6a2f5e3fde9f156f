package core

import (
	"fmt"
	"reflect"
	"testing"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// numericLeaves calls fn for every integer leaf of v, depth first, with
// its dotted path ("Caches[2].Stats.Hits").
func numericLeaves(v reflect.Value, path string, fn func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			numericLeaves(v.Field(i), name, fn)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			numericLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fn(path, v)
	}
}

func leafValue(v reflect.Value) uint64 {
	if v.CanInt() {
		return uint64(v.Int())
	}
	return v.Uint()
}

func setLeaf(v reflect.Value, n uint64) {
	if v.CanInt() {
		v.SetInt(int64(n))
	} else {
		v.SetUint(n)
	}
}

// maxFolded lists the leaves Merge folds by taking the larger value;
// every other integer in a Snapshot must add.
var maxFolded = map[string]bool{
	"Budget.HighWater": true,
	"Budget.HardLimit": true,
	"Prefilter.Level":  true,
	"Prefilter.Epoch":  true,
}

// TestSnapshotMergeCoversEveryField fills every integer leaf of a
// Snapshot by reflection and merges the value into a copy of itself:
// each leaf must come out doubled, or be on the max-fold list and come
// out unchanged (and take the larger side when the sides differ). A
// field added to Snapshot and forgotten in Merge fails here.
func TestSnapshotMergeCoversEveryField(t *testing.T) {
	var s Snapshot
	want := map[string]uint64{}
	var n uint64
	numericLeaves(reflect.ValueOf(&s).Elem(), "", func(path string, leaf reflect.Value) {
		n++
		setLeaf(leaf, n)
		want[path] = n
	})
	if n < 134 {
		t.Fatalf("walked only %d leaves; the walker is not reaching the whole value", n)
	}
	for path := range maxFolded {
		if _, ok := want[path]; !ok {
			t.Errorf("max-fold list names %s, which is not a leaf of Snapshot", path)
		}
	}

	got := s
	got.Merge(s)
	numericLeaves(reflect.ValueOf(&got).Elem(), "", func(path string, leaf reflect.Value) {
		v := leafValue(leaf)
		switch {
		case maxFolded[path] && v != want[path]:
			t.Errorf("%s: max(x, x) = %d, want %d", path, v, want[path])
		case !maxFolded[path] && v != 2*want[path]:
			t.Errorf("%s = %d after merging the value into itself, want %d (not folded in Merge?)", path, v, 2*want[path])
		}
	})

	// The max-folded leaves take the larger side, whichever it is.
	bigger := s
	numericLeaves(reflect.ValueOf(&bigger).Elem(), "", func(path string, leaf reflect.Value) {
		setLeaf(leaf, leafValue(leaf)+1000)
	})
	for _, c := range []struct{ into, from Snapshot }{{s, bigger}, {bigger, s}} {
		c.into.Merge(c.from)
		numericLeaves(reflect.ValueOf(&c.into).Elem(), "", func(path string, leaf reflect.Value) {
			if maxFolded[path] && leafValue(leaf) != want[path]+1000 {
				t.Errorf("%s = %d, want the larger side %d", path, leafValue(leaf), want[path]+1000)
			}
		})
	}

	for i, c := range got.Caches {
		if c.Name != s.Caches[i].Name {
			t.Errorf("cache %d lost its name in Merge", i)
		}
	}
}

// TestShardGroupSnapshotIsFoldOfShards drives mixed traffic — secret and
// cleartext seals, batch and single opens, corrupted and replayed
// arrivals — through a live 3-shard group whose shards share one
// *Budget, and checks the group snapshot is exactly the Merge of the
// shards' snapshots with the shared budget counted once.
func TestShardGroupSnapshotIsFoldOfShards(t *testing.T) {
	const numShards, numPeers = 3, 9
	w := newWorld(t)
	hubID := w.principal(t, "fold-hub")
	budget := NewBudget(0, 1<<20)
	grp, err := NewShardGroup(numShards, func(int) (Config, error) {
		return Config{
			Identity: hubID, Transport: nullTransport{}, Directory: w.dir, Verifier: w.ver, Clock: w.clock,
			Cipher: CipherAES128GCM, EnableReplayCache: true, StateBudget: budget,
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { grp.Close() })

	for p := 0; p < numPeers; p++ {
		name := principal.Address(fmt.Sprintf("fold-peer-%d", p))
		peer, err := NewEndpoint(Config{
			Identity: w.principal(t, name), Transport: nullTransport{}, Directory: w.dir, Verifier: w.ver, Clock: w.clock,
			Cipher: CipherAES128GCM,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		in := grp.Shard(grp.ShardOfPair(name, "fold-hub"))
		out := grp.Shard(grp.ShardOfPair("fold-hub", name))

		// Peer → hub: a batch of four, then its first datagram replayed and
		// its second corrupted, one at a time.
		dgs := make([]transport.Datagram, 4)
		for i := range dgs {
			dgs[i] = transport.Datagram{Source: name, Destination: "fold-hub", Payload: []byte{byte(p), byte(i)}}
		}
		res := make([]BatchResult, len(dgs))
		wire, n := peer.SealBatch(nil, dgs, p%2 == 0, res)
		if n != len(dgs) {
			t.Fatalf("peer %d sealed %d of %d", p, n, len(dgs))
		}
		arrivals := make([]transport.Datagram, len(dgs))
		for i, r := range res {
			arrivals[i] = transport.Datagram{Source: name, Destination: "fold-hub", Payload: wire[r.Off : r.Off+r.Len]}
		}
		if _, n := in.OpenBatch(nil, arrivals, res); n != len(dgs) {
			t.Fatalf("hub accepted %d of %d from peer %d", n, len(dgs), p)
		}
		if _, err := in.Open(arrivals[0]); err == nil {
			t.Fatalf("peer %d: replay accepted", p)
		}
		corrupt := append([]byte(nil), arrivals[1].Payload...)
		corrupt[len(corrupt)-1] ^= 0xFF
		if _, err := in.Open(transport.Datagram{Source: name, Destination: "fold-hub", Payload: corrupt}); err == nil {
			t.Fatalf("peer %d: corrupted datagram accepted", p)
		}
		// Hub → peer: one sealed reply.
		if _, err := out.Seal(transport.Datagram{Source: "fold-hub", Destination: name, Payload: []byte("reply")}, true); err != nil {
			t.Fatalf("hub seal to peer %d: %v", p, err)
		}
	}

	got, shards := grp.Snapshots()
	if len(shards) != numShards {
		t.Fatalf("Snapshots returned %d shard readings, want %d", len(shards), numShards)
	}
	var want Snapshot
	busy := 0
	for i, s := range shards {
		if s != grp.Shard(i).Snapshot() {
			t.Errorf("shard %d: reading differs from the shard's own Snapshot()", i)
		}
		if s.Budget != budget.Stats() {
			t.Errorf("shard %d: own reading shows budget %+v, want the shared budget %+v", i, s.Budget, budget.Stats())
		}
		if s.Received > 0 {
			busy++
		}
		if i > 0 {
			s.Budget = BudgetStats{}
		}
		want.Merge(s)
	}
	if busy < 2 {
		t.Fatalf("traffic reached %d shards; the fold needs at least two to mean anything", busy)
	}
	if got != want {
		t.Errorf("group snapshot is not the fold of its shards:\n got %+v\nwant %+v", got, want)
	}
	if got != grp.Snapshot() {
		t.Error("Snapshot() differs from Snapshots()'s fold on an idle group")
	}
	if got.Budget != budget.Stats() {
		t.Errorf("fold budget %+v, want the shared budget once %+v", got.Budget, budget.Stats())
	}
	if got.Budget.Used == 0 {
		t.Error("shared budget shows nothing charged; the once-only check is vacuous")
	}
	if got.Received != numPeers*4 || got.Drops[DropReplay] != numPeers || got.Drops[DropBadMAC] != numPeers {
		t.Errorf("fold: received %d replay %d bad_mac %d, want %d/%d/%d",
			got.Received, got.Drops[DropReplay], got.Drops[DropBadMAC], numPeers*4, numPeers, numPeers)
	}
	if got.ActiveFlows != numPeers || got.Batch.OpenDatagrams != numPeers*4 {
		t.Errorf("fold: active flows %d, batch-opened %d, want %d and %d", got.ActiveFlows, got.Batch.OpenDatagrams, numPeers, numPeers*4)
	}
}
