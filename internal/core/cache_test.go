package core

import (
	"testing"
	"unsafe"

	"fbs/internal/cryptolib"
)

func u32hash(k uint32) uint32 { return cryptolib.CRC32Fields(uint64(k)) }

func TestDirectMappedBasic(t *testing.T) {
	c := NewDirectMapped[uint32, string](16, u32hash)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit in empty cache")
	}
	c.Put(1, "one")
	v, ok := c.Get(1)
	if !ok || v != "one" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	c.Put(1, "uno")
	if v, _ := c.Get(1); v != "uno" {
		t.Fatal("overwrite failed")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Installs != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDirectMappedNeverReturnsWrongValue(t *testing.T) {
	// Fill a tiny cache with many colliding keys; every hit must carry
	// the exact key's value.
	c := NewDirectMapped[uint32, uint32](4, u32hash)
	for i := uint32(0); i < 1000; i++ {
		c.Put(i, i*7)
		if v, ok := c.Get(i); !ok || v != i*7 {
			t.Fatalf("immediately after Put(%d): %v,%v", i, v, ok)
		}
		// Probe an older key: either a miss, or the right value.
		if i > 10 {
			if v, ok := c.Get(i - 10); ok && v != (i-10)*7 {
				t.Fatalf("stale value for key %d: %d", i-10, v)
			}
		}
	}
}

func TestDirectMappedMissAfterEviction(t *testing.T) {
	c := NewDirectMapped[uint32, int](4, u32hash)
	c.Get(5) // cold miss
	c.Put(5, 1)
	// Evict key 5 by finding a key in the same slot.
	var evictor uint32
	for k := uint32(100); ; k++ {
		if u32hash(k)%4 == u32hash(5)%4 {
			evictor = k
			break
		}
	}
	c.Put(evictor, 2)
	if _, ok := c.Get(5); ok { // displaced: a miss again
		t.Fatal("hit on a displaced key")
	}
	if s := c.Stats(); s.Misses != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestStripesFillWholeCacheLines holds the lock stripes to their padding
// comments: a stripe that is not a whole number of 64-byte lines lets
// the hot fields of adjacent stripes share one.
func TestStripesFillWholeCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"cacheStripe":  unsafe.Sizeof(cacheStripe{}),
		"famStripe":    unsafe.Sizeof(famStripe{}),
		"replayStripe": unsafe.Sizeof(replayStripe{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d bytes, not a multiple of 64", name, size)
		}
	}
}

func TestDirectMappedInvalidateFlush(t *testing.T) {
	c := NewDirectMapped[uint32, int](8, u32hash)
	c.Put(1, 10)
	c.Put(2, 20)
	if !c.Invalidate(1) {
		t.Fatal("Invalidate(1) = false")
	}
	if c.Invalidate(1) {
		t.Fatal("double invalidate = true")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("invalidated key still present")
	}
	c.Flush()
	if _, ok := c.Get(2); ok {
		t.Fatal("flushed key still present")
	}
}

func TestDirectMappedDefaultSize(t *testing.T) {
	c := NewDirectMapped[uint32, int](0, u32hash)
	if c.Size() != 64 {
		t.Fatalf("default size = %d", c.Size())
	}
}

func TestMissRate(t *testing.T) {
	var s CacheStats
	if s.MissRate() != 0 {
		t.Fatal("empty stats miss rate != 0")
	}
	s.Hits, s.Misses = 3, 1
	if got := s.MissRate(); got != 0.25 {
		t.Fatalf("MissRate = %v, want 0.25", got)
	}
}

func TestFlowCacheKeyHashUsesAllFields(t *testing.T) {
	base := flowCacheKey{SFL: 1, Dst: "b", Src: "a"}
	variants := []flowCacheKey{
		{SFL: 2, Dst: "b", Src: "a"},
		{SFL: 1, Dst: "c", Src: "a"},
		{SFL: 1, Dst: "b", Src: "x"},
	}
	h := base.hash()
	for _, v := range variants {
		if v.hash() == h {
			t.Errorf("hash ignores a field: %+v collides with base", v)
		}
	}
}
