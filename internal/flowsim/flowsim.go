// Package flowsim is the set of "flow simulation programs" of Section
// 7.3: it feeds packet traces through the security flow policy of
// Section 7.1 and computes the flow characteristics behind Figures 9-14 —
// flow sizes and durations, simultaneously active flows, threshold
// sensitivity, repeated flows, and key-cache miss behaviour.
package flowsim

import (
	"sort"
	"time"

	"fbs/internal/core"
	"fbs/internal/ip"
	"fbs/internal/trace"
)

// FiveTuple is the Section 7.1 flow attribute set.
type FiveTuple struct {
	Proto   uint8
	Src     ip.Addr
	SrcPort uint16
	Dst     ip.Addr
	DstPort uint16
}

// tupleOf extracts the attributes from a trace packet.
func tupleOf(p trace.Packet) FiveTuple {
	return FiveTuple{Proto: p.Proto, Src: p.Src, SrcPort: p.SrcPort, Dst: p.Dst, DstPort: p.DstPort}
}

// Flow is one security flow: a maximal run of same-tuple packets with no
// gap exceeding the THRESHOLD.
type Flow struct {
	Tuple   FiveTuple
	Start   time.Duration
	End     time.Duration
	Packets int
	Bytes   int64
}

// Duration returns the flow's lifetime.
func (f Flow) Duration() time.Duration { return f.End - f.Start }

// Flows runs the THRESHOLD policy over the trace and returns every flow,
// in order of creation. This is the exact (collision-free) policy
// semantics; FST hash collisions are studied separately by CacheSim.
func Flows(tr *trace.Trace, threshold time.Duration) []Flow {
	type state struct {
		idx  int // index into flows
		last time.Duration
	}
	live := make(map[FiveTuple]state)
	var flows []Flow
	for _, p := range tr.Packets {
		tup := tupleOf(p)
		st, ok := live[tup]
		if ok && p.Time-st.last <= threshold {
			f := &flows[st.idx]
			f.Packets++
			f.Bytes += int64(p.Size)
			f.End = p.Time
			st.last = p.Time
			live[tup] = st
			continue
		}
		flows = append(flows, Flow{
			Tuple: tup, Start: p.Time, End: p.Time,
			Packets: 1, Bytes: int64(p.Size),
		})
		live[tup] = state{idx: len(flows) - 1, last: p.Time}
	}
	return flows
}

// SizesInPackets returns each flow's packet count (Figure 9a's
// underlying data).
func SizesInPackets(flows []Flow) []float64 {
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = float64(f.Packets)
	}
	return out
}

// SizesInBytes returns each flow's byte count (Figure 9b).
func SizesInBytes(flows []Flow) []float64 {
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = float64(f.Bytes)
	}
	return out
}

// Durations returns each flow's lifetime in seconds (Figure 10).
func Durations(flows []Flow) []float64 {
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = f.Duration().Seconds()
	}
	return out
}

// ActiveSeries computes the number of simultaneously active flows at
// each bin boundary (Figures 12 and 13). A flow is active from its first
// packet until THRESHOLD after its last.
func ActiveSeries(flows []Flow, threshold, bin, horizon time.Duration) []int {
	if bin <= 0 {
		bin = time.Minute
	}
	n := int(horizon/bin) + 1
	delta := make([]int, n+1)
	for _, f := range flows {
		s := int(f.Start / bin)
		e := int((f.End + threshold) / bin)
		if s >= n {
			continue
		}
		if e >= n {
			e = n - 1
		}
		delta[s]++
		delta[e+1]--
	}
	out := make([]int, n)
	cur := 0
	for i := 0; i < n; i++ {
		cur += delta[i]
		out[i] = cur
	}
	return out
}

// PerHostPeakActive computes, for each host, the peak number of
// simultaneously active flows it terminates (as source for SendSide, as
// destination for ReceiveSide). Figure 12's claim is per host: "the
// number of simultaneous active flows in a host are not exceedingly
// high".
func PerHostPeakActive(flows []Flow, threshold, bin, horizon time.Duration, side CacheSide) map[ip.Addr]int {
	if bin <= 0 {
		bin = time.Minute
	}
	n := int(horizon/bin) + 1
	deltas := make(map[ip.Addr][]int)
	for _, f := range flows {
		host := f.Tuple.Src
		if side == ReceiveSide {
			host = f.Tuple.Dst
		}
		d, ok := deltas[host]
		if !ok {
			d = make([]int, n+1)
			deltas[host] = d
		}
		s := int(f.Start / bin)
		e := int((f.End + threshold) / bin)
		if s >= n {
			continue
		}
		if e >= n {
			e = n - 1
		}
		d[s]++
		d[e+1]--
	}
	out := make(map[ip.Addr]int, len(deltas))
	for host, d := range deltas {
		cur, peak := 0, 0
		for i := 0; i < n; i++ {
			cur += d[i]
			if cur > peak {
				peak = cur
			}
		}
		out[host] = peak
	}
	return out
}

// MaxOverHosts returns the largest per-host peak.
func MaxOverHosts(m map[ip.Addr]int) int {
	max := 0
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// RepeatedFlows counts flows that share a 5-tuple with an earlier flow
// (Figure 14): with small THRESHOLDs, conversations fragment and tuples
// recur; the count drops as THRESHOLD grows.
func RepeatedFlows(flows []Flow) int {
	seen := make(map[FiveTuple]int)
	repeated := 0
	for _, f := range flows {
		seen[f.Tuple]++
		if seen[f.Tuple] > 1 {
			repeated++
		}
	}
	return repeated
}

// MaxActive returns the peak of ActiveSeries.
func MaxActive(series []int) int {
	max := 0
	for _, v := range series {
		if v > max {
			max = v
		}
	}
	return max
}

// MeanActive returns the average of ActiveSeries.
func MeanActive(series []int) float64 {
	if len(series) == 0 {
		return 0
	}
	sum := 0
	for _, v := range series {
		sum += v
	}
	return float64(sum) / float64(len(series))
}

// CDF computes the cumulative distribution of values at the given
// fractions' complement: it returns sorted (x, F(x)) pairs suitable for
// plotting, thinned to at most points entries.
type CDFPoint struct {
	X float64
	F float64
}

// ComputeCDF sorts values and returns up to points (x, F(x)) samples.
func ComputeCDF(values []float64, points int) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	if points <= 0 {
		points = 50
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	out := make([]CDFPoint, 0, points)
	step := len(v) / points
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(v); i += step {
		out = append(out, CDFPoint{X: v[i], F: float64(i+1) / float64(len(v))})
	}
	last := CDFPoint{X: v[len(v)-1], F: 1}
	if out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) of values.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	i := int(q * float64(len(v)-1))
	return v[i]
}

// ByteShareOfTop returns the fraction of total bytes carried by the
// top fraction of flows by size — quantifying "a few long-lived flows
// carry the bulk of the traffic".
func ByteShareOfTop(flows []Flow, topFraction float64) float64 {
	if len(flows) == 0 {
		return 0
	}
	sizes := make([]int64, len(flows))
	var total int64
	for i, f := range flows {
		sizes[i] = f.Bytes
		total += f.Bytes
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	n := int(topFraction * float64(len(sizes)))
	if n < 1 {
		n = 1
	}
	var top int64
	for _, s := range sizes[:n] {
		top += s
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// CacheSide selects which end's key cache a simulation models.
type CacheSide int

// Cache sides.
const (
	// SendSide models each host's TFKC over the packets it sends.
	SendSide CacheSide = iota
	// ReceiveSide models each host's RFKC over the packets it receives.
	ReceiveSide
)

// CacheResult reports a cache simulation for one cache size.
type CacheResult struct {
	Size     int
	Lookups  uint64
	Misses   uint64
	Cold     uint64
	Conflict uint64
}

// MissRate returns misses/lookups.
func (r CacheResult) MissRate() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Lookups)
}

// HashKind selects the cache index hash for the ablation of Section 5.3.
type HashKind int

// Cache index hash functions.
const (
	// HashCRC32 is the paper's recommendation.
	HashCRC32 HashKind = iota
	// HashModulo indexes by the raw tuple sum modulo table size — fast
	// but badly correlated for sequential ports/addresses.
	HashModulo
	// HashXOR folds the tuple with XOR.
	HashXOR
)

// CacheSim replays the trace against per-host direct-mapped flow key
// caches of the given size and reports aggregate miss behaviour
// (Figure 11): CacheSimAssoc at one way.
func CacheSim(tr *trace.Trace, threshold time.Duration, size int, side CacheSide, hash HashKind) CacheResult {
	return CacheSimAssoc(tr, threshold, size, 1, side, hash)
}

func cacheIndex(t FiveTuple, size int, hash HashKind) int {
	switch hash {
	case HashModulo:
		sum := uint32(t.Proto) + uint32(t.SrcPort) + uint32(t.DstPort)
		for _, b := range t.Src {
			sum += uint32(b)
		}
		for _, b := range t.Dst {
			sum += uint32(b)
		}
		return int(sum % uint32(size))
	case HashXOR:
		x := uint32(t.Proto)<<16 ^ uint32(t.SrcPort)<<8 ^ uint32(t.DstPort)
		x ^= uint32(t.Src[0])<<24 | uint32(t.Src[1])<<16 | uint32(t.Src[2])<<8 | uint32(t.Src[3])
		x ^= uint32(t.Dst[0])<<24 | uint32(t.Dst[1])<<16 | uint32(t.Dst[2])<<8 | uint32(t.Dst[3])
		return int(x % uint32(size))
	default:
		id := core.FlowID{
			Src: ip.Principal(t.Src), Dst: ip.Principal(t.Dst),
			Proto: t.Proto, SrcPort: t.SrcPort, DstPort: t.DstPort,
		}
		return core.ThresholdPolicy{}.Index(id, size)
	}
}

// CacheSimAssoc replays the trace against per-host N-way set-associative
// flow key caches with LRU replacement inside each set. threshold expires
// cache entries the way flow expiry (rekeying) invalidates flow keys.
// Section 5.3 argues associativity "can not be too great" because the
// caches are software with strict lookup-time budgets; this simulation
// quantifies what a little associativity buys in conflict misses. size is
// the total entry count; assoc divides it into size/assoc sets.
func CacheSimAssoc(tr *trace.Trace, threshold time.Duration, size, assoc int, side CacheSide, hash HashKind) CacheResult {
	if assoc < 1 {
		assoc = 1
	}
	sets := size / assoc
	if sets < 1 {
		sets = 1
	}
	type entry struct {
		tuple FiveTuple
		valid bool
		last  time.Duration
		used  uint64 // LRU stamp
	}
	caches := make(map[ip.Addr][]entry) // sets*assoc flat
	seen := make(map[FiveTuple]bool)
	res := CacheResult{Size: size}
	var tick uint64
	for _, p := range tr.Packets {
		tick++
		host := p.Src
		if side == ReceiveSide {
			host = p.Dst
		}
		c, ok := caches[host]
		if !ok {
			c = make([]entry, sets*assoc)
			caches[host] = c
		}
		tup := tupleOf(p)
		setIdx := cacheIndex(tup, sets, hash)
		set := c[setIdx*assoc : (setIdx+1)*assoc]
		res.Lookups++
		hit := false
		for i := range set {
			if set[i].valid && set[i].tuple == tup && p.Time-set[i].last <= threshold {
				set[i].last = p.Time
				set[i].used = tick
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		res.Misses++
		if seen[tup] {
			res.Conflict++
		} else {
			res.Cold++
			seen[tup] = true
		}
		// Install over the LRU victim.
		victim := 0
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
			if set[i].used < set[victim].used {
				victim = i
			}
		}
		set[victim] = entry{tuple: tup, valid: true, last: p.Time, used: tick}
	}
	return res
}

// CacheSweep runs CacheSim across sizes.
func CacheSweep(tr *trace.Trace, threshold time.Duration, sizes []int, side CacheSide, hash HashKind) []CacheResult {
	out := make([]CacheResult, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, CacheSim(tr, threshold, s, side, hash))
	}
	return out
}
