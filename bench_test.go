package fbs

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 7.2-7.3), plus ablations for the design choices
// the paper argues for. See EXPERIMENTS.md for the paper-vs-measured
// record.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem .

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/md5"
	"crypto/sha1"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"fbs/internal/baseline"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/flowsim"
	"fbs/internal/netsim"
	"fbs/internal/obs"
	obstrace "fbs/internal/obs/trace"
	"fbs/internal/trace"
	"fbs/internal/transport"
)

// --- Section 7.2 CryptoLib table ------------------------------------
//
// Paper (Pentium 133): DES-CBC 549 kB/s, MD5 7060 kB/s. The benchmark
// reports native rates; the shape to preserve is MD5 >> DES. This is the
// one way to regenerate the table (`go test -bench CryptoLibTable .`).

func BenchmarkCryptoLibTable(b *testing.B) {
	for _, r := range cryptoLibRows(b) {
		b.Run(r.name, func(b *testing.B) {
			if r.noAlloc {
				if n := testing.AllocsPerRun(100, r.step); n != 0 {
					b.Fatalf("%s: %v allocs/op, want 0", r.name, n)
				}
			}
			b.ReportAllocs()
			b.SetBytes(int64(r.bytes))
			for i := 0; i < b.N; i++ {
				r.step()
			}
		})
	}
}

// benchRow is one row of a table benchmark: step is one operation over
// bytes bytes.
type benchRow struct {
	name  string
	bytes int
	step  func()
	// noAlloc rows sit on the per-datagram path: the cipher state
	// and keystream buffer must stay on the stack.
	noAlloc bool
}

// crcSink keeps the CRC32 row's checksum: a discarded result lets the
// compiler drop an inlined table loop and time the bare byte walk.
var crcSink uint32

// cryptoLibRows builds BenchmarkCryptoLibTable's rows.
func cryptoLibRows(tb testing.TB) []benchRow {
	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	iv := make([]byte, 8)
	key := []byte("a 16-byte mackey")
	des, err := cryptolib.NewDES([]byte("8bytekey"))
	if err != nil {
		tb.Fatal(err)
	}
	tdes, err := cryptolib.NewTripleDES([]byte("0123456789abcdef"))
	if err != nil {
		tb.Fatal(err)
	}
	// The AEAD suites' sealed boxes: encrypt+authenticate in one pass,
	// the modern counterpart to the DES-CBC + keyed-MD5 two-pass rows
	// (and the primitives behind fbsbench -suites).
	block, err := aes.NewCipher([]byte("a 16-byte aeskey"))
	if err != nil {
		tb.Fatal(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		tb.Fatal(err)
	}
	chacha, err := cryptolib.NewChaCha20Poly1305([]byte("a 32-byte chacha20poly1305 key!!"))
	if err != nil {
		tb.Fatal(err)
	}
	nonce := make([]byte, 12)
	aad := make([]byte, 12)
	sealed := make([]byte, 0, len(buf)+16)
	// The datagram-sized ChaCha rows: 64 B and 1200 B are gwbench's
	// small_echo and bulk_chacha payloads, and the open row is the
	// receive half of the 1200 B seal.
	dgram := chacha.Seal(nil, nonce, buf[:1200], aad)
	opened := make([]byte, 0, 1200)
	// Confounder/key sources: the paper's LCG-vs-CSPRNG argument. BBS (the
	// quadratic residue generator, the paper's per-datagram-key
	// bottleneck) is slow by design, so its row produces 256 bytes per
	// operation.
	lcg := cryptolib.NewLCGSeeded(1)
	bbs, err := cryptolib.NewBBS(512)
	if err != nil {
		tb.Fatal(err)
	}
	return []benchRow{
		{"DES-CBC", len(buf), func() { cryptolib.EncryptMode(des, cryptolib.CBC, iv, buf, buf) }, false},
		{"DES-ECB", len(buf), func() { cryptolib.EncryptMode(des, cryptolib.ECB, iv, buf, buf) }, false},
		{"3DES-CBC", len(buf), func() { cryptolib.EncryptMode(tdes, cryptolib.CBC, iv, buf, buf) }, false},
		{"MD5", len(buf), func() { md5.Sum(buf) }, false},
		{"SHA1", len(buf), func() { sha1.Sum(buf) }, false},
		{"KeyedMD5-MAC", len(buf), func() { cryptolib.MACPrefixMD5.Compute(key, buf) }, false},
		{"HMAC-MD5", len(buf), func() { cryptolib.MACHMACMD5.Compute(key, buf) }, false},
		{"CRC32", len(buf), func() { crcSink = cryptolib.CRC32(buf) }, false},
		{"AES-128-GCM-seal", len(buf), func() { sealed = gcm.Seal(sealed[:0], nonce, buf, aad) }, false},
		{"ChaCha20-Poly1305-seal", len(buf), func() { sealed = chacha.Seal(sealed[:0], nonce, buf, aad) }, true},
		{"ChaCha20-Poly1305-seal-64B", 64, func() { sealed = chacha.Seal(sealed[:0], nonce, buf[:64], aad) }, true},
		{"ChaCha20-Poly1305-seal-1200B", 1200, func() { sealed = chacha.Seal(sealed[:0], nonce, buf[:1200], aad) }, true},
		{"ChaCha20-Poly1305-open-1200B", 1200, func() { opened, _ = chacha.Open(opened[:0], nonce, dgram, aad) }, true},
		{"LCG", len(buf), func() {
			for i := 0; i < len(buf); i += 4 {
				lcg.Uint32()
			}
		}, false},
		{"BBS", 256, func() { bbs.Read(buf[:256]) }, false},
	}
}

// --- shared fixtures -------------------------------------------------

func benchDomain(b testing.TB) *Domain {
	b.Helper()
	d, err := NewDomain("bench", WithGroup(TestGroup))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchEndpoints(b testing.TB, mutate func(*Config)) (*Endpoint, *Endpoint) {
	b.Helper()
	d := benchDomain(b)
	net := NewNetwork(Impairments{})
	mk := func(addr Address) *Endpoint {
		ep, err := d.NewEndpoint(addr, net, func(c *Config) {
			if mutate != nil {
				mutate(c)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ep.Close() })
		return ep
	}
	return mk("bench-a"), mk("bench-b")
}

// sealOpen pushes one datagram through the full protocol.
func sealOpen(b testing.TB, a, bb *Endpoint, dg Datagram, secret bool) {
	b.Helper()
	sealed, err := a.Seal(dg, secret)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bb.Open(sealed); err != nil {
		b.Fatal(err)
	}
}

// --- Figure 8: throughput -------------------------------------------
//
// BenchmarkFigure8Model runs the calibrated P133 simulation (expected
// shape: GENERIC ≈ FBS NOP ≫ FBS DES+MD5, ~7700 vs ~3400 kb/s).
// BenchmarkFigure8Native measures the real implementation on this
// machine (same shape, faster absolute numbers).

func BenchmarkFigure8Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := netsim.Figure8(netsim.Figure8Config{TotalBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Kbps, r.Workload+"/"+sanitize(r.Config)+"-kbps")
			}
		}
	}
}

func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c == ' ' || c == '+' {
			out[i] = '_'
		}
	}
	return string(out)
}

func BenchmarkFigure8Native(b *testing.B) {
	for i, c := range figure8NativeCases {
		b.Run(c.name, func(b *testing.B) {
			r := figure8NativeRow(b, i)
			b.SetBytes(int64(r.bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step()
			}
		})
	}
}

// figure8NativeCases are BenchmarkFigure8Native's endpoint
// configurations.
var figure8NativeCases = []struct {
	name   string
	mutate func(*Config)
	secret bool
}{
	{"FBS-NOP-null-crypto", func(c *Config) { c.MAC = cryptolib.MACNull }, false},
	{"FBS-MAC-only", nil, false},
	{"FBS-DES-MD5", nil, true},
	{"FBS-3DES", func(c *Config) { c.Cipher = core.Cipher3DES }, true},
}

// figure8NativeRow builds case i's endpoint pair, warms its caches and
// returns the row: one seal+open of a 1460-byte datagram.
func figure8NativeRow(tb testing.TB, i int) benchRow {
	c := figure8NativeCases[i]
	a, bb := benchEndpoints(tb, c.mutate)
	dg := Datagram{Source: "bench-a", Destination: "bench-b", Payload: make([]byte, 1460)}
	sealOpen(tb, a, bb, dg, c.secret)
	return benchRow{name: c.name, bytes: len(dg.Payload), step: func() { sealOpen(tb, a, bb, dg, c.secret) }}
}

// --- Figures 9-14: the flow simulation programs ----------------------
//
// The figures themselves are regenerated by cmd/flowsim; the benchmarks
// run the same analyses and report the headline statistics as metrics,
// so `go test -bench` alone reproduces every number.

// benchCampus builds the trace EXPERIMENTS.md measures and
// internal/flowsim's TestFigure9Measured … TestFigure14Measured assert.
func benchCampus(b *testing.B) *trace.Trace {
	b.Helper()
	return trace.Campus(trace.CampusConfig{Seed: 1997, Duration: 60 * time.Minute, Desktops: 25})
}

func BenchmarkFigure9FlowSizes(b *testing.B) {
	tr := benchCampus(b)
	var flows []flowsim.Flow
	for i := 0; i < b.N; i++ {
		flows = flowsim.Flows(tr, 600*time.Second)
	}
	pk := flowsim.SizesInPackets(flows)
	by := flowsim.SizesInBytes(flows)
	b.ReportMetric(float64(len(flows)), "flows")
	b.ReportMetric(flowsim.Quantile(pk, 0.5), "median-pkts")
	b.ReportMetric(flowsim.Quantile(by, 0.5), "median-bytes")
	b.ReportMetric(flowsim.ByteShareOfTop(flows, 0.1)*100, "top10%%-byte-share")
}

func BenchmarkFigure10FlowDurations(b *testing.B) {
	tr := benchCampus(b)
	var flows []flowsim.Flow
	for i := 0; i < b.N; i++ {
		flows = flowsim.Flows(tr, 600*time.Second)
	}
	d := flowsim.Durations(flows)
	b.ReportMetric(flowsim.Quantile(d, 0.5), "median-secs")
	b.ReportMetric(flowsim.Quantile(d, 0.99), "p99-secs")
}

func BenchmarkFigure11CacheMiss(b *testing.B) {
	tr := benchCampus(b)
	for _, size := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("TFKC-size-%d", size), func(b *testing.B) {
			var res flowsim.CacheResult
			for i := 0; i < b.N; i++ {
				res = flowsim.CacheSim(tr, 600*time.Second, size, flowsim.SendSide, flowsim.HashCRC32)
			}
			b.ReportMetric(res.MissRate()*100, "miss-%")
		})
	}
}

func BenchmarkFigure12ActiveFlows(b *testing.B) {
	tr := benchCampus(b)
	var series []int
	for i := 0; i < b.N; i++ {
		flows := flowsim.Flows(tr, 600*time.Second)
		series = flowsim.ActiveSeries(flows, 600*time.Second, time.Minute, tr.Duration())
	}
	b.ReportMetric(float64(flowsim.MaxActive(series)), "peak-active")
	b.ReportMetric(flowsim.MeanActive(series), "mean-active")
}

func BenchmarkFigure13ThresholdSweep(b *testing.B) {
	tr := benchCampus(b)
	for _, th := range []int{300, 600, 900, 1200} {
		b.Run(fmt.Sprintf("threshold-%ds", th), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				d := time.Duration(th) * time.Second
				flows := flowsim.Flows(tr, d)
				mean = flowsim.MeanActive(flowsim.ActiveSeries(flows, d, time.Minute, tr.Duration()))
			}
			b.ReportMetric(mean, "mean-active")
		})
	}
}

func BenchmarkFigure14RepeatedFlows(b *testing.B) {
	tr := benchCampus(b)
	for _, th := range []int{60, 300, 600, 1200} {
		b.Run(fmt.Sprintf("threshold-%ds", th), func(b *testing.B) {
			var rep int
			for i := 0; i < b.N; i++ {
				rep = flowsim.RepeatedFlows(flowsim.Flows(tr, time.Duration(th)*time.Second))
			}
			b.ReportMetric(float64(rep), "repeated-flows")
		})
	}
}

// --- Keying scheme comparison (Sections 2.2, 7.4) ---------------------
//
// Per-datagram cost of FBS per-flow keying vs SKIP-style per-datagram
// keying vs plain host-pair keying: the Section 7.4 argument that
// per-flow keying wins because key generation happens once per flow.

func BenchmarkKeyingSchemes(b *testing.B) {
	payload := make([]byte, 1460)

	b.Run("FBS-per-flow", func(b *testing.B) {
		a, bb := benchEndpoints(b, nil)
		dg := Datagram{Source: "bench-a", Destination: "bench-b", Payload: payload}
		sealOpen(b, a, bb, dg, true)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sealOpen(b, a, bb, dg, true)
		}
	})

	// Shared fixture for the baseline schemes.
	d := benchDomain(b)
	mkKS := func(addr Address) *core.KeyService {
		id, err := d.NewPrincipal(addr)
		if err != nil {
			b.Fatal(err)
		}
		return core.NewKeyService(id, d.Directory(), d.Verifier(), nil, core.KeyServiceConfig{})
	}
	b.Run("host-pair", func(b *testing.B) {
		hpA := baseline.NewHostPair(mkKS("hp-a"), nil)
		hpB := baseline.NewHostPair(mkKS("hp-b"), nil)
		dg := transport.Datagram{Source: "hp-a", Destination: "hp-b", Payload: payload}
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			sealed, err := hpA.Seal(dg, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := hpB.Open(sealed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SKIP-per-datagram-BBS", func(b *testing.B) {
		skA, err := baseline.NewSKIP(mkKS("sk-a"), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		skB, err := baseline.NewSKIP(mkKS("sk-b"), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		dg := transport.Datagram{Source: "sk-a", Destination: "sk-b", Payload: payload}
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			sealed, err := skA.Seal(dg, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := skB.Open(sealed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SKIP-per-datagram-LCG", func(b *testing.B) {
		// Ablation: same scheme with a cheap (insecure for keys!)
		// generator, isolating the CSPRNG cost the paper calls out.
		lcg := cryptolib.NewLCGSeeded(7)
		src := readerFunc(func(p []byte) (int, error) {
			for i := range p {
				p[i] = byte(lcg.Uint32())
			}
			return len(p), nil
		})
		skA, err := baseline.NewSKIP(mkKS("sl-a"), nil, src)
		if err != nil {
			b.Fatal(err)
		}
		skB, err := baseline.NewSKIP(mkKS("sl-b"), nil, src)
		if err != nil {
			b.Fatal(err)
		}
		dg := transport.Datagram{Source: "sl-a", Destination: "sl-b", Payload: payload}
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			sealed, err := skA.Seal(dg, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := skB.Open(sealed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// --- Setup cost comparison: zero-message vs session keying ------------
//
// Messages and latency-relevant operations needed before the first
// datagram of a conversation can flow.

func BenchmarkFirstDatagramLatency(b *testing.B) {
	payload := []byte("first datagram of a conversation")
	b.Run("FBS-zero-message", func(b *testing.B) {
		// Includes certificate fetch + DH exponentiation, all local:
		// zero network round trips.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a, bb := benchEndpoints(b, nil)
			dg := Datagram{Source: "bench-a", Destination: "bench-b", Payload: payload}
			b.StartTimer()
			sealOpen(b, a, bb, dg, true)
		}
	})
	b.Run("Photuris-style-handshake", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sa := baseline.NewSession("s-a", TestGroup, nil)
			sb := baseline.NewSession("s-b", TestGroup, nil)
			dg := transport.Datagram{Source: "s-a", Destination: "s-b", Payload: payload}
			b.StartTimer()
			if err := sa.Handshake(sb); err != nil {
				b.Fatal(err)
			}
			sealed, err := sa.Seal(dg, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sb.Open(sealed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations ---------------------------------------------------------

// Confounder source (Section 5.3): statistically random LCG vs
// cryptographically strong alternatives.
func BenchmarkAblationConfounder(b *testing.B) {
	b.Run("LCG", func(b *testing.B) {
		l := cryptolib.NewLCGSeeded(1)
		for i := 0; i < b.N; i++ {
			l.Uint32()
		}
	})
	b.Run("system-CSPRNG", func(b *testing.B) {
		var s cryptolib.SystemRandom
		for i := 0; i < b.N; i++ {
			s.Uint32()
		}
	})
	b.Run("BBS", func(b *testing.B) {
		bbs, err := cryptolib.NewBBS(512)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			bbs.Uint32()
		}
	})
}

// Cache index hash (Section 5.3): conflict misses under CRC-32 vs
// modulo vs XOR folding on a real trace.
func BenchmarkAblationCacheHash(b *testing.B) {
	tr := benchCampus(b)
	for _, h := range []struct {
		kind flowsim.HashKind
		name string
	}{{flowsim.HashCRC32, "CRC32"}, {flowsim.HashModulo, "modulo"}, {flowsim.HashXOR, "xor"}} {
		b.Run(h.name, func(b *testing.B) {
			var res flowsim.CacheResult
			for i := 0; i < b.N; i++ {
				res = flowsim.CacheSim(tr, 600*time.Second, 16, flowsim.SendSide, h.kind)
			}
			b.ReportMetric(float64(res.Conflict), "conflict-misses")
			b.ReportMetric(res.MissRate()*100, "miss-%")
		})
	}
}

// Flow key derivation: the fixed cost a new flow pays.
func BenchmarkFlowKeyDerivation(b *testing.B) {
	var master [16]byte
	copy(master[:], "pair master key!")
	for i := 0; i < b.N; i++ {
		FlowKey(SFL(i), master, "10.0.0.1", "10.0.0.2")
	}
}

// Master key (Diffie-Hellman) computation: "Shared" is the cost an MKC
// miss pays, "Public" the g^x an identity pays once when it is minted or
// rebuilt from a provisioning document — on the Oakley groups a
// fixed-base table, elsewhere the window walk, both on the Montgomery
// kernel where the CPU has it. Each has a "-portable" sibling on
// big.Int.Exp, the path every other CPU takes (cryptolib's
// BenchmarkRSA1024 prices the certificate half of a miss the same way).
// Rows run on the test group the suite keys with and on the Oakley
// groups the product runs, each side's private value drawn the way an
// identity draws it.
func BenchmarkMasterKeyComputation(b *testing.B) {
	for _, row := range []struct {
		name string
		g    cryptolib.DHGroup
	}{{"TestGroup", TestGroup}, {"Oakley1", cryptolib.Oakley1}, {"Oakley2", cryptolib.Oakley2}} {
		b.Run(row.name, func(b *testing.B) {
			g := row.g
			priv, err := g.GeneratePrivate()
			if err != nil {
				b.Fatal(err)
			}
			peer, err := g.GeneratePrivate()
			if err != nil {
				b.Fatal(err)
			}
			peerPub := g.Public(peer) // builds the fixed-base table, off the clock
			b.Run("Shared", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := g.Shared(priv, peerPub); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("Shared-portable", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := g.PortableShared(priv, peerPub); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("Public", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSinkInt = g.Public(priv)
				}
			})
			b.Run("Public-portable", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSinkInt = new(big.Int).Exp(g.G, priv, g.P)
				}
			})
		})
	}
}

var benchSinkInt *big.Int

// BenchmarkProvision prices minting a fleet through Domain.Provision:
// 64 first-seen names on Oakley 2, each a private value, a g^x and a
// certificate signature, on min(GOMAXPROCS, 64) goroutines. Each
// iteration gets a fresh domain, its CA key drawn off the clock.
func BenchmarkProvision(b *testing.B) {
	names := make([]Address, 64)
	for i := range names {
		names[i] = Address(fmt.Sprintf("prov-%02d", i))
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := NewDomain("bench-provision")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := d.Provision(names...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyingMiss prices each level of Figure 6 for one datagram at
// the gateway's shape — Oakley 2, AES-128-GCM, 64 B secret bodies:
// "hit" is a round trip on an established flow (TFKC/RFKC hits);
// "new-flow-known-peer" starts a flow with a peer whose master key is
// cached (flow-key cache miss, MKC hit), seal and open apart;
// "new-peer" seals to a peer flushed from every cache first, the whole
// chain: certificate fetch and verification, one exponentiation, K_f;
// "cold-batch" opens one gateway-sized receive batch of first contacts.
func BenchmarkKeyingMiss(b *testing.B) {
	d, err := NewDomain("bench-miss")
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(Impairments{})
	mk := func(addr Address) *Endpoint {
		ep, err := d.NewEndpoint(addr, net, func(c *Config) { c.Cipher = core.CipherAES128GCM })
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ep.Close() })
		return ep
	}
	a, bb := mk("miss-a"), mk("miss-b")
	payload := make([]byte, 64)
	dg := Datagram{Source: "miss-a", Destination: "miss-b", Payload: payload}
	wire := make([]byte, 0, core.HeaderSize+len(payload)+core.MACLen)
	clear := make([]byte, 0, core.HeaderSize+len(payload)+core.MACLen)
	// A flow no iteration has used: the mapper files each under its own sfl.
	var flows uint64
	fresh := func() core.FlowID {
		flows++
		return core.FlowID{Src: "miss-a", Dst: "miss-b", Proto: 17, SrcPort: uint16(flows), Aux: flows}
	}
	sealOpen(b, a, bb, dg, true) // both sides hold K_{a,b}

	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sealed, err := a.SealAppend(wire[:0], dg, nil, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := bb.OpenAppend(clear[:0], Datagram{Source: "miss-a", Destination: "miss-b", Payload: sealed}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("new-flow-known-peer/seal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := fresh()
			if _, err := a.SealAppend(wire[:0], dg, &id, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("new-flow-known-peer/open", func(b *testing.B) {
		// Sealing the arrivals is set-up: a chunk at a time, off the clock.
		const chunk = 256
		arrivals := make([]Datagram, 0, chunk)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%chunk == 0 {
				b.StopTimer()
				arrivals = arrivals[:0]
				for j := 0; j < chunk; j++ {
					id := fresh()
					sealed, err := a.SealAppend(nil, dg, &id, true)
					if err != nil {
						b.Fatal(err)
					}
					arrivals = append(arrivals, Datagram{Source: "miss-a", Destination: "miss-b", Payload: sealed})
				}
				b.StartTimer()
			}
			if _, err := bb.OpenAppend(clear[:0], arrivals[i%chunk]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("new-peer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.FlushPeer("miss-b")
			if _, err := a.SealAppend(wire[:0], dg, nil, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	// peer_churn's shape: 8 peers × 4 datagrams of one flow each,
	// interleaved, opened as one batch by a 2-shard group whose caches
	// hold none of the 8 (flushed off the clock before every iteration).
	// The batch pays 8 exponentiations, keyed in order as a loop of
	// single opens would key them: 8 serial misses.
	const numPeers, perPeer = 8, 4
	hub, err := d.NewShardedEndpoint("cold-hub", 2, func(shard int) (Transport, error) {
		return net.Attach(Address(fmt.Sprintf("cold-hub-%d", shard)), 0)
	}, func(c *Config) { c.Cipher = core.CipherAES128GCM })
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { hub.Close() })
	peers := make([]*Endpoint, numPeers)
	for p := range peers {
		peers[p] = mk(Address(fmt.Sprintf("cold-peer-%d", p)))
	}
	var arrivals []Datagram
	for r := 0; r < perPeer; r++ {
		for _, p := range peers {
			sealed, err := p.Seal(Datagram{Destination: "cold-hub", Payload: payload}, true)
			if err != nil {
				b.Fatal(err)
			}
			arrivals = append(arrivals, sealed)
		}
	}
	b.Run("cold-batch", func(b *testing.B) {
		res := make([]core.BatchResult, len(arrivals))
		plain := make([]byte, 0, len(arrivals)*len(payload))
		computes := hub.Snapshot().Keying.MasterKeyComputes
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for s := 0; s < hub.NumShards(); s++ {
				for _, p := range peers {
					hub.Shard(s).FlushPeer(p.Addr())
				}
			}
			b.StartTimer()
			if _, n := hub.Shard(0).OpenBatch(plain[:0], arrivals, res); n != len(arrivals) {
				b.Fatalf("opened %d of %d", n, len(arrivals))
			}
		}
		b.ReportMetric(float64(hub.Snapshot().Keying.MasterKeyComputes-computes)/float64(b.N), "exps/op")
	})
}

// Cache associativity ablation (Section 5.3: associativity "can not be
// too great" for a software cache — what would it buy?).
func BenchmarkAblationCacheAssociativity(b *testing.B) {
	tr := benchCampus(b)
	for _, assoc := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%d-way", assoc), func(b *testing.B) {
			var res flowsim.CacheResult
			for i := 0; i < b.N; i++ {
				res = flowsim.CacheSimAssoc(tr, 600*time.Second, 32, assoc, flowsim.SendSide, flowsim.HashCRC32)
			}
			b.ReportMetric(float64(res.Conflict), "conflict-misses")
			b.ReportMetric(res.MissRate()*100, "miss-%")
		})
	}
}

// --- Concurrency: the sharded hot path -------------------------------
//
// The paper's kernel implementation runs under a single spl; this
// implementation stripes the FST and key caches so endpoints scale on
// multiprocessors. BenchmarkEndpointParallel measures seal+open
// throughput for one endpoint pair set shared by all goroutines
// (NOP crypto, so the protocol machinery — classification, cache
// lookups, header codec — dominates); compare ns/op of serial vs
// parallel to see the striping win.

func benchFleet(b *testing.B, peers int, mutate func(*Config)) (*Endpoint, []*Endpoint) {
	b.Helper()
	d := benchDomain(b)
	net := NewNetwork(Impairments{})
	mk := func(addr Address) *Endpoint {
		ep, err := d.NewEndpoint(addr, net, func(c *Config) {
			if mutate != nil {
				mutate(c)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ep.Close() })
		return ep
	}
	sender := mk("par-src")
	dsts := make([]*Endpoint, peers)
	for i := range dsts {
		dsts[i] = mk(Address(fmt.Sprintf("par-dst-%02d", i)))
	}
	return sender, dsts
}

func BenchmarkEndpointParallel(b *testing.B) {
	const peers = 24
	payload := make([]byte, 1460)
	nop := func(c *Config) { c.MAC = cryptolib.MACNull }
	sender, dsts := benchFleet(b, peers, nop)
	dgs := make([]Datagram, peers)
	for i, ep := range dsts {
		dgs[i] = Datagram{Source: "par-src", Destination: ep.Addr(), Payload: payload}
		sealOpen(b, sender, ep, dgs[i], false) // warm flow + key caches
	}
	roundTrip := func(sealBuf, openBuf []byte, j int) ([]byte, []byte) {
		sealed, err := sender.SealAppend(sealBuf[:0], dgs[j], nil, false)
		if err != nil {
			b.Fatal(err)
		}
		opened, err := dsts[j].OpenAppend(openBuf[:0], Datagram{
			Source:      dgs[j].Source,
			Destination: dgs[j].Destination,
			Payload:     sealed,
		})
		if err != nil {
			b.Fatal(err)
		}
		return sealed, opened
	}
	b.Run("serial", func(b *testing.B) {
		sealBuf := make([]byte, 0, core.HeaderSize+len(payload))
		openBuf := make([]byte, 0, core.HeaderSize+len(payload))
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			sealBuf, openBuf = roundTrip(sealBuf, openBuf, i%peers)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			sealBuf := make([]byte, 0, core.HeaderSize+len(payload))
			openBuf := make([]byte, 0, core.HeaderSize+len(payload))
			j := int(next.Add(1)) % peers
			for pb.Next() {
				sealBuf, openBuf = roundTrip(sealBuf, openBuf, j)
				j = (j + 1) % peers
			}
		})
	})
}

// BenchmarkSealOpenAllocs pins down the allocation-free steady state of
// the append-style entry points: with warm caches and NOP crypto,
// SealAppend+OpenAppend into reused buffers must not allocate at all.
// An observability pipeline is attached with sampling disabled, so the
// guarantee holds with instrumentation wired in (the gate is one atomic
// load per datagram).
func BenchmarkSealOpenAllocs(b *testing.B) {
	pipe := obs.NewPipeline(obstrace.Config{})
	a, bb := benchEndpoints(b, func(c *Config) {
		c.MAC = cryptolib.MACNull
		c.Tracer = pipe
	})
	payload := make([]byte, 1460)
	dg := Datagram{Source: "bench-a", Destination: "bench-b", Payload: payload}
	sealBuf := make([]byte, 0, core.HeaderSize+len(payload))
	openBuf := make([]byte, 0, core.HeaderSize+len(payload))
	roundTrip := func() {
		sealed, err := a.SealAppend(sealBuf[:0], dg, nil, false)
		if err != nil {
			b.Fatal(err)
		}
		sealBuf = sealed
		opened, err := bb.OpenAppend(openBuf[:0], Datagram{
			Source: "bench-a", Destination: "bench-b", Payload: sealed,
		})
		if err != nil {
			b.Fatal(err)
		}
		openBuf = opened
	}
	roundTrip() // warm flow + key caches
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		b.Fatalf("append path allocates: %v allocs/op, want 0", avg)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// BenchmarkRunOfOne times the single-datagram entry points alone, at the
// gateway's small-echo shape (64 B, AES-128-GCM, warm caches, real
// crypto), so the fixed cost of one datagram — everything that is not
// per-byte work — is a number. Open is the alias-returning form the
// gateway and the IP mapping call; OpenAppend and SealAppend are the
// append forms BenchmarkSealOpenAllocs covers only as a 1460 B round
// trip. Cleartext Open and both append forms must stay 0 allocs/op;
// secret Open allocates its plaintext and Seal its wire buffer, each
// once, sized for the tag an AEAD stages past the body. Each row asserts
// its count before timing, as BenchmarkCryptoLibTable's noAlloc rows do. The
// "+tracer" rows repeat the measurement with a pipeline attached and
// quiet (SampleEvery 0), which prices the observation gate.
func BenchmarkRunOfOne(b *testing.B) {
	a, bb := benchEndpoints(b, func(c *Config) { c.Cipher = core.CipherAES128GCM })
	ta, tb := benchEndpoints(b, func(c *Config) {
		c.Cipher = core.CipherAES128GCM
		c.Tracer = obs.NewPipeline(obstrace.Config{})
	})
	payload := make([]byte, 64)
	dg := Datagram{Source: "bench-a", Destination: "bench-b", Payload: payload}
	for _, v := range []struct {
		name   string
		secret bool
		a, bb  *Endpoint
	}{
		{"cleartext", false, a, bb}, {"secret", true, a, bb},
		{"cleartext+tracer", false, ta, tb}, {"secret+tracer", true, ta, tb},
	} {
		name, secret, a, bb := v.name, v.secret, v.a, v.bb
		sealed, err := a.Seal(dg, secret)
		if err != nil {
			b.Fatal(err)
		}
		wire := Datagram{Source: "bench-a", Destination: "bench-b", Payload: sealed.Payload}
		// MACLen of headroom: an AEAD seal stages its tag after the body
		// before moving it into the header.
		buf := make([]byte, 0, core.HeaderSize+len(payload)+core.MACLen)
		openAllocs := 0.0
		if secret {
			openAllocs = 1
		}
		for _, r := range []struct {
			op     string
			allocs float64
			step   func() error
		}{
			{"Open", openAllocs, func() error { _, err := bb.Open(wire); return err }},
			{"OpenAppend", 0, func() error { _, err := bb.OpenAppend(buf[:0], wire); return err }},
			{"SealAppend", 0, func() error { _, err := a.SealAppend(buf[:0], dg, nil, secret); return err }},
			{"Seal", 1, func() error { _, err := a.Seal(dg, secret); return err }},
		} {
			b.Run(name+"/"+r.op, func(b *testing.B) {
				var err error
				if n := testing.AllocsPerRun(100, func() { err = r.step() }); err != nil || n != r.allocs {
					b.Fatalf("%v allocs/op (err %v), want %v", n, err, r.allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := r.step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestSealOpenAllocsWithTracer is the go-test-enforced form of the
// BenchmarkSealOpenAllocs guarantee: with an observability pipeline
// attached and its sampler disabled, the append-style round trip
// performs zero allocations; flipping sampling on at runtime must not
// disturb correctness (and flipping it back off restores the zero-alloc
// state).
func TestSealOpenAllocsWithTracer(t *testing.T) {
	d := testDomain(t)
	net := NewNetwork(Impairments{})
	pipe := obs.NewPipeline(obstrace.Config{})
	mk := func(addr Address) *Endpoint {
		ep, err := d.NewEndpoint(addr, net, func(c *Config) {
			c.MAC = cryptolib.MACNull
			c.Tracer = pipe
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	a, bb := mk("alloc-a"), mk("alloc-b")
	payload := make([]byte, 1460)
	dg := Datagram{Source: "alloc-a", Destination: "alloc-b", Payload: payload}
	sealBuf := make([]byte, 0, core.HeaderSize+len(payload))
	openBuf := make([]byte, 0, core.HeaderSize+len(payload))
	roundTrip := func() {
		sealed, err := a.SealAppend(sealBuf[:0], dg, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		sealBuf = sealed
		opened, err := bb.OpenAppend(openBuf[:0], Datagram{
			Source: "alloc-a", Destination: "alloc-b", Payload: sealed,
		})
		if err != nil {
			t.Fatal(err)
		}
		openBuf = opened
	}
	roundTrip() // warm flow + key caches
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		t.Fatalf("append path with a quiet tracer attached allocates: %v allocs/op, want 0", avg)
	}
	// Runtime toggle: trace every datagram briefly, confirm the spans
	// land in the ring and feed the histograms, then re-assert the
	// zero-alloc steady state with sampling off and the pipeline still
	// attached.
	pipe.SetSampleEvery(1)
	before := pipe.StageSnapshot(true, "total").Count
	roundTrip()
	if after := pipe.StageSnapshot(true, "total").Count; after != before+1 {
		t.Fatalf("sampling enabled but seal count stayed %d", after)
	}
	if pipe.Started() != 2 || pipe.Recorded() == 0 {
		t.Fatalf("one traced round trip: started=%d recorded=%d, want 2 traces", pipe.Started(), pipe.Recorded())
	}
	pipe.SetSampleEvery(0)
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		t.Fatalf("append path allocates after sampling toggled off: %v allocs/op", avg)
	}
}

// Full-stack throughput: a ttcp-style transfer through real IPv4 +
// simplified TCP with real FBS processing at the paper's hook points —
// the native-speed analogue of the Figure 8 testbed runs.
func BenchmarkFigure8FullStack(b *testing.B) {
	run := func(b *testing.B, secret bool) {
		ssa, ssb, dst := fullStackPair(b, secret)
		const total = 64 * 1024
		data := make([]byte, total)
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ln, err := ssb.Listen(uint16(6000 + i%1000))
			if err != nil {
				b.Fatal(err)
			}
			got := make(chan int, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					got <- -1
					return
				}
				n, _ := io.Copy(io.Discard, conn)
				got <- int(n)
			}()
			conn, err := ssa.Dial(dst, uint16(6000+i%1000))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := conn.Write(data); err != nil {
				b.Fatal(err)
			}
			if err := conn.CloseWrite(); err != nil {
				b.Fatal(err)
			}
			if n := <-got; n != total {
				b.Fatalf("received %d of %d bytes", n, total)
			}
			ln.Close()
		}
	}
	b.Run("FBS-DES-MD5", func(b *testing.B) { run(b, true) })
	b.Run("FBS-MAC-only", func(b *testing.B) { run(b, false) })
}
