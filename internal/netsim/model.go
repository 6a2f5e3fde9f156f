package netsim

import "time"

// CostModel is the per-packet CPU cost of one protocol configuration on
// the simulated host.
//
// Calibration (documented in DESIGN.md): the paper reports ttcp over
// regular 4.4BSD IP at about 7,700 kb/s on a dedicated 10 Mb/s Ethernet
// between Pentium 133s, and about 3,400 kb/s with FBS DES+MD5. Working
// backwards from 1460-byte segments:
//
//   - GENERIC: 1460·8 bits / 7.7 Mb/s ≈ 1.52 ms of host path per packet.
//   - FBS NOP adds only header insertion and cache lookups (the paper:
//     "FBS incurs very little overhead outside of the cryptographic
//     operations"): +0.04 ms.
//   - FBS DES+MD5 adds a per-byte cost. The paper's userspace CryptoLib
//     rates (DES-CBC 549 kB/s, MD5 7060 kB/s) put the combined rate at
//     509 kB/s; the in-kernel implementation fuses the two passes, and
//     the published 3,400 kb/s implies an effective ≈770 kB/s crypto
//     path. PerByte is set to the published-throughput-derived value;
//     P133FBSDESMD5TwoPass keeps the raw userspace figure for the
//     single-pass ablation. Both describe the paper's kernel: the fused
//     pass is its path, not this code's, whose legacy seal always runs
//     the MAC and then the cipher.
type CostModel struct {
	Name string
	// PerPacket is the fixed host cost per packet (driver, IP path,
	// socket crossing).
	PerPacket time.Duration
	// PerByte is the data-touching cost (MAC + encryption) per payload
	// byte.
	PerByte time.Duration
}

// Cost returns the CPU time to process one packet with n payload bytes.
func (m CostModel) Cost(n int) time.Duration {
	return m.PerPacket + time.Duration(n)*m.PerByte
}

// Pentium-133 calibrated models (see CostModel).
var (
	// P133Generic is stock 4.4BSD IP.
	P133Generic = CostModel{Name: "GENERIC", PerPacket: 1520 * time.Microsecond}
	// P133FBSNOP is FBS with encryption and MAC nullified.
	P133FBSNOP = CostModel{Name: "FBS NOP", PerPacket: 1560 * time.Microsecond}
	// P133FBSDESMD5 is FBS with DES encryption and keyed-MD5 MAC, fused
	// into a single in-kernel data pass.
	P133FBSDESMD5 = CostModel{
		Name:      "FBS DES+MD5",
		PerPacket: 1560 * time.Microsecond,
		PerByte:   time.Second / 770_000,
	}
	// P133FBSDESMD5TwoPass uses the raw userspace CryptoLib rates
	// (549 kB/s DES + 7060 kB/s MD5 as two separate passes): the
	// single-pass ablation's baseline.
	P133FBSDESMD5TwoPass = CostModel{
		Name:      "FBS DES+MD5 (two-pass)",
		PerPacket: 1560 * time.Microsecond,
		PerByte:   time.Second/549_000 + time.Second/7_060_000,
	}
)

// LinkConfig models the wire.
type LinkConfig struct {
	// RateBps is the link rate in bits per second.
	RateBps float64
	// PropDelay is the one-way propagation delay.
	PropDelay time.Duration
	// FrameOverhead is bytes added per packet on the wire (Ethernet
	// header+CRC+preamble+IFG equivalents).
	FrameOverhead int
}

// Ethernet10 is the paper's dedicated 10 Mb/s segment.
var Ethernet10 = LinkConfig{
	RateBps:       10_000_000,
	PropDelay:     50 * time.Microsecond,
	FrameOverhead: 38, // 14 hdr + 4 FCS + 8 preamble + 12 IFG
}

// serialize returns the wire occupancy time of a frame.
func (l LinkConfig) serialize(bytes int) time.Duration {
	return time.Duration(float64(bytes+l.FrameOverhead) * 8 / l.RateBps * float64(time.Second))
}
