package netsim

import (
	"fmt"
	"time"

	"fbs/internal/baseline"
	"fbs/internal/obs"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Transfer defaults, applied by Validate.
const (
	// DefaultWindow is the unacknowledged-segment window when Window is
	// unset (the paper's ttcp runs).
	DefaultWindow = 8
	// DefaultTotalBytes is the Figure 8 transfer size: 4 MiB (4<<20
	// bytes, the paper's "4 MB file").
	DefaultTotalBytes = 4 << 20
)

// TransferConfig describes a windowed bulk transfer (ttcp/rcp style)
// between two simulated hosts.
type TransferConfig struct {
	// TotalBytes of application data to move.
	TotalBytes int
	// SegmentBytes of application data per packet (MSS-sized).
	SegmentBytes int
	// HeaderBytes of protocol header per packet on the wire
	// (IP + TCP + security header).
	HeaderBytes int
	// Window is the number of unacknowledged segments in flight.
	Window int
	// Sender and Receiver are the host cost models.
	Sender, Receiver CostModel
	// AppPerSegment is extra application-level cost charged at both
	// ends per segment (rcp's file system and process overhead).
	AppPerSegment time.Duration
	// Link is the wire.
	Link LinkConfig

	// Sealer/Opener optionally run the real protocol code on every
	// simulated segment (costs are still the modelled ones; this
	// validates the code path and the experiment end to end). Both or
	// neither must be set.
	Sealer baseline.Sealer
	Opener baseline.Sealer
	// SealerSrc/SealerDst are the principal addresses used when running
	// the real protocol code.
	SealerSrc, SealerDst string
	// SealHist/OpenHist optionally record the wall-clock latency of the
	// real Sealer.Seal and Opener.Open calls, one observation per
	// segment (requires Sealer/Opener). These feed fbsbench's latency
	// percentiles and the admin plane's /metrics histograms.
	SealHist, OpenHist *obs.Histogram
}

// Validate normalises the configuration in place and reports the first
// inconsistency. It is called by BulkTransfer, so callers only need it
// when they want the error (or the applied defaults) before running:
// Window defaults to DefaultWindow, and a zero Link — which would model
// an infinitely slow wire — defaults to Ethernet10.
func (cfg *TransferConfig) Validate() error {
	if cfg.TotalBytes <= 0 {
		return fmt.Errorf("netsim: TotalBytes must be positive, got %d", cfg.TotalBytes)
	}
	if cfg.SegmentBytes <= 0 {
		return fmt.Errorf("netsim: SegmentBytes must be positive, got %d", cfg.SegmentBytes)
	}
	if cfg.HeaderBytes < 0 {
		return fmt.Errorf("netsim: HeaderBytes must not be negative, got %d", cfg.HeaderBytes)
	}
	if cfg.AppPerSegment < 0 {
		return fmt.Errorf("netsim: AppPerSegment must not be negative, got %v", cfg.AppPerSegment)
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Link == (LinkConfig{}) {
		cfg.Link = Ethernet10
	}
	if cfg.Link.RateBps <= 0 {
		return fmt.Errorf("netsim: Link.RateBps must be positive, got %v", cfg.Link.RateBps)
	}
	if (cfg.Sealer == nil) != (cfg.Opener == nil) {
		return fmt.Errorf("netsim: Sealer and Opener must be set together")
	}
	return nil
}

// Result reports a finished transfer.
type Result struct {
	Name    string
	Elapsed time.Duration
	Bytes   int
	Packets int
	// ThroughputKbps is application-payload throughput in kilobits per
	// second (the unit of Figure 8).
	ThroughputKbps float64
}

// BulkTransfer simulates the transfer and returns the achieved
// throughput. The pipeline is: sender CPU (serialized) → link
// (serialized, propagation) → receiver CPU (serialized); acks (40 bytes
// + headers) flow back over the same link and release window slots.
func BulkTransfer(cfg TransferConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	segments := (cfg.TotalBytes + cfg.SegmentBytes - 1) / cfg.SegmentBytes

	sim := NewSim()
	var (
		receiverFreeAt time.Duration
		linkFreeAt     time.Duration // shared half-duplex segment, like 10Base2/5
		sent           int           // segments that have completed sender CPU
		acked          int
		cpuBusy        bool
		done           time.Duration
		runErr         error
	)

	// The segment buffer for running the real protocol code is hoisted
	// out of the per-segment closure and reused for the whole transfer.
	var segBuf []byte
	sealSegment := func(n int) (int, error) {
		// Run the real protocol code when configured; the sealed size
		// feeds the wire model.
		wire := n + cfg.HeaderBytes
		if cfg.Sealer != nil {
			if cap(segBuf) < n {
				segBuf = make([]byte, n)
			}
			dg := transport.Datagram{
				Source:      transportAddr(cfg.SealerSrc),
				Destination: transportAddr(cfg.SealerDst),
				Payload:     segBuf[:n],
			}
			t := time.Now()
			sealed, err := cfg.Sealer.Seal(dg, true)
			if cfg.SealHist != nil {
				cfg.SealHist.Observe(time.Since(t))
			}
			if err != nil {
				return 0, err
			}
			t = time.Now()
			if _, err := cfg.Opener.Open(sealed); err != nil {
				return 0, err
			}
			if cfg.OpenHist != nil {
				cfg.OpenHist.Observe(time.Since(t))
			}
			wire = len(sealed.Payload) + cfg.HeaderBytes
		}
		return wire, nil
	}

	// The sender is self-clocking: its CPU runs whenever there is a
	// segment to produce and the window — segments past the sender CPU
	// but unacknowledged — has room. This matches TCP semantics, where
	// the window covers transmitted-but-unacked data, not data queued in
	// the sending host.
	var trySend func()
	trySend = func() {
		if runErr != nil || cpuBusy || sent >= segments || sent-acked >= cfg.Window {
			return
		}
		segBytes := cfg.SegmentBytes
		if rem := cfg.TotalBytes - sent*cfg.SegmentBytes; rem < segBytes {
			segBytes = rem
		}
		wireBytes, err := sealSegment(segBytes)
		if err != nil {
			runErr = err
			return
		}
		cpuBusy = true
		sim.After(cfg.Sender.Cost(segBytes)+cfg.AppPerSegment, func() {
			cpuBusy = false
			sent++
			// Link.
			txStart := maxDur(sim.Now(), linkFreeAt)
			txDone := txStart + cfg.Link.serialize(wireBytes)
			linkFreeAt = txDone
			arrival := txDone + cfg.Link.PropDelay
			seg := segBytes
			sim.At(arrival, func() {
				// Receiver CPU.
				rs := maxDur(sim.Now(), receiverFreeAt)
				rDone := rs + cfg.Receiver.Cost(seg) + cfg.AppPerSegment
				receiverFreeAt = rDone
				// Ack back over the link (40 bytes + headers; its CPU
				// cost is folded into the receive cost).
				ackStart := maxDur(rDone, linkFreeAt)
				ackDone := ackStart + cfg.Link.serialize(40+cfg.HeaderBytes)
				linkFreeAt = ackDone
				sim.At(ackDone+cfg.Link.PropDelay, func() {
					acked++
					if acked == segments {
						done = sim.Now()
						return
					}
					trySend()
				})
			})
			trySend()
		})
	}
	sim.At(0, trySend)
	sim.Run()
	if runErr != nil {
		return Result{}, runErr
	}
	if acked != segments {
		return Result{}, fmt.Errorf("netsim: transfer stalled at %d/%d segments", acked, segments)
	}
	r := Result{
		Elapsed: done,
		Bytes:   cfg.TotalBytes,
		Packets: segments,
	}
	r.ThroughputKbps = float64(cfg.TotalBytes) * 8 / done.Seconds() / 1000
	return r, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func transportAddr(s string) principal.Address {
	if s == "" {
		return "sim-a"
	}
	return principal.Address(s)
}

// Figure8Row is one bar group of Figure 8.
type Figure8Row struct {
	Workload string
	Config   string
	Kbps     float64
}

// Figure8Config parameterises the Figure 8 run.
type Figure8Config struct {
	// TotalBytes per transfer; default DefaultTotalBytes (4 MiB — the
	// paper's "4 MB file" is 4<<20 bytes, not 4·10⁶).
	TotalBytes int
	// Sealers optionally supplies real protocol instances keyed by
	// config name ("GENERIC", "FBS NOP", "FBS DES+MD5") as
	// sender/receiver pairs.
	Sealers map[string][2]baseline.Sealer
	// SealHists/OpenHists optionally record per-segment seal/open
	// latency, keyed by config name. A histogram shared across both
	// workloads (ttcp, rcp) aggregates their samples.
	SealHists, OpenHists map[string]*obs.Histogram
}

// Figure8 runs the six bars of Figure 8: {ttcp, rcp} × {GENERIC, FBS
// NOP, FBS DES+MD5} on the calibrated Pentium-133 / 10 Mb Ethernet
// models.
func Figure8(cfg Figure8Config) ([]Figure8Row, error) {
	if cfg.TotalBytes <= 0 {
		cfg.TotalBytes = DefaultTotalBytes
	}
	models := []CostModel{P133Generic, P133FBSNOP, P133FBSDESMD5}
	headers := map[string]int{
		"GENERIC":     20 + 20,      // IP + TCP
		"FBS NOP":     20 + 20 + 36, // + FBS header
		"FBS DES+MD5": 20 + 20 + 36,
	}
	var rows []Figure8Row
	for _, workload := range []string{"ttcp", "rcp"} {
		for _, m := range models {
			tc := TransferConfig{
				TotalBytes:   cfg.TotalBytes,
				SegmentBytes: 1460 - 36, // tcp_output's fixed MSS calc leaves room for FBS
				HeaderBytes:  headers[m.Name],
				Window:       8,
				Sender:       m,
				Receiver:     m,
				Link:         Ethernet10,
			}
			if m.Name == "GENERIC" {
				tc.SegmentBytes = 1460
			}
			if workload == "rcp" {
				// rcp pays file system and process-crossing overhead
				// and runs a smaller effective window.
				tc.AppPerSegment = 400 * time.Microsecond
				tc.Window = 4
			}
			if pair, ok := cfg.Sealers[m.Name]; ok {
				tc.Sealer, tc.Opener = pair[0], pair[1]
				tc.SealerSrc, tc.SealerDst = "sim-a", "sim-b"
				tc.SealHist = cfg.SealHists[m.Name]
				tc.OpenHist = cfg.OpenHists[m.Name]
			}
			res, err := BulkTransfer(tc)
			if err != nil {
				return nil, fmt.Errorf("netsim: %s/%s: %w", workload, m.Name, err)
			}
			rows = append(rows, Figure8Row{Workload: workload, Config: m.Name, Kbps: res.ThroughputKbps})
		}
	}
	return rows, nil
}
