// Command flowsim is the flow simulation program of Section 7.3: it
// feeds a packet trace through the security flow policy of Section 7.1
// and regenerates Figures 9 through 14.
//
// Usage:
//
//	flowsim -fig 9              # flow size CDFs (packets, bytes)
//	flowsim -fig 10             # flow duration CDF
//	flowsim -fig 11             # cache miss rate vs cache size
//	flowsim -fig 12             # active flows over time
//	flowsim -fig 13             # active flows for different THRESHOLDs
//	flowsim -fig 14             # repeated flows vs THRESHOLD
//	flowsim -fig all            # everything
//	flowsim -fig trace          # no figure: write the trace itself
//
// By default a deterministic trace is generated internally (-kind,
// -seed, -minutes): the synthetic stand-ins for the paper's tcpdump
// captures, a campus workgroup LAN mix and a ~10,000-hits/day WWW
// server. -fig trace writes it to stdout in a tcpdump-like text format,
// -trace FILE analyses such a capture instead of generating one, and
// -threshold changes the flow idle timeout (default 600 s).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fbs/internal/flowsim"
	"fbs/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flowsim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the requested
// figures (or the trace) to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("flowsim", flag.ExitOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 9, 10, 11, 12, 13, 14 or all; trace writes the trace in the format -trace reads")
	kind := fs.String("kind", "campus", "built-in trace kind: campus, www or both")
	traceFile := fs.String("trace", "", "trace file written by -fig trace (overrides -kind)")
	threshold := fs.Int("threshold", 600, "flow THRESHOLD in seconds")
	seed := fs.Uint64("seed", 1997, "seed for the built-in trace")
	minutes := fs.Int("minutes", 60, "duration of the built-in trace")
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	var tr *trace.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		dur := time.Duration(*minutes) * time.Minute
		switch *kind {
		case "campus":
			tr = trace.Campus(trace.CampusConfig{Seed: *seed, Duration: dur, Desktops: 25})
		case "www":
			tr = trace.WWW(trace.WWWConfig{Seed: *seed, Duration: dur})
		case "both":
			tr = trace.Merge(
				trace.Campus(trace.CampusConfig{Seed: *seed, Duration: dur, Desktops: 25}),
				trace.WWW(trace.WWWConfig{Seed: *seed + 1, Duration: dur}),
			)
		default:
			return fmt.Errorf("unknown kind %q (want campus, www or both)", *kind)
		}
	}
	if *fig == "trace" {
		return tr.Write(out)
	}
	th := time.Duration(*threshold) * time.Second
	fmt.Fprintf(out, "trace: %d packets, %.1f MB over %.0f s; THRESHOLD = %v\n\n",
		len(tr.Packets), float64(tr.Bytes())/1e6, tr.Duration().Seconds(), th)

	figs := map[string]func(io.Writer, *trace.Trace, time.Duration){
		"9": fig9, "10": fig10, "11": fig11, "12": fig12, "13": fig13, "14": fig14,
	}
	if *fig == "all" {
		for _, k := range []string{"9", "10", "11", "12", "13", "14"} {
			figs[k](out, tr, th)
		}
		return nil
	}
	fn, ok := figs[*fig]
	if !ok {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	fn(out, tr, th)
	return nil
}

func fig9(out io.Writer, tr *trace.Trace, th time.Duration) {
	flows := flowsim.Flows(tr, th)
	pk := flowsim.ComputeCDF(flowsim.SizesInPackets(flows), 64)
	by := flowsim.ComputeCDF(flowsim.SizesInBytes(flows), 64)
	fmt.Fprint(out, flowsim.RenderLines(
		fmt.Sprintf("Figure 9(a) — flow size in packets (%d flows)", len(flows)),
		"packets per flow", "CDF", 64, 16, true,
		flowsim.Series{Name: "CDF", X: xs(pk), Y: ys(pk)}))
	fmt.Fprint(out, flowsim.RenderLines(
		"Figure 9(b) — flow size in bytes",
		"bytes per flow", "CDF", 64, 16, true,
		flowsim.Series{Name: "CDF", X: xs(by), Y: ys(by)}))
	fmt.Fprintf(out, "median %0.f pkts / %.0f B; p99 %.0f pkts / %.0f B; top 10%% of flows carry %.0f%% of bytes\n\n",
		flowsim.Quantile(flowsim.SizesInPackets(flows), 0.5),
		flowsim.Quantile(flowsim.SizesInBytes(flows), 0.5),
		flowsim.Quantile(flowsim.SizesInPackets(flows), 0.99),
		flowsim.Quantile(flowsim.SizesInBytes(flows), 0.99),
		flowsim.ByteShareOfTop(flows, 0.10)*100)
}

func fig10(out io.Writer, tr *trace.Trace, th time.Duration) {
	flows := flowsim.Flows(tr, th)
	cdf := flowsim.ComputeCDF(flowsim.Durations(flows), 64)
	fmt.Fprint(out, flowsim.RenderLines(
		"Figure 10 — flow duration",
		"duration (s)", "CDF", 64, 16, true,
		flowsim.Series{Name: "CDF", X: xs(cdf), Y: ys(cdf)}))
	fmt.Fprintf(out, "median %.1f s, p90 %.1f s, p99 %.1f s\n\n",
		flowsim.Quantile(flowsim.Durations(flows), 0.5),
		flowsim.Quantile(flowsim.Durations(flows), 0.9),
		flowsim.Quantile(flowsim.Durations(flows), 0.99))
}

func fig11(out io.Writer, tr *trace.Trace, th time.Duration) {
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	for _, side := range []struct {
		side flowsim.CacheSide
		name string
	}{{flowsim.SendSide, "TFKC (send side)"}, {flowsim.ReceiveSide, "RFKC (receive side)"}} {
		res := flowsim.CacheSweep(tr, th, sizes, side.side, flowsim.HashCRC32)
		var x, y []float64
		rows := [][]string{}
		for _, r := range res {
			x = append(x, float64(r.Size))
			y = append(y, r.MissRate()*100)
			rows = append(rows, []string{
				fmt.Sprint(r.Size),
				fmt.Sprintf("%.3f%%", r.MissRate()*100),
				fmt.Sprint(r.Cold), fmt.Sprint(r.Conflict),
			})
		}
		fmt.Fprint(out, flowsim.RenderLines(
			fmt.Sprintf("Figure 11 — %s miss rate vs cache size", side.name),
			"cache size (entries)", "miss %", 64, 14, true,
			flowsim.Series{Name: "CRC-32 direct-mapped", X: x, Y: y}))
		fmt.Fprintln(out, flowsim.RenderTable([]string{"size", "miss rate", "cold", "conflict"}, rows))
	}
}

func fig12(out io.Writer, tr *trace.Trace, th time.Duration) {
	flows := flowsim.Flows(tr, th)
	series := flowsim.ActiveSeries(flows, th, time.Minute, tr.Duration())
	var x, y []float64
	for i, v := range series {
		x = append(x, float64(i))
		y = append(y, float64(v))
	}
	fmt.Fprint(out, flowsim.RenderLines(
		"Figure 12 — number of active flows over time",
		"time (minutes)", "active flows", 64, 14, false,
		flowsim.Series{Name: "active flows", X: x, Y: y}))
	perHost := func(side flowsim.CacheSide) int {
		return flowsim.MaxOverHosts(flowsim.PerHostPeakActive(flows, th, time.Minute, tr.Duration(), side))
	}
	fmt.Fprintf(out, "peak %d, mean %.1f; per-host peak %d sending, %d receiving\n\n",
		flowsim.MaxActive(series), flowsim.MeanActive(series), perHost(flowsim.SendSide), perHost(flowsim.ReceiveSide))
}

func fig13(out io.Writer, tr *trace.Trace, _ time.Duration) {
	var series []flowsim.Series
	rows := [][]string{}
	for _, th := range []int{300, 600, 900, 1200} {
		d := time.Duration(th) * time.Second
		flows := flowsim.Flows(tr, d)
		s := flowsim.ActiveSeries(flows, d, time.Minute, tr.Duration())
		var x, y []float64
		for i, v := range s {
			x = append(x, float64(i))
			y = append(y, float64(v))
		}
		series = append(series, flowsim.Series{Name: fmt.Sprintf("THRESHOLD %ds", th), X: x, Y: y})
		rows = append(rows, []string{fmt.Sprint(th), fmt.Sprint(flowsim.MaxActive(s)), fmt.Sprintf("%.1f", flowsim.MeanActive(s))})
	}
	fmt.Fprint(out, flowsim.RenderLines(
		"Figure 13 — active flows for different THRESHOLDs",
		"time (minutes)", "active flows", 64, 16, false, series...))
	fmt.Fprintln(out, flowsim.RenderTable([]string{"THRESHOLD (s)", "peak active", "mean active"}, rows))
}

func fig14(out io.Writer, tr *trace.Trace, _ time.Duration) {
	var x, y []float64
	rows := [][]string{}
	for _, th := range []int{60, 120, 300, 600, 900, 1200} {
		flows := flowsim.Flows(tr, time.Duration(th)*time.Second)
		rep := flowsim.RepeatedFlows(flows)
		x = append(x, float64(th))
		y = append(y, float64(rep))
		rows = append(rows, []string{fmt.Sprint(th), fmt.Sprint(len(flows)), fmt.Sprint(rep)})
	}
	fmt.Fprint(out, flowsim.RenderLines(
		"Figure 14 — repeated flows vs THRESHOLD",
		"THRESHOLD (s)", "repeated flows", 64, 14, false,
		flowsim.Series{Name: "repeated flows", X: x, Y: y}))
	fmt.Fprintln(out, flowsim.RenderTable([]string{"THRESHOLD (s)", "flows", "repeated"}, rows))
}

func xs(c []flowsim.CDFPoint) []float64 {
	out := make([]float64, len(c))
	for i, p := range c {
		out[i] = p.X
	}
	return out
}

func ys(c []flowsim.CDFPoint) []float64 {
	out := make([]float64, len(c))
	for i, p := range c {
		out[i] = p.F
	}
	return out
}
