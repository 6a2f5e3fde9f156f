//go:build unix && !race

package fbs

// The Figure 8 composition check. It is a timing check, so it stays out
// of -race builds (the detector's instrumentation would be what it
// times) and skips under -short; it reads process CPU time from
// getrusage(2), hence unix.

import (
	"slices"
	"syscall"
	"testing"
	"time"
)

// TestFigure8Composes is Section 7.2's composition as an executed check:
// a Figure 8 native row costs its passes and nothing else. A secret
// seal+open runs the cipher twice (encrypt, decrypt) and the MAC twice
// (compute, verify) over the body, and the NOP row is the rest (header,
// FAM, caches, keying hits), so in throughput terms
// row ≈ 1 / (2/cipher + 2/MAC + 1/NOP), the MAC-only row without the
// cipher term. The rows are the benchmarks' own bodies, priced in
// process CPU time rather than wall time: a garbage collector that marks
// on an idle second CPU is free in wall time and not free beside another
// test binary, and only the CPU count prices it the same both ways. Each
// round times every row back to back and yields one ratio per checked
// row; the check reads the median round, so a burst that lands on one
// row of one round is outvoted.
func TestFigure8Composes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing check")
	}
	var rows []benchRow
	for i := range figure8NativeCases {
		rows = append(rows, figure8NativeRow(t, i))
	}
	for _, r := range cryptoLibRows(t) {
		if r.name == "DES-CBC" || r.name == "3DES-CBC" || r.name == "KeyedMD5-MAC" {
			rows = append(rows, r)
		}
	}
	checks := []struct {
		row, cipher string // cipher is "" for the MAC-only row
	}{
		{"FBS-DES-MD5", "DES-CBC"},
		{"FBS-MAC-only", ""},
		{"FBS-3DES", "3DES-CBC"},
	}
	const rounds = 31
	ratios := make([][]float64, len(checks))
	for round := 0; round < rounds; round++ {
		nsPerByte := map[string]float64{} // "" (no cipher) reads 0
		for _, r := range rows {
			n, start, cpu0 := 0, time.Now(), cpuTime(t)
			for time.Since(start) < 10*time.Millisecond {
				for k := 0; k < 8; k++ {
					r.step()
				}
				n += 8
			}
			nsPerByte[r.name] = float64(cpuTime(t)-cpu0) / float64(n*r.bytes)
		}
		for i, c := range checks {
			composed := 2*nsPerByte[c.cipher] + 2*nsPerByte["KeyedMD5-MAC"] + nsPerByte["FBS-NOP-null-crypto"]
			ratios[i] = append(ratios[i], composed/nsPerByte[c.row])
		}
	}
	for i, c := range checks {
		slices.Sort(ratios[i])
		ratio := ratios[i][rounds/2]
		t.Logf("%s: %.2f of the composition (rounds %.2f–%.2f)", c.row, ratio, ratios[i][0], ratios[i][rounds-1])
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("%s runs at %.2f of 1/(2/cipher + 2/MAC + 1/NOP); want within ±20 %%", c.row, ratio)
		}
	}
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
