package netsim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fbs/internal/core"
)

// failDiff reports a divergence, writing the full artifact (op stream
// plus both transcripts) to FBS_DIFF_ARTIFACT_DIR when set so CI can
// upload it.
func failDiff(t *testing.T, name string, rep *DiffReport) {
	t.Helper()
	if dir := os.Getenv("FBS_DIFF_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			path := filepath.Join(dir, name+".txt")
			if err := os.WriteFile(path, []byte(rep.Artifact()), 0o644); err == nil {
				t.Logf("divergence artifact written to %s", path)
			}
		}
	}
	tail := rep.OpStream
	if len(tail) > 12 {
		tail = tail[len(tail)-12:]
	}
	t.Fatalf("%s\nlast ops:\n%s", rep.Summary(), strings.Join(tail, "\n"))
}

// TestDifferentialTenThousandOps is the acceptance soak: ten thousand
// seeded operations through both implementations with zero divergences.
func TestDifferentialTenThousandOps(t *testing.T) {
	rep, err := RunDiff(DiffScenario{Seed: 1997, Ops: 10_000, ReplayCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergence != "" {
		failDiff(t, "soak-1997", rep)
	}
	if rep.Accepted < rep.Dropped/4 || rep.Dropped < rep.Accepted/10 {
		t.Fatalf("degenerate run (accepted %d, dropped %d): the op mix no longer exercises both outcomes", rep.Accepted, rep.Dropped)
	}
	t.Log(rep.Summary())
}

// TestDifferentialSeeds runs several shorter op streams for breadth, one
// of them without the replay cache so the replay-free check order is
// also cross-validated.
func TestDifferentialSeeds(t *testing.T) {
	for i, sc := range []DiffScenario{
		{Seed: 1, Ops: 1500, ReplayCache: true},
		{Seed: 0xFB55EED, Ops: 1500, ReplayCache: true},
		{Seed: 42, Ops: 1500, ReplayCache: false},
	} {
		rep, err := RunDiff(sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Divergence != "" {
			failDiff(t, fmt.Sprintf("seed-%d", sc.Seed), rep)
		}
		t.Logf("scenario %d: %s", i, rep.Summary())
	}
}

// TestDifferentialSuites cross-validates every registered suite against
// the reference model: wire bytes, verdicts, drop classification and
// the final ledgers must agree per suite, including the AEAD framings
// whose reference implementation shares no code with core's.
func TestDifferentialSuites(t *testing.T) {
	for _, s := range core.Suites() {
		if s.ID() == core.CipherNone {
			continue // cleartext-only; the DES run covers non-secret framing
		}
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			rep, err := RunDiff(DiffScenario{
				Seed:        0x5817E000 + uint64(s.ID()),
				Ops:         2000,
				ReplayCache: true,
				Suite:       s.ID(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Divergence != "" {
				failDiff(t, "suite-"+s.Name(), rep)
			}
			t.Log(rep.Summary())
		})
	}
}

// TestDifferentialPrefilter pins the edge pre-filter at each active
// ladder rung on both implementations and demands exact agreement on
// sketch sheds and decays, challenge refusals, cookie-frame absorption
// and forged echo rejection — the op stream injects forged cookie
// frames on top of the usual bitflip/truncate damage. The stream is long
// enough to charge one endpoint's sketch past its decay period.
func TestDifferentialPrefilter(t *testing.T) {
	for _, sc := range []struct {
		name  string
		level core.PrefilterLevel
	}{
		{"sketch", core.PrefilterSketch},
		{"challenge", core.PrefilterChallenge},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := RunDiff(DiffScenario{
				Seed:        0xC00C1E + uint64(sc.level),
				Ops:         8000,
				ReplayCache: true,
				Prefilter:   sc.level,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Divergence != "" {
				failDiff(t, "prefilter-"+sc.name, rep)
			}
			if rep.Dropped == 0 {
				t.Fatalf("prefilter run dropped nothing: the op mix no longer exercises refusals")
			}
			if rep.Sheds == 0 {
				t.Fatalf("prefilter run shed nothing: the sketch settings no longer bite")
			}
			if rep.Decays == 0 {
				t.Fatalf("prefilter run never decayed the sketch: the op stream no longer reaches the decay period")
			}
			t.Log(rep.Summary())
		})
	}
}

// TestDifferentialMatrixRace runs independent differential pairs
// concurrently. Each run is self-contained; under -race this doubles as
// a data-race probe of the optimised endpoint's striped machinery while
// its outputs are still being cross-checked for exactness.
func TestDifferentialMatrixRace(t *testing.T) {
	for _, seed := range []uint64{7, 11, 13, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := RunDiff(DiffScenario{Seed: seed, Ops: 2000, ReplayCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Divergence != "" {
				failDiff(t, fmt.Sprintf("race-seed-%d", seed), rep)
			}
		})
	}
}

// FuzzDifferential lets the fuzzer hunt for op-stream shapes on which
// the optimised endpoint and the reference model disagree.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(1997), uint16(512))
	f.Add(uint64(1), uint16(64))
	f.Add(uint64(0xDEADBEEF), uint16(1024))
	f.Add(uint64(314159), uint16(200))
	f.Fuzz(func(t *testing.T, seed uint64, ops uint16) {
		// The seed also picks the suite, so the fuzzer roams the whole
		// registry (AEAD framings included) hunting for disagreements.
		suites := core.Suites()
		rep, err := RunDiff(DiffScenario{
			Seed:        seed,
			Ops:         int(ops)%1024 + 32,
			ReplayCache: seed%5 != 0, // occasionally cross-validate the replay-free path
			Suite:       suites[int(seed/7)%len(suites)].ID(),
			// The seed also roams the pre-filter ladder, so the fuzzer
			// hunts cookie-codec and sketch disagreements too.
			Prefilter: core.PrefilterLevel((seed / 11) % 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Divergence != "" {
			failDiff(t, fmt.Sprintf("fuzz-%d-%d", seed, ops), rep)
		}
	})
}
