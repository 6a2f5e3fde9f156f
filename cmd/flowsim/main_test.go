package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceFigRoundTrips pins `-fig trace` as the writer of the format
// `-trace` reads: a trace written out and analysed from the file must
// print the same Figure 9-14 output, byte for byte, as the built-in run
// with the same -kind/-seed/-minutes.
func TestTraceFigRoundTrips(t *testing.T) {
	// Every figure once (on the merged trace, which runs both generators),
	// then one figure per single-kind trace, to keep the race-detector run
	// short.
	for _, tc := range []struct{ kind, fig, marker string }{
		{"both", "all", "Figure 14"},
		{"campus", "9", "Figure 9(b)"},
		{"www", "12", "Figure 12"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			gen := []string{"-kind", tc.kind, "-seed", "7", "-minutes", "2"}
			var direct, dump, replayed bytes.Buffer
			if err := run(append([]string{"-fig", tc.fig}, gen...), &direct); err != nil {
				t.Fatal(err)
			}
			if err := run(append([]string{"-fig", "trace"}, gen...), &dump); err != nil {
				t.Fatal(err)
			}
			if dump.Len() == 0 || strings.Contains(dump.String(), "Figure") {
				t.Fatalf("-fig trace wrote %d bytes; want trace records only", dump.Len())
			}
			file := filepath.Join(t.TempDir(), tc.kind+".trace")
			if err := os.WriteFile(file, dump.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-fig", tc.fig, "-trace", file}, &replayed); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(direct.String(), tc.marker) {
				t.Fatalf("built-in run did not print %s", tc.marker)
			}
			if direct.String() != replayed.String() {
				t.Fatalf("replayed trace prints different figures\n--- built-in\n%s\n--- replayed\n%s", direct.String(), replayed.String())
			}
		})
	}
}

func TestUnknownFigureAndKindAreErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "15", "-minutes", "1"}, &out); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run([]string{"-kind", "lan", "-minutes", "1"}, &out); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
