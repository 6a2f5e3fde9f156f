package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fbs "fbs"
	"fbs/internal/obs"
	obstrace "fbs/internal/obs/trace"
)

// TestLiveSubcommands drives metrics, flows, recorder and trace against
// a real admin plane on loopback — one endpoint pair whose sender has a
// fully-sampled pipeline and a trace collector attached — and then
// renders the same traces from a dumped report with trace -f, the form
// CI's failure artifacts take.
func TestLiveSubcommands(t *testing.T) {
	d, err := fbs.NewDomain("fbsstat-test", fbs.WithGroup(fbs.TestGroup))
	if err != nil {
		t.Fatal(err)
	}
	net := fbs.NewNetwork(fbs.Impairments{})
	pipe := obs.NewPipeline(obs.PipelineConfig{SampleEvery: 1})
	col := obstrace.New(obstrace.Config{SampleEvery: 1})
	mk := func(addr fbs.Address) *fbs.Endpoint {
		ep, err := d.NewEndpoint(addr, net, func(c *fbs.Config) {
			c.Observer = pipe
			c.Tracer = col
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	alice, bob := mk("alice"), mk("bob")
	const sent = 5
	for i := 0; i < sent; i++ {
		if err := alice.SendTo("bob", []byte("fbsstat"), true); err != nil {
			t.Fatal(err)
		}
		if _, err := bob.ReceiveValid(); err != nil {
			t.Fatal(err)
		}
	}

	admin := obs.NewAdmin(nil)
	obs.RegisterEndpoint(admin.Registry, "alice", alice)
	obs.RegisterPipeline(admin.Registry, "pair", pipe)
	admin.WatchEndpoint("alice", alice)
	admin.WatchRecorder(pipe.Recorder())
	admin.WatchTracer(col)
	bound, stop, err := admin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop() })
	addr := bound.String()

	expect := func(name, out string, wants ...string) {
		t.Helper()
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, out)
			}
		}
	}
	var out bytes.Buffer

	if err := metrics(&out, addr); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	expect("metrics", out.String(),
		`fbs_endpoint_sent_total{endpoint="alice"} 5`,
		`fbs_stage_duration_ns_count{endpoint="pair",path="seal",stage="total"} 5`)

	out.Reset()
	if err := flows(&out, addr); err != nil {
		t.Fatalf("flows: %v", err)
	}
	expect("flows", out.String(), "Endpoint alice: 1 active flows", "alice:0->bob:0", "cache tfkc")

	out.Reset()
	if err := recorder(&out, addr, 0); err != nil {
		t.Fatalf("recorder: %v", err)
	}
	expect("recorder", out.String(), "10 events captured, 10 retained", " seal ", " open ", "secret=true ok")
	out.Reset()
	if err := recorder(&out, addr, 2); err != nil {
		t.Fatalf("recorder -n 2: %v", err)
	}
	expect("recorder -n 2", out.String(), "10 events captured, 2 retained")

	out.Reset()
	if err := traces(&out, addr, "", 0); err != nil {
		t.Fatalf("trace: %v", err)
	}
	live := out.String()
	expect("trace", live, "5 traces started", "5 traces assembled", "delivered", "seal seal", "open open")

	// A dumped report renders to the same waterfalls, and -n keeps the
	// most recent traces of the file.
	body, err := get(addr, "/traces?json=1")
	if err != nil {
		t.Fatal(err)
	}
	var rep obstrace.Report
	if err := json.Unmarshal(body, &rep); err != nil || len(rep.Traces) != sent {
		t.Fatalf("/traces?json=1: %d traces (%v), want %d", len(rep.Traces), err, sent)
	}
	dump := filepath.Join(t.TempDir(), "traces.json")
	if err := os.WriteFile(dump, body, 0o600); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := traces(&out, "unused:0", dump, 0); err != nil {
		t.Fatalf("trace -f: %v", err)
	}
	if out.String() != live {
		t.Errorf("trace -f on the dumped report differs from the live rendering:\n--- live\n%s--- file\n%s", live, out.String())
	}
	out.Reset()
	if err := traces(&out, "unused:0", dump, 1); err != nil {
		t.Fatalf("trace -f -n 1: %v", err)
	}
	expect("trace -f -n 1", out.String(), "1 traces assembled", fmt.Sprintf("trace %016x ", rep.Traces[sent-1].ID))

	// Errors surface: a plane that is not there, a file that is not a report.
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := metrics(&out, addr); err == nil {
		t.Error("metrics against a stopped plane succeeded")
	}
	if err := os.WriteFile(dump, []byte("not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := traces(&out, "unused:0", dump, 0); err == nil || !strings.Contains(err.Error(), "decoding traces") {
		t.Errorf("trace -f on garbage: err = %v", err)
	}
}
