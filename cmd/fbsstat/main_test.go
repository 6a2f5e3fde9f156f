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
	"fbs/internal/core"
	"fbs/internal/netsim"
	"fbs/internal/obs"
	obstrace "fbs/internal/obs/trace"
)

// TestLiveSubcommands drives metrics, flows and trace against a real
// admin plane on loopback, wired the way fbsudp -admin wires it — one
// endpoint pair with a fully-sampled pipeline attached — and then
// renders the same traces from a dumped report with trace -f, the form
// CI's failure artifacts take.
func TestLiveSubcommands(t *testing.T) {
	d, err := fbs.NewDomain("fbsstat-test", fbs.WithGroup(fbs.TestGroup))
	if err != nil {
		t.Fatal(err)
	}
	net := fbs.NewNetwork(fbs.Impairments{})
	pipe := obs.NewPipeline(obstrace.Config{SampleEvery: 1})
	mk := func(addr fbs.Address) *fbs.Endpoint {
		ep, err := d.NewEndpoint(addr, net, func(c *fbs.Config) {
			c.Tracer = pipe
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
		if _, err := bob.Receive(); err != nil {
			t.Fatal(err)
		}
	}
	// One more that the receiver refuses, so a waterfall ends in a drop.
	forged, err := alice.Seal(fbs.Datagram{Destination: "bob", Payload: []byte("forged")}, true)
	if err != nil {
		t.Fatal(err)
	}
	forged.Payload[len(forged.Payload)-1] ^= 0x01
	if _, err := bob.Open(forged); err == nil {
		t.Fatal("corrupted datagram accepted")
	}

	admin := obs.NewAdmin(nil)
	obs.RegisterEndpoint(admin.Registry, "alice", alice)
	obs.RegisterPipeline(admin.Registry, "pair", pipe)
	admin.WatchEndpoint("alice", alice)
	admin.WatchTracer(pipe.Collector)
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
		`fbs_stage_duration_ns_count{endpoint="pair",path="seal",stage="total"} 6`)

	out.Reset()
	if err := flows(&out, addr); err != nil {
		t.Fatalf("flows: %v", err)
	}
	expect("flows", out.String(), "Endpoint alice: 1 active flows", "alice:0->bob:0", "cache tfkc")

	out.Reset()
	if err := traces(&out, addr, "", 0); err != nil {
		t.Fatalf("trace: %v", err)
	}
	live := out.String()
	expect("trace", live, "6 traces started", "6 traces assembled", "seal seal", "open open", "[secret]")
	// One waterfall per datagram, each headed by its verdict.
	var verdicts []string
	for _, line := range strings.Split(live, "\n") {
		if strings.HasPrefix(line, "trace ") {
			verdicts = append(verdicts, line[strings.LastIndexByte(line, ' ')+1:])
		}
	}
	if got := strings.Join(verdicts, " "); got != "ok ok ok ok ok drop:bad_mac" {
		t.Errorf("trace verdicts %q, want five ok and one drop:bad_mac", got)
	}

	// A dumped report renders to the same waterfalls, and -n keeps the
	// most recent traces of the file.
	body, err := get(addr, "/traces?json=1")
	if err != nil {
		t.Fatal(err)
	}
	var rep obstrace.Report
	if err := json.Unmarshal(body, &rep); err != nil || len(rep.Traces) != sent+1 {
		t.Fatalf("/traces?json=1: %d traces (%v), want %d", len(rep.Traces), err, sent+1)
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
	expect("trace -f -n 1", out.String(), "1 traces assembled", fmt.Sprintf("trace %016x ", rep.Traces[sent].ID))

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

// TestTraceArtifactFromChaos renders the artifact a failing traced chaos
// scenario leaves behind (fbschaos marshals ChaosReport.TraceReport to
// $FBS_TRACE_ARTIFACT_DIR) with trace -f, and checks the trace report
// alone tells what went on: one waterfall per datagram with its flow
// label and verdict, the root span's byte count and secrecy, the link
// event, and a timed row per stage on both sides.
func TestTraceArtifactFromChaos(t *testing.T) {
	rep, err := netsim.RunChaos(netsim.ChaosScenario{
		Name:         "fbsstat-artifact",
		Seed:         7,
		Datagrams:    8,
		PayloadBytes: 100,
		Secret:       true,
		Link:         []netsim.Stage{netsim.CorruptBits(0.3)},
		Trace:        true,
	})
	if err != nil || len(rep.Violations) != 0 {
		t.Fatalf("RunChaos: %v, violations %v", err, rep.Violations)
	}
	if rep.ReceiverDrops[core.DropBadMAC] == 0 {
		t.Fatal("the scenario corrupted nothing; pick a seed that does")
	}
	data, err := json.MarshalIndent(rep.TraceReport, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dump := filepath.Join(t.TempDir(), "fbsstat-artifact-traces.json")
	if err := os.WriteFile(dump, data, 0o600); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := traces(&out, "unused:0", dump, 0); err != nil {
		t.Fatalf("trace -f: %v", err)
	}
	text := out.String()
	headers := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "trace ") {
			continue
		}
		headers++
		if strings.Contains(line, "sfl=0 ") || !(strings.HasSuffix(line, " ok") || strings.HasSuffix(line, " drop:bad_mac")) {
			t.Errorf("trace header without a flow label or a verdict: %q", line)
		}
	}
	if headers != int(rep.Sent) {
		t.Errorf("%d waterfalls for %d transmissions", headers, rep.Sent)
	}
	flat := strings.Join(strings.Fields(text), " ") // columns are padded
	for _, want := range []string{
		"seal classify", "seal flowkey", "seal mac", "seal cipher", "seal crypto", "seal seal",
		"link link", "[corrupt]",
		"open parse", "open flowkey", "open cipher", "open mac", "open crypto", "open replay", "open open",
		"[secret] attr=100", "[key_hit]", "drop:bad_mac",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("rendered artifact missing %q:\n%s", want, text)
		}
	}
}
