// Command fbsudp runs FBS between real processes over UDP: a minimal
// secure-datagram chat/echo demonstrating the protocol outside the
// in-memory harness.
//
// Because zero-message keying needs both sides' public values, the
// sender process plays the Domain: it mints both identities, writes the
// domain's fbs.Provision (the receiver's private value, both
// certificates, the CA key) to a state file, and the receiver loads it.
// (A production deployment would use a real certificate service instead;
// see internal/cert.)
//
// Usage:
//
//	fbsudp -mode recv -listen 127.0.0.1:7001 -state /tmp/fbsudp.state
//	fbsudp -mode send -listen 127.0.0.1:7000 -peer 127.0.0.1:7001 \
//	       -state /tmp/fbsudp.state -msg "hello over real UDP"
//
// Start the sender first: it writes the -state file and waits for
// enter while the receiver starts on the same path.
//
// With -prefilter on both sides the receiver pins the edge pre-filter
// at its sketch+challenge rung: first-contact datagrams are refused
// before any soft state or DH work and answered with a stateless HMAC
// cookie challenge. The sender absorbs the challenge, jars the cookie,
// and retransmits with the echo envelope attached. -prefilter-seed
// (receiver side) derives the rotating cookie secret deterministically
// so a restarted receiver keeps honouring cookies it minted before the
// crash.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fbs/internal/core"
	"fbs/internal/obs"
	obstrace "fbs/internal/obs/trace"
	"fbs/internal/transport"

	fbs "fbs"
)

// state is the provisioning side channel: the sender's domain export
// with the receiver's private value in it.
type state struct {
	*fbs.Provision
	// Sender's bound UDP address, so the receiver can route return
	// traffic (challenge frames) before the sender is a known peer.
	SendAddr string `json:"send_addr,omitempty"`
}

func main() {
	mode := flag.String("mode", "", "send or recv")
	listen := flag.String("listen", "127.0.0.1:0", "local UDP address")
	peer := flag.String("peer", "", "peer UDP address (send mode)")
	statePath := flag.String("state", "/tmp/fbsudp.state", "shared provisioning file")
	msg := flag.String("msg", "hello over real UDP", "message to send")
	count := flag.Int("count", 3, "datagrams to send/receive")
	adminAddr := flag.String("admin", "", "serve the observability admin plane (/metrics, /flows, /traces, pprof) on this address")
	statsJSON := flag.Bool("stats-json", false, "emit the completion stats summary as JSON on stdout")
	prefilter := flag.Bool("prefilter", false, "recv: pin the edge pre-filter at sketch+challenge; send: absorb challenges and attach cookie echoes")
	prefilterSeed := flag.String("prefilter-seed", "", "recv: derive the rotating cookie secret from this seed (restarts keep honouring minted cookies)")
	flag.Parse()

	var err error
	switch *mode {
	case "send":
		err = send(*listen, *peer, *statePath, *msg, *count, *adminAddr, *statsJSON, *prefilter)
	case "recv":
		err = recv(*listen, *statePath, *count, *adminAddr, *statsJSON, *prefilter, *prefilterSeed)
	default:
		err = fmt.Errorf("need -mode send or -mode recv")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbsudp:", err)
		os.Exit(1)
	}
}

// instrument attaches the observability plumbing to one endpoint: a
// fully-sampled pipeline (fbsudp's packet rates are interactive, so
// every packet is cheap to trace), the optional admin HTTP plane, and
// a SIGINT/SIGTERM handler that prints the stats summary before exit.
// The returned function prints the summary; call it once on normal
// completion.
func instrument(role string, ep *fbs.Endpoint, pipe *obs.Pipeline, adminAddr string, statsJSON bool) (func(), error) {
	if adminAddr != "" {
		admin := obs.NewAdmin(nil)
		obs.RegisterEndpoint(admin.Registry, role, ep)
		obs.RegisterPipeline(admin.Registry, role, pipe)
		admin.WatchEndpoint(role, ep)
		admin.WatchTracer(pipe.Collector)
		bound, _, err := admin.Serve(adminAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "fbsudp: admin plane at http://%s/\n", bound)
	}
	report := func() { printStats(role, ep, statsJSON) }
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		report()
		os.Exit(130)
	}()
	return report, nil
}

// statsReport is the -stats-json document.
type statsReport struct {
	Role        string               `json:"role"`
	Metrics     trafficStats         `json:"metrics"`
	Drops       map[string]uint64    `json:"drops,omitempty"`
	FAM         core.FAMStats        `json:"fam"`
	ActiveFlows int                  `json:"active_flows"`
	Caches      []core.CacheInfo     `json:"caches"`
	KeyService  core.KeyServiceStats `json:"key_service"`
	MKDUpcalls  uint64               `json:"mkd_upcalls"`
	Prefilter   core.PrefilterStats  `json:"prefilter"`
}

// trafficStats is the document's "metrics" object: the data-plane
// counters, with refusals in Drops (indexed by core.DropReason).
type trafficStats struct {
	Sent, SentSecret, SentBytes, Received, ReceivedBytes uint64

	Drops                          [core.NumDropReasons]uint64
	BypassedSent, BypassedReceived uint64
}

func newStatsReport(role string, m core.Snapshot) statsReport {
	return statsReport{
		Role: role,
		Metrics: trafficStats{
			Sent: m.Sent, SentSecret: m.SentSecret, SentBytes: m.SentBytes,
			Received: m.Received, ReceivedBytes: m.ReceivedBytes, Drops: m.Drops,
			BypassedSent: m.BypassedSent, BypassedReceived: m.BypassedReceived,
		},
		Drops:       core.DropMap(m.Drops),
		FAM:         m.FAM,
		ActiveFlows: m.ActiveFlows,
		Caches:      m.Caches[:],
		KeyService:  m.Keying,
		MKDUpcalls:  m.MKDUpcalls,
		Prefilter:   m.Prefilter,
	}
}

func printStats(role string, ep *fbs.Endpoint, asJSON bool) {
	m := ep.Snapshot()
	rep := newStatsReport(role, m)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
		return
	}
	fmt.Printf("--- %s endpoint stats ---\n", role)
	fmt.Printf("sent:     %d datagrams (%d secret), %d bytes\n", m.Sent, m.SentSecret, m.SentBytes)
	fmt.Printf("received: %d datagrams, %d bytes\n", m.Received, m.ReceivedBytes)
	if len(rep.Drops) == 0 {
		fmt.Println("drops:    none")
	} else {
		fmt.Print("drops:   ")
		for _, d := range core.DropReasons() {
			if n := m.Drops[d]; n > 0 {
				fmt.Printf(" %s=%d", d, n)
			}
		}
		fmt.Println()
	}
	fmt.Printf("FAM:      lookups=%d hits=%d created=%d expired=%d active=%d\n",
		rep.FAM.Lookups, rep.FAM.Hits, rep.FAM.FlowsCreated, rep.FAM.Expirations, rep.ActiveFlows)
	for _, c := range rep.Caches {
		fmt.Printf("cache %-5s %d/%d used, hits=%d misses=%d installs=%d evictions=%d\n",
			c.Name, c.Used, c.Slots, c.Stats.Hits, c.Stats.Misses, c.Stats.Installs, c.Stats.Evictions)
	}
	ks := m.Keying
	fmt.Printf("keying:   master key requests=%d computes=%d cert fetches=%d verifies=%d failures=%d mkd upcalls=%d\n",
		ks.MasterKeyRequests, ks.MasterKeyComputes, ks.CertFetches, ks.CertVerifies, ks.Failures, m.MKDUpcalls)
	if pf := rep.Prefilter; pf.Challenged+pf.EchoAccepted+pf.CookiesLearned+pf.CookiesAttached+pf.SketchSheds > 0 {
		fmt.Printf("prefilter: level=%d challenged=%d echo ok=%d bad=%d sheds=%d cookies learned=%d attached=%d\n",
			pf.Level, pf.Challenged, pf.EchoAccepted, pf.EchoRejected, pf.SketchSheds, pf.CookiesLearned, pf.CookiesAttached)
	}
}

func send(listen, peerAddr, statePath, msg string, count int, adminAddr string, statsJSON bool, prefilter bool) error {
	if peerAddr == "" {
		return fmt.Errorf("send mode needs -peer")
	}
	d, err := fbs.NewDomain("fbsudp")
	if err != nil {
		return err
	}
	sender, err := d.NewPrincipal("sender")
	if err != nil {
		return err
	}
	// Bind the socket before writing state so the receiver learns where
	// to route return traffic (the pre-filter's challenge frames).
	udp, err := transport.NewUDPTransport("sender", listen)
	if err != nil {
		return err
	}
	if err := udp.AddPeer("receiver", peerAddr); err != nil {
		return err
	}
	if err := writeState(d, statePath, udp.LocalAddr().String()); err != nil {
		return err
	}
	fmt.Printf("provisioning state written to %s — start the receiver, then press enter\n", statePath)
	fmt.Scanln()
	pipe := obs.NewPipeline(obstrace.Config{SampleEvery: 1})
	ep, err := d.NewEndpointOn(sender, udp, func(c *core.Config) {
		c.Tracer = pipe
		c.Prefilter.Enable = prefilter
	})
	if err != nil {
		return err
	}
	defer ep.Close()
	report, err := instrument("sender", ep, pipe, adminAddr, statsJSON)
	if err != nil {
		return err
	}
	if prefilter {
		// The receiver answers first contact with a challenge frame on
		// our socket; drain it through the endpoint so the cookie lands
		// in the jar and later sends carry the echo envelope.
		go func() {
			for {
				if _, err := ep.Receive(); errors.Is(err, transport.ErrClosed) {
					return
				}
			}
		}()
	}
	var learned uint64
	for i := 0; i < count; i++ {
		payload := fmt.Sprintf("%s [%d]", msg, i)
		if err := ep.SendTo("receiver", []byte(payload), true); err != nil {
			return err
		}
		fmt.Printf("sent encrypted datagram %d: %q\n", i, payload)
		time.Sleep(100 * time.Millisecond)
		// A challenged datagram was shed at the receiver's edge; once
		// the drain goroutine absorbs the cookie, resend it so every
		// payload is delivered.
		if now := ep.Snapshot().Prefilter.CookiesLearned; now > learned {
			learned = now
			fmt.Printf("challenge absorbed — resending datagram %d with cookie echo\n", i)
			if err := ep.SendTo("receiver", []byte(payload), true); err != nil {
				return err
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	report()
	return nil
}

// writeState mints the receiver's identity inside the domain's export, so
// its private value reaches the state file and the receiver process can
// reconstruct it, and writes the file readable by its owner only.
func writeState(d *fbs.Domain, path, sendAddr string) error {
	prov, err := d.Provision("receiver")
	if err != nil {
		return err
	}
	return fbs.WriteProvision(path, state{Provision: prov, SendAddr: sendAddr})
}

func recv(listen, statePath string, count int, adminAddr string, statsJSON bool, prefilter bool, prefilterSeed string) error {
	blob, err := os.ReadFile(statePath)
	if err != nil {
		return fmt.Errorf("reading provisioning state (run the sender first): %w", err)
	}
	st := state{Provision: new(fbs.Provision)}
	if err := json.Unmarshal(blob, &st); err != nil {
		return err
	}
	var pf core.PrefilterConfig
	if prefilter {
		pf = core.PrefilterConfig{
			Enable:     true,
			ForceLevel: core.PrefilterChallenge,
			SecretSeed: []byte(prefilterSeed),
		}
	}
	pipe := obs.NewPipeline(obstrace.Config{SampleEvery: 1})
	ep, err := rebuildEndpoint(st, listen, pipe, pf)
	if err != nil {
		return err
	}
	defer ep.Close()
	defer ep.StartSweeper(0)() // the standing sweeper of Figure 1, once a minute
	report, err := instrument("receiver", ep, pipe, adminAddr, statsJSON)
	if err != nil {
		return err
	}
	if prefilter {
		fmt.Println("edge pre-filter pinned at sketch+challenge: first contact must echo a cookie")
	}
	fmt.Printf("listening on %s\n", listen)
	for i := 0; i < count; i++ {
		dg, err := ep.Receive()
		if err != nil {
			return err
		}
		fmt.Printf("verified+decrypted from %s: %q\n", dg.Source, dg.Payload)
	}
	report()
	return nil
}

// rebuildEndpoint reconstructs the receiver endpoint from provisioning
// state: certificates, CA key, and the receiver's private value.
func rebuildEndpoint(st state, listen string, pipe *obs.Pipeline, pf core.PrefilterConfig) (*fbs.Endpoint, error) {
	cfg, err := st.Provision.Config("receiver")
	if err != nil {
		return nil, err
	}
	udp, err := transport.NewUDPTransport("receiver", listen)
	if err != nil {
		return nil, err
	}
	if st.SendAddr != "" {
		if err := udp.AddPeer("sender", st.SendAddr); err != nil {
			return nil, err
		}
	}
	cfg.Transport = udp
	cfg.Tracer = pipe
	cfg.Prefilter = pf
	return fbs.NewEndpoint(cfg)
}
