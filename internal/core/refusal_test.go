package core

import (
	"testing"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// refusalRow is one datagram the receive walk decides on, with the
// endpoint that decides it: a DropReason a datagram from the wire can
// reach, or DropNone for the warm accepted open the refusals are priced
// against.
type refusalRow struct {
	name   string
	rx     *Endpoint
	dg     transport.Datagram
	want   DropReason
	allocs float64 // ceiling on OpenAppend's allocs/op
}

// refusalRows builds one row per DropReason the walk decides without
// keying work, on AES-128-GCM with a 64 B secret body. keying is left
// out: it is decided behind an MKD upcall, whose leader allocates the
// flight its waiters park on; BenchmarkKeyingMiss prices that path. decrypt is left
// out too: only a legacy suite refuses for it, and a legacy suite
// builds its block cipher per datagram.
func refusalRows(tb testing.TB) []refusalRow {
	w := newWorld(tb)
	pair := func(mutate func(*Config)) (*Endpoint, *Endpoint) {
		tx, rx, _ := endpointPair(tb, w, func(c *Config) {
			c.Cipher = CipherAES128GCM
			if mutate != nil {
				mutate(c)
			}
		})
		return tx, rx
	}
	seal := func(tx *Endpoint) transport.Datagram {
		sealed, err := tx.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: make([]byte, 64)}, true)
		if err != nil {
			tb.Fatal(err)
		}
		return sealed
	}
	// warm opens dg once on rx, so its flow key is cached and the peer
	// known.
	warm := func(rx *Endpoint, dg transport.Datagram) {
		if _, err := rx.OpenAppend(make([]byte, 0, 128), dg); err != nil {
			tb.Fatal(err)
		}
	}
	with := func(dg transport.Datagram, edit func([]byte)) transport.Datagram {
		dg = dg.Clone()
		edit(dg.Payload)
		return dg
	}

	tx, rx := pair(nil)
	ok := seal(tx)
	warm(rx, ok)
	elsewhere := ok
	elsewhere.Destination = "carol"
	rows := []refusalRow{
		{name: "accepted", rx: rx, dg: ok, want: DropNone},
		{name: "not_for_us", rx: rx, dg: elsewhere, want: DropNotForUs},
		{name: "malformed", rx: rx, dg: transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte{1, 2, 3}}, want: DropMalformed},
		{name: "algorithm", rx: rx, dg: nullMACForgery("alice", "bob", w.clock.Now(), string(make([]byte, 64))), want: DropAlgorithm},
		{name: "stale", rx: rx, dg: with(ok, func(b []byte) { clear(b[16:20]) }), want: DropStale},
		{name: "bad_mac", rx: rx, dg: with(ok, func(b []byte) { b[len(b)-1] ^= 1 }), want: DropBadMAC},
	}

	tx, rx = pair(func(c *Config) { c.EnableReplayCache = true })
	ok = seal(tx)
	warm(rx, ok)
	rows = append(rows, refusalRow{name: "replay", rx: rx, dg: ok, want: DropReplay})

	// Room for the keying state and a handful of replay signatures: the
	// datagram after them is refused unrecorded, and stays refused.
	tx, rx = pair(func(c *Config) { c.EnableReplayCache = true; c.StateBudget = NewBudget(0, 2048) })
	for n := 0; ; n++ {
		if n == 1000 {
			tb.Fatal("1,000 datagrams under a 2,048-byte state budget, and none was refused as replay_budget")
		}
		dg := seal(tx)
		if _, err := rx.OpenAppend(make([]byte, 0, 128), dg); DropReasonOf(err) == DropReplayBudget {
			rows = append(rows, refusalRow{name: "replay_budget", rx: rx, dg: dg, want: DropReplayBudget})
			break
		} else if err != nil {
			tb.Fatal(err)
		}
	}

	// An unknown peer behind an exhausted gate: its one token is spent,
	// and at 0.001 a second none comes back while the rows are run.
	tx, rx = pair(func(c *Config) { c.Admission = AdmissionConfig{UpcallRate: 0.001, UpcallBurst: 1} })
	if err := rx.gate.Admit(); err != nil {
		tb.Fatal(err)
	}
	rows = append(rows, refusalRow{name: "keying_overload", rx: rx, dg: seal(tx), want: DropKeyingOverload})

	// An unknown peer with rx's budget charged into its hard band: no
	// flow key fits, so alice's first contact is refused before keying.
	budget := NewBudget(0, 1<<20)
	tx, rx = pair(func(c *Config) {
		if c.Identity.Addr == "bob" {
			c.StateBudget = budget
		}
	})
	if !budget.TryCharge(budget.hard - budget.Used()) {
		tb.Fatal("could not charge the budget to its hard limit")
	}
	rows = append(rows, refusalRow{name: "state_budget", rx: rx, dg: seal(tx), want: DropStateBudget})

	// The sketch rung with alice's prefix already past the threshold:
	// every shed charges it again, so it stays there.
	tx, rx = pair(func(c *Config) { c.Prefilter = PrefilterConfig{Enable: true, ForceLevel: PrefilterSketch} })
	for i := 0; i < 2*sketchShedAt; i++ {
		rx.pf.penalize(rx.pf.prefixOf("alice"))
	}
	rows = append(rows, refusalRow{name: "prefilter", rx: rx, dg: seal(tx), want: DropPrefilter})

	// The challenge rung: alice is unknown to rx, so her datagram is
	// challenged, and an echo under a cookie minted for another source
	// fails. Both answer with a challenge frame, and their ceilings are
	// what that answer costs: the frame and its send (2). The HMAC-MD5
	// passes that verify the echoed cookie and mint the fresh one run on
	// the stack under cached epoch secrets, so the bad cookie's ceiling
	// is the same. The refusal itself adds nothing.
	tx, rx = pair(func(c *Config) { c.Prefilter = PrefilterConfig{Enable: true, ForceLevel: PrefilterChallenge} })
	ok = seal(tx)
	forged := rx.pf.mint(principal.Address("mallory"), w.clock.Now())
	echo := append(appendCookieFrame(nil, CookieKindEcho, forged), ok.Payload...)
	rows = append(rows,
		refusalRow{name: "challenged", rx: rx, dg: ok, want: DropChallenged, allocs: 2},
		refusalRow{name: "bad_cookie", rx: rx, dg: transport.Datagram{Source: "alice", Destination: "bob", Payload: echo}, want: DropBadCookie, allocs: 2},
	)
	return rows
}

// TestRefusalAllocs: a refusal costs no allocation. Each row's verdict
// is checked, then OpenAppend's allocs/op is held to the row's ceiling:
// zero everywhere but the two rows that answer with a challenge frame.
func TestRefusalAllocs(t *testing.T) {
	for _, r := range refusalRows(t) {
		dst := make([]byte, 0, 256)
		_, err := r.rx.OpenAppend(dst, r.dg)
		if got := DropReasonOf(err); got != r.want {
			t.Fatalf("%s: OpenAppend = %v (%v), want %v", r.name, err, got, r.want)
		}
		allocs := testing.AllocsPerRun(200, func() { r.rx.OpenAppend(dst, r.dg) }) //nolint:errcheck
		if allocs > r.allocs {
			t.Errorf("%s: %.1f allocs/op, want ≤ %v", r.name, allocs, r.allocs)
		}
		t.Logf("%-15s %.1f allocs/op", r.name, allocs)
	}
}

// BenchmarkRefusal prices each row of TestRefusalAllocs: what the
// receive walk pays to say no, beside the warm accepted open.
func BenchmarkRefusal(b *testing.B) {
	for _, r := range refusalRows(b) {
		b.Run(r.name, func(b *testing.B) {
			dst := make([]byte, 0, 256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.rx.OpenAppend(dst, r.dg) //nolint:errcheck
			}
		})
	}
}
