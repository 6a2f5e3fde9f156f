package core

import (
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// countingTransport counts what an endpoint sends: the challenge frames
// a pre-filter answers with.
type countingTransport struct {
	transport.Transport
	sent atomic.Uint64
}

func (c *countingTransport) Send(dg transport.Datagram) error {
	c.sent.Add(1)
	return c.Transport.Send(dg)
}

// decideWorld is FuzzDecide's receiver, built once per fuzz process: bob
// with the pre-filter on (its rung is pinned per input), alice known to
// it and able to seal to it.
type decideWorld struct {
	tx, rx *Endpoint
	out    *countingTransport
	now    time.Time
}

var decideOnce *decideWorld

func newDecideWorld(tb testing.TB) *decideWorld {
	if decideOnce != nil {
		return decideOnce
	}
	w := newWorld(tb)
	net := transport.NewNetwork(transport.Impairments{})
	mk := func(addr principal.Address, wrap func(transport.Transport) transport.Transport, pf PrefilterConfig) *Endpoint {
		tr, err := net.Attach(addr, 1<<16)
		if err != nil {
			tb.Fatal(err)
		}
		ep, err := NewEndpoint(Config{Identity: w.principal(tb, addr), Transport: wrap(tr),
			Directory: w.dir, Verifier: w.ver, Clock: w.clock, Cipher: CipherAES128GCM, Prefilter: pf})
		if err != nil {
			tb.Fatal(err)
		}
		return ep
	}
	out := &countingTransport{}
	d := &decideWorld{out: out, now: w.clock.Now()}
	d.tx = mk("alice", func(t transport.Transport) transport.Transport { return t }, PrefilterConfig{})
	d.rx = mk("bob", func(t transport.Transport) transport.Transport { out.Transport = t; return out },
		PrefilterConfig{Enable: true, SecretSeed: []byte("fuzz-decide")})
	sealed, err := d.tx.Seal(transport.Datagram{Destination: "bob", Payload: []byte("warm")}, true)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := d.rx.Open(sealed); err != nil {
		tb.Fatal(err)
	}
	decideOnce = d
	return d
}

// observable is everything decide must leave alone.
type observable struct {
	snap    Snapshot
	buckets [sketchRows * sketchCols]uint32
	jar     map[principal.Address]jarEntry
	sent    uint64
}

func (d *decideWorld) observe() observable {
	o := observable{snap: d.rx.Snapshot(), sent: d.out.sent.Load()}
	for i := range o.buckets {
		o.buckets[i] = d.rx.pf.buckets[i].Load()
	}
	d.rx.pf.jar.mu.Lock()
	o.jar = maps.Clone(d.rx.pf.jar.entries)
	d.rx.pf.jar.mu.Unlock()
	return o
}

func (o observable) equal(p observable) bool {
	return o.snap == p.snap && o.buckets == p.buckets && o.sent == p.sent && maps.Equal(o.jar, p.jar)
}

// preKey reports whether reason is one decide can reach.
func preKey(reason DropReason) bool {
	switch reason {
	case DropNotForUs, DropMalformed, DropAlgorithm, DropStale, DropPrefilter, DropBadCookie, DropChallenged:
		return true
	}
	return false
}

// FuzzDecide holds the receive walk's verdict before keying to its one
// statement. The input is a body (sealed by alice, or sent as raw bytes),
// a pinned rung, a known or unknown source, and no echo envelope or a
// valid, stale or forged one. decide must give one verdict twice and move
// nothing observable: Snapshot (PrefilterStats with it), the sketch's
// buckets, the cookie jar, the transport. openWalk must then refuse
// before keying exactly where decide does, for decide's reason, and never
// refuse before keying what decide passes.
func FuzzDecide(f *testing.F) {
	f.Add([]byte("hello"), true, uint8(0), true, uint8(0), false)
	f.Add([]byte("hello"), true, uint8(2), false, uint8(0), false)
	f.Add([]byte("hello"), true, uint8(2), false, uint8(1), false)
	f.Add([]byte("hello"), true, uint8(2), true, uint8(2), false)
	f.Add([]byte("hello"), true, uint8(1), true, uint8(3), false)
	f.Add([]byte{1, 2, 3}, false, uint8(1), true, uint8(0), true)
	f.Add(appendCookieFrame(nil, CookieKindChallenge, cookie{epoch: 7}), false, uint8(2), true, uint8(0), false)
	f.Fuzz(func(t *testing.T, body []byte, seal bool, rung uint8, known bool, env uint8, elsewhere bool) {
		d := newDecideWorld(t)
		p := d.rx.pf
		p.cfg.ForceLevel = PrefilterLevel(rung % 3)
		src := principal.Address("alice")
		if !known {
			src = "mallory"
		}
		dg := transport.Datagram{Source: src, Destination: "bob", Payload: body}
		if elsewhere {
			dg.Destination = "carol"
		}
		if seal {
			sealed, err := d.tx.Seal(transport.Datagram{Destination: "bob", Payload: body}, true)
			if err != nil {
				t.Fatal(err)
			}
			dg.Payload = sealed.Payload
		}
		var ck cookie
		switch env % 4 {
		case 1:
			ck = p.mint(src, d.now)
		case 2:
			ck = p.mint(src, d.now.Add(-3*epochSeconds*time.Second))
		case 3:
			ck = p.mint(src, d.now)
			ck.mac[0] ^= 1
		}
		if env%4 != 0 {
			dg.Payload = append(appendCookieFrame(nil, CookieKindEcho, ck), dg.Payload...)
		}

		before := d.observe()
		var v, again verdict
		d.rx.decide(&dg, d.now, &v)
		d.rx.decide(&dg, d.now, &again)
		if v != again {
			t.Fatalf("decide gave two verdicts: %+v then %+v", v, again)
		}
		if after := d.observe(); !after.equal(before) {
			t.Fatalf("decide moved observable state:\n before %+v\n after  %+v", before.snap, after.snap)
		}

		var res [1]BatchResult
		d.rx.openWalk(make([]byte, 0, len(dg.Payload)), []transport.Datagram{dg}, res[:], nil, false)
		got := res[0]
		switch {
		case v.pf == pfAbsorb:
			if got.Err != ErrChallengeAbsorbed || got.Drop != DropNone {
				t.Fatalf("decide absorbs, openWalk gave %v (%v)", got.Drop, got.Err)
			}
		case !v.pass():
			if got.Drop != v.drop {
				t.Fatalf("decide refuses for %v, openWalk for %v (%v)", v.drop, got.Drop, got.Err)
			}
		case preKey(got.Drop):
			t.Fatalf("decide passes, openWalk refuses before keying for %v (%v)", got.Drop, got.Err)
		}
	})
}
