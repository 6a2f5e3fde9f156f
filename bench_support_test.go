package fbs

// Support for the full-stack benchmark: two hosts with FBS-enabled IPv4
// stacks and the simplified-TCP stream transport, wired back to back.

import (
	"sync"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/ip"
	"fbs/internal/l4"
	"fbs/internal/principal"
)

type benchWire struct {
	mu    sync.Mutex
	peers map[ip.Addr]*ip.Stack
}

func (w *benchWire) sender(self ip.Addr) ip.LinkFunc {
	return ip.LinkFunc(func(frame []byte) error {
		w.mu.Lock()
		var dst *ip.Stack
		if h, _, err := ip.Unmarshal(frame); err == nil {
			dst = w.peers[h.Dst]
		}
		w.mu.Unlock()
		if dst != nil {
			go dst.Input(append([]byte(nil), frame...))
		}
		return nil
	})
}

var (
	benchCAOnce sync.Once
	benchCA     *cert.Authority
)

// fullStackPair builds two FBS-enabled stacks (A dials, B listens) and
// returns their stream stacks plus B's address.
func fullStackPair(b *testing.B, secret bool) (*l4.StreamStack, *l4.StreamStack, ip.Addr) {
	b.Helper()
	benchCAOnce.Do(func() {
		ca, err := cert.NewAuthority("bench-root", 512)
		if err != nil {
			b.Fatal(err)
		}
		benchCA = ca
	})
	dir := cert.NewStaticDirectory()
	ver := &cert.Verifier{CAKey: benchCA.PublicKey(), CA: "bench-root"}
	w := &benchWire{peers: make(map[ip.Addr]*ip.Stack)}
	addrA := ip.Addr{10, 9, 0, 1}
	addrB := ip.Addr{10, 9, 0, 2}
	secretPolicy := ip.AlwaysSecret
	if !secret {
		secretPolicy = ip.NeverSecret
	}
	mk := func(addr ip.Addr) *ip.Stack {
		id, err := principal.NewIdentity(ip.Principal(addr), cryptolib.TestGroup)
		if err != nil {
			b.Fatal(err)
		}
		c, err := benchCA.Issue(id, time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		dir.Publish(c)
		hook, err := ip.NewFBSHook(core.Config{
			Identity:   id,
			Directory:  dir,
			Verifier:   ver,
			SinglePass: true,
		}, secretPolicy)
		if err != nil {
			b.Fatal(err)
		}
		s, err := ip.NewStack(ip.StackConfig{Addr: addr, Link: w.sender(addr), Hook: hook})
		if err != nil {
			b.Fatal(err)
		}
		w.mu.Lock()
		w.peers[addr] = s
		w.mu.Unlock()
		return s
	}
	sa := mk(addrA)
	sb := mk(addrB)
	overhead := core.SealOverhead
	ssa, err := l4.NewStreamStack(sa, l4.StreamConfig{RTO: 30 * time.Millisecond, SecurityHeaderLen: overhead})
	if err != nil {
		b.Fatal(err)
	}
	ssb, err := l4.NewStreamStack(sb, l4.StreamConfig{RTO: 30 * time.Millisecond, SecurityHeaderLen: overhead})
	if err != nil {
		b.Fatal(err)
	}
	return ssa, ssb, addrB
}
