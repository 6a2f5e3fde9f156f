package core

import (
	"errors"
	"testing"
	"time"
)

func TestAdmissionGateTokenBucket(t *testing.T) {
	clock := NewSimClock(famEpoch)
	g := newAdmissionGate(AdmissionConfig{UpcallRate: 10, UpcallBurst: 4}, clock)
	// The burst admits four attempts; the fifth sheds.
	for i := 0; i < 4; i++ {
		if err := g.Admit(); err != nil {
			t.Fatalf("attempt %d shed within burst: %v", i, err)
		}
	}
	if err := g.Admit(); !errors.Is(err, ErrKeyingOverload) {
		t.Fatalf("over-burst attempt: err = %v, want ErrKeyingOverload", err)
	}
	// 10/s refill: 200ms buys two tokens.
	clock.Advance(200 * time.Millisecond)
	if err := g.Admit(); err != nil {
		t.Fatalf("attempt after refill shed: %v", err)
	}
	if err := g.Admit(); err != nil {
		t.Fatalf("second attempt after refill shed: %v", err)
	}
	if err := g.Admit(); !errors.Is(err, ErrKeyingOverload) {
		t.Fatal("third attempt should exceed the refill")
	}
	s := g.Stats()
	if s.Admitted != 6 || s.ShedOverload != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAdmissionGateDisabledAndNil(t *testing.T) {
	if g := newAdmissionGate(AdmissionConfig{}, NewSimClock(famEpoch)); g != nil {
		t.Fatal("zero config did not disable the gate")
	}
	var g *admissionGate
	g.enter()
	g.leave()
	if s := g.Stats(); s != (AdmissionStats{}) {
		t.Fatalf("nil gate stats = %+v", s)
	}
}
