package cert

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

var (
	testCAOnce sync.Once
	testCA     *Authority
)

func testAuthority(t *testing.T) *Authority {
	t.Helper()
	testCAOnce.Do(func() {
		ca, err := NewAuthority("repro-root", 512)
		if err != nil {
			t.Fatal(err)
		}
		testCA = ca
	})
	return testCA
}

func testIdentity(t *testing.T, addr principal.Address) *principal.Identity {
	t.Helper()
	id, err := principal.NewIdentity(addr, cryptolib.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestIssueVerifyRoundTrip(t *testing.T) {
	ca := testAuthority(t)
	id := testIdentity(t, "10.1.2.3")
	now := time.Now()
	c, err := ca.Issue(id, now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	v := &Verifier{CAKey: ca.PublicKey(), CA: "repro-root"}
	if err := v.Verify(c, "10.1.2.3", now); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	if c.Public.Cmp(id.Public) != 0 {
		t.Fatal("certificate carries wrong public value")
	}
	if c.Group().P.Cmp(id.Group.P) != 0 {
		t.Fatal("certificate carries wrong group")
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	ca := testAuthority(t)
	id := testIdentity(t, "host.example")
	now := time.Now()
	c, err := ca.Issue(id, now, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	wire := c.Marshal()
	back, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Subject != c.Subject || back.Serial != c.Serial || back.Issuer != c.Issuer {
		t.Fatal("metadata did not round-trip")
	}
	if back.Public.Cmp(c.Public) != 0 {
		t.Fatal("public value did not round-trip")
	}
	if !back.NotBefore.Equal(c.NotBefore) || !back.NotAfter.Equal(c.NotAfter) {
		t.Fatalf("validity did not round-trip: %v/%v vs %v/%v",
			back.NotBefore, back.NotAfter, c.NotBefore, c.NotAfter)
	}
	v := &Verifier{CAKey: ca.PublicKey()}
	if err := v.Verify(back, c.Subject, now); err != nil {
		t.Fatalf("round-tripped certificate fails verification: %v", err)
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	ca := testAuthority(t)
	id := testIdentity(t, "x")
	c, _ := ca.Issue(id, time.Now(), time.Now().Add(time.Hour))
	wire := c.Marshal()
	for _, n := range []int{0, 1, 8, 9, 12, len(wire) / 2, len(wire) - 1} {
		if _, err := Unmarshal(wire[:n]); err == nil {
			t.Errorf("Unmarshal accepted %d-byte truncation", n)
		}
	}
	if _, err := Unmarshal(append(wire, 0)); err == nil {
		t.Error("Unmarshal accepted trailing garbage")
	}
}

func TestVerifyRejections(t *testing.T) {
	ca := testAuthority(t)
	id := testIdentity(t, "victim")
	now := time.Now()
	c, _ := ca.Issue(id, now.Add(-time.Hour), now.Add(time.Hour))
	v := &Verifier{CAKey: ca.PublicKey(), CA: "repro-root"}

	if err := v.Verify(nil, "victim", now); err == nil {
		t.Error("nil certificate accepted")
	}
	if err := v.Verify(c, "other", now); err == nil {
		t.Error("wrong subject accepted")
	}
	if err := v.Verify(c, "victim", now.Add(-2*time.Hour)); err == nil {
		t.Error("not-yet-valid certificate accepted")
	}
	if err := v.Verify(c, "victim", now.Add(2*time.Hour)); err == nil {
		t.Error("expired certificate accepted")
	}
	tampered := *c
	tampered.Serial++
	if err := v.Verify(&tampered, "victim", now); err == nil {
		t.Error("tampered certificate accepted")
	}
	otherCA, err := NewAuthority("repro-root", 512) // same name, different key
	if err != nil {
		t.Fatal(err)
	}
	forged, _ := otherCA.Issue(id, now.Add(-time.Hour), now.Add(time.Hour))
	if err := v.Verify(forged, "victim", now); err == nil {
		t.Error("certificate from impostor CA accepted")
	}
}

func TestIssueRejectsEmptyInterval(t *testing.T) {
	ca := testAuthority(t)
	id := testIdentity(t, "x2")
	now := time.Now()
	if _, err := ca.Issue(id, now, now); err == nil {
		t.Fatal("empty validity interval accepted")
	}
}

func TestSerialsIncrease(t *testing.T) {
	ca := testAuthority(t)
	id := testIdentity(t, "serial-test")
	now := time.Now()
	c1, _ := ca.Issue(id, now, now.Add(time.Hour))
	c2, _ := ca.Issue(id, now, now.Add(time.Hour))
	if c2.Serial <= c1.Serial {
		t.Fatalf("serials not increasing: %d then %d", c1.Serial, c2.Serial)
	}
}

// TestConcurrentIssueSerials: an Authority issues from many goroutines
// at once — a domain provisioning clients in parallel while its admin
// plane enrolls a tenant — and every certificate gets its own serial.
func TestConcurrentIssueSerials(t *testing.T) {
	ca := testAuthority(t)
	id := testIdentity(t, "serial-race")
	const workers, each = 8, 4
	serials := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := range serials {
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := time.Now()
			for i := 0; i < each; i++ {
				c, err := ca.Issue(id, now, now.Add(time.Hour))
				if err != nil {
					t.Error(err)
					return
				}
				serials[w] = append(serials[w], c.Serial)
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, ss := range serials {
		for _, s := range ss {
			if seen[s] {
				t.Fatalf("serial %d issued twice", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != workers*each {
		t.Fatalf("%d distinct serials, want %d", len(seen), workers*each)
	}
}

func TestStaticDirectory(t *testing.T) {
	ca := testAuthority(t)
	d := NewStaticDirectory()
	if _, err := d.Lookup("ghost"); err == nil {
		t.Fatal("lookup of unpublished principal succeeded")
	}
	id := testIdentity(t, "10.0.0.9")
	c, _ := ca.Issue(id, time.Now(), time.Now().Add(time.Hour))
	d.Publish(c)
	got, err := d.Lookup("10.0.0.9")
	if err != nil {
		t.Fatal(err)
	}
	if got.Subject != "10.0.0.9" {
		t.Fatal("wrong certificate returned")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

// Decoder fuzz: arbitrary bytes must never panic Unmarshal, and nothing
// random may parse into a verifiable certificate.
func TestCertUnmarshalNeverPanics(t *testing.T) {
	ca := testAuthority(t)
	v := &Verifier{CAKey: ca.PublicKey()}
	f := func(b []byte) bool {
		c, err := Unmarshal(b)
		if err != nil {
			return true
		}
		return v.Verify(c, c.Subject, time.Now()) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
