package cert

import (
	"testing"
	"time"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

func netdirFixture(t *testing.T, imp transport.Impairments) (*NetworkDirectory, *DirectoryServer, *transport.Network) {
	t.Helper()
	ca := testAuthority(t)
	src := NewStaticDirectory()
	id := testIdentity(t, "10.9.9.9")
	c, err := ca.Issue(id, time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(c)

	net := transport.NewNetwork(imp)
	serverTr, err := net.Attach("cert-server", 64)
	if err != nil {
		t.Fatal(err)
	}
	server := NewDirectoryServer(serverTr, src)
	go server.Serve()
	t.Cleanup(func() { serverTr.Close() })

	clientTr, err := net.Attach("client", 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clientTr.Close() })
	dir := NewNetworkDirectory(clientTr, "cert-server")
	dir.Timeout = 200 * time.Millisecond
	return dir, server, net
}

func TestNetworkDirectoryLookup(t *testing.T) {
	dir, _, _ := netdirFixture(t, transport.Impairments{})
	c, err := dir.Lookup("10.9.9.9")
	if err != nil {
		t.Fatal(err)
	}
	if c.Subject != "10.9.9.9" {
		t.Fatalf("got certificate for %q", c.Subject)
	}
	v := &Verifier{CAKey: testCA.PublicKey(), CA: testCA.Name}
	if err := v.Verify(c, "10.9.9.9", time.Now()); err != nil {
		t.Fatalf("fetched certificate does not verify: %v", err)
	}
}

func TestNetworkDirectoryNotFound(t *testing.T) {
	dir, _, _ := netdirFixture(t, transport.Impairments{})
	if _, err := dir.Lookup("ghost"); err == nil {
		t.Fatal("lookup of unknown principal succeeded")
	}
}

// The fetch protocol rides a datagram service: requests and responses
// can be lost. The client's retry must ride it out.
func TestNetworkDirectoryRetriesThroughLoss(t *testing.T) {
	dir, _, _ := netdirFixture(t, transport.Impairments{LossProb: 0.4, Seed: 11})
	dir.Retries = 20
	c, err := dir.Lookup("10.9.9.9")
	if err != nil {
		t.Fatalf("lookup through 40%% loss failed: %v", err)
	}
	if c.Subject != "10.9.9.9" {
		t.Fatal("wrong certificate")
	}
}

func TestNetworkDirectoryTimeout(t *testing.T) {
	net := transport.NewNetwork(transport.Impairments{LossProb: 1})
	clientTr, _ := net.Attach("client", 4)
	defer clientTr.Close()
	dir := NewNetworkDirectory(clientTr, "nobody-home")
	dir.Timeout = 20 * time.Millisecond
	dir.Retries = 1
	start := time.Now()
	if _, err := dir.Lookup("x"); err == nil {
		t.Fatal("lookup with no server succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
}

func TestDirectoryServerIgnoresGarbage(t *testing.T) {
	_, server, net := netdirFixture(t, transport.Impairments{})
	junk, _ := net.Attach("junk", 4)
	defer junk.Close()
	junk.Send(transport.Datagram{Destination: "cert-server", Payload: []byte("not a request")})
	junk.Send(transport.Datagram{Destination: "cert-server", Payload: nil})
	// A valid lookup still works afterwards.
	clientTr, _ := net.Attach("client2", 16)
	defer clientTr.Close()
	dir := NewNetworkDirectory(clientTr, "cert-server")
	dir.Timeout = 200 * time.Millisecond
	if _, err := dir.Lookup("10.9.9.9"); err != nil {
		t.Fatalf("server wedged by garbage: %v", err)
	}
	_ = server
}

func TestParseDirRequestValidation(t *testing.T) {
	if _, _, err := parseDirRequest(nil); err == nil {
		t.Error("nil request parsed")
	}
	if _, _, err := parseDirRequest([]byte{dirMagic0, dirRspTag, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'a'}); err == nil {
		t.Error("response tag accepted as request")
	}
	good := []byte{dirMagic0, dirReqTag, 0, 0, 0, 0, 0, 0, 0, 7}
	good = append(good, principal.Address("peer").Wire()...)
	id, addr, err := parseDirRequest(good)
	if err != nil || id != 7 || addr != "peer" {
		t.Fatalf("good request misparsed: %v %v %v", id, addr, err)
	}
}
