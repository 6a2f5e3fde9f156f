package core

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Golden wire-format vectors: with every input pinned (private values,
// sfl, confounder, clock), the sealed datagram bytes are fully
// deterministic. These tests freeze the wire format — any change that
// breaks interoperability with previously generated traffic fails here.

// goldenFlowKey pins the flow key derivation.
func TestGoldenFlowKey(t *testing.T) {
	var master [16]byte
	copy(master[:], []byte{
		0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
		0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
	})
	kf := FlowKey(cryptolib.HashMD5, 0x0123456789abcdef, master, "10.0.0.1", "10.0.0.2")
	// K_f = MD5(sfl_be64 | master | len16|"10.0.0.1" | len16|"10.0.0.2")
	want := md5.Sum(append(append(append(append([]byte{},
		0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef),
		master[:]...),
		0x00, 0x08, '1', '0', '.', '0', '.', '0', '.', '1'),
		0x00, 0x08, '1', '0', '.', '0', '.', '0', '.', '2'))
	if kf != want {
		t.Fatalf("flow key derivation changed:\n got %x\nwant %x", kf, want)
	}
}

// TestGoldenHeaderBytes pins the header layout byte for byte.
func TestGoldenHeaderBytes(t *testing.T) {
	h := Header{
		Version:    1,
		Flags:      FlagSecret,
		MAC:        cryptolib.MACPrefixMD5, // 0
		Cipher:     CipherDES,              // 1
		Mode:       cryptolib.CBC,          // 1
		SFL:        0x1122334455667788,
		Confounder: 0xAABBCCDD,
		Timestamp:  0x00112233,
	}
	for i := range h.MACValue {
		h.MACValue[i] = byte(i)
	}
	got := h.Encode(nil)
	want, _ := hex.DecodeString(
		"01" + // version
			"01" + // flags: secret
			"00" + // MAC alg: keyed MD5
			"11" + // cipher DES << 4 | mode CBC
			"1122334455667788" + // sfl
			"aabbccdd" + // confounder
			"00112233" + // timestamp
			"000102030405060708090a0b0c0d0e0f") // MAC
	if !bytes.Equal(got, want) {
		t.Fatalf("header layout changed:\n got %x\nwant %x", got, want)
	}
}

// TestGoldenSealedDatagram pins an entire sealed datagram produced with
// fully deterministic inputs.
func TestGoldenSealedDatagram(t *testing.T) {
	// Deterministic identities on the test group.
	group := cryptolib.TestGroup
	src, err := principal.NewIdentityWithPrivate("S", group, big.NewInt(0x5EED))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := principal.NewIdentityWithPrivate("D", group, big.NewInt(0xD00D))
	if err != nil {
		t.Fatal(err)
	}
	master, err := src.MasterKey(dst.Public)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic protocol inputs.
	const sfl = SFL(1000)
	const conf = uint32(0x01020304)
	clock := NewSimClock(time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC))
	ts := TimestampOf(clock.Now())
	payload := []byte("golden payload 123")

	// Build the sealed datagram exactly as Seal does.
	kf := FlowKey(cryptolib.HashMD5, sfl, master, "S", "D")
	h := Header{
		Version:    HeaderVersion,
		Flags:      FlagSecret,
		MAC:        cryptolib.MACPrefixMD5,
		Cipher:     CipherDES,
		Mode:       cryptolib.CBC,
		SFL:        sfl,
		Confounder: conf,
		Timestamp:  ts,
	}
	mi := h.macInput()
	mac := cryptolib.MACPrefixMD5.Compute(kf[:], mi[:], payload)
	copy(h.MACValue[:], mac)
	cipher, err := cryptolib.NewDES(kf[:8])
	if err != nil {
		t.Fatal(err)
	}
	iv := h.iv()
	body := cryptolib.Pad(payload, 8)
	if _, err := cryptolib.EncryptMode(cipher, cryptolib.CBC, iv[:], body, body); err != nil {
		t.Fatal(err)
	}
	wire := append(h.Encode(nil), body...)

	// The self-check that matters: the golden construction is exactly
	// what the endpoint produces and accepts. (The absolute bytes are
	// pinned indirectly through TestGoldenHeaderBytes and
	// TestGoldenFlowKey; the master key itself depends on the
	// deterministically derived TestGroup prime.)
	w := newWorld(t)
	dstTr, err := transportAttach(t, w, "D")
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild a receiving endpoint around the SAME deterministic
	// identity (bypass the world's identity minting).
	ep, err := NewEndpoint(Config{
		Identity:  dst,
		Transport: dstTr,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	// Publish S's certificate so D can key the reverse derivation.
	cS, err := w.ca.Issue(src, clock.Now().Add(-time.Hour), clock.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	w.dir.Publish(cS)
	got, err := ep.Open(transportDatagram("S", "D", wire))
	if err != nil {
		t.Fatalf("hand-built golden datagram rejected: %v", err)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("golden payload mismatch: %q", got.Payload)
	}
	// Determinism: building it twice gives identical bytes.
	wire2 := append(h.Encode(nil), body...)
	if !bytes.Equal(wire, wire2) {
		t.Fatal("golden construction not deterministic")
	}
}

// TestGoldenSuiteVectors commits the sealed wire bytes of one pinned
// datagram per registered suite (plus the cleartext-with-tag framing of
// the AEAD suites). Every input is deterministic — private values, sfl,
// confounder, clock — so these hex strings freeze each suite's framing,
// key schedule, IV/nonce discipline and MAC/tag construction; any
// change that breaks interoperability with previously sealed traffic
// fails here. The DES vector doubles as the absolute-bytes pin for the
// construction TestGoldenSealedDatagram builds by hand.
func TestGoldenSuiteVectors(t *testing.T) {
	group := cryptolib.TestGroup
	src, err := principal.NewIdentityWithPrivate("S", group, big.NewInt(0x5EED))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := principal.NewIdentityWithPrivate("D", group, big.NewInt(0xD00D))
	if err != nil {
		t.Fatal(err)
	}
	master, err := src.MasterKey(dst.Public)
	if err != nil {
		t.Fatal(err)
	}
	const sfl = SFL(1000)
	const conf = uint32(0x01020304)
	clock := NewSimClock(time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC))
	ts := TimestampOf(clock.Now())
	payload := []byte("golden payload 123")
	kf := FlowKey(cryptolib.HashMD5, sfl, master, "S", "D")

	vectors := []struct {
		cipher CipherID
		secret bool
		wire   string
	}{
		{CipherDES, true, "0101001100000000000003e80102030400f4d490a9ca299c111e20591612791f1d463ca21ff27f4a8ee1ce8e601b1919cc5525a31a9a611f729cd0ee"},
		{Cipher3DES, true, "0101002100000000000003e80102030400f4d490f37974cff2eebae914da699f6f51124c3ff60003c4f7329eedb171fcd2b6ced7c130851f379be55b"},
		{CipherAES128GCM, true, "0101048000000000000003e80102030400f4d4900dcdf5ad280008a00a732f9851f8f2aec1655c3cc06b9804303bfb72f26aba41526f"},
		{CipherAES128GCM, false, "0100048000000000000003e80102030400f4d490caedadf124753f75e149b77ddb98e1ce676f6c64656e207061796c6f616420313233"},
		{CipherChaCha20Poly1305, true, "0101049000000000000003e80102030400f4d4902c313ccd17c3b213df039798b5bec0efa267aedb9730830f26973bc4e5caafe3a010"},
		{CipherChaCha20Poly1305, false, "0100049000000000000003e80102030400f4d490dc07ef1dabbed8a0e8ed18ee5f816e80676f6c64656e207061796c6f616420313233"},
	}

	// One deterministic receiving endpoint accepts every vector: the
	// header is self-describing and the default accept policy admits all
	// registered suites.
	w := newWorld(t)
	dstTr, err := transportAttach(t, w, "D")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEndpoint(Config{
		Identity:  dst,
		Transport: dstTr,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	cS, err := w.ca.Issue(src, clock.Now().Add(-time.Hour), clock.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	w.dir.Publish(cS)

	for _, v := range vectors {
		suite := SuiteByID(v.cipher)
		if suite == nil {
			t.Fatalf("suite %v not registered", v.cipher)
		}
		name := suite.Name()
		mac, mode := suite.WireAlg(cryptolib.MACPrefixMD5, cryptolib.CBC)
		h := Header{
			Version:    HeaderVersion,
			MAC:        mac,
			Cipher:     v.cipher,
			Mode:       mode,
			SFL:        sfl,
			Confounder: conf,
			Timestamp:  ts,
		}
		if v.secret {
			h.Flags = FlagSecret
		}
		wire := h.Encode(nil)
		wire, err := suite.SealAppend(wire, 0, h, kf, payload, false, nil)
		if err != nil {
			t.Fatalf("%s: SealAppend: %v", name, err)
		}
		got := hex.EncodeToString(wire)
		if v.wire == "" {
			t.Errorf("GENERATE %s secret=%v:\n%s", name, v.secret, got)
			continue
		}
		if got != v.wire {
			t.Errorf("%s secret=%v wire bytes changed:\n got %s\nwant %s", name, v.secret, got, v.wire)
			continue
		}
		opened, err := ep.Open(transportDatagram("S", "D", wire))
		if err != nil {
			t.Errorf("%s secret=%v: golden vector rejected: %v", name, v.secret, err)
			continue
		}
		if !bytes.Equal(opened.Payload, payload) {
			t.Errorf("%s secret=%v: payload mismatch: %q", name, v.secret, opened.Payload)
		}
	}
}

func transportAttach(t *testing.T, _ *testWorld, name principal.Address) (transport.Transport, error) {
	t.Helper()
	net := transport.NewNetwork(transport.Impairments{})
	return net.Attach(name, 16)
}

func transportDatagram(src, dst principal.Address, payload []byte) transport.Datagram {
	return transport.Datagram{Source: src, Destination: dst, Payload: payload}
}

// TestGoldenLegacyMatrix commits the sealed wire bytes of every legacy
// (MAC-then-encrypt) combination the header can name: DES and 3DES in
// each of the four modes under each of the three MAC constructions, the
// three MACs over a cleartext body, and the single-pass DES-CBC seal
// (Section 5.3), whose fused MAC stream must give the bytes of the
// two-pass seal. The inputs are those of TestGoldenSuiteVectors, so the
// DES and 3DES keyed-MD5 CBC rows repeat its two legacy vectors.
func TestGoldenLegacyMatrix(t *testing.T) {
	group := cryptolib.TestGroup
	src, err := principal.NewIdentityWithPrivate("S", group, big.NewInt(0x5EED))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := principal.NewIdentityWithPrivate("D", group, big.NewInt(0xD00D))
	if err != nil {
		t.Fatal(err)
	}
	master, err := src.MasterKey(dst.Public)
	if err != nil {
		t.Fatal(err)
	}
	const sfl = SFL(1000)
	const conf = uint32(0x01020304)
	clock := NewSimClock(time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC))
	ts := TimestampOf(clock.Now())
	payload := []byte("golden payload 123")
	kf := FlowKey(cryptolib.HashMD5, sfl, master, "S", "D")

	const (
		kmd5  = cryptolib.MACPrefixMD5
		hmd5  = cryptolib.MACHMACMD5
		hsha1 = cryptolib.MACHMACSHA1
	)
	vectors := []struct {
		cipher     CipherID
		mac        cryptolib.MACID
		mode       cryptolib.Mode
		secret     bool
		singlePass bool
		wire       string
	}{
		{CipherDES, kmd5, cryptolib.ECB, true, false, "0101001000000000000003e80102030400f4d4909e159640cf2d2110397a64c388b42d7b1ff27f4a8ee1ce8eca69b2c1dc7a33015a9dc21dd5999108"},
		{CipherDES, kmd5, cryptolib.CBC, true, false, "0101001100000000000003e80102030400f4d490a9ca299c111e20591612791f1d463ca21ff27f4a8ee1ce8e601b1919cc5525a31a9a611f729cd0ee"},
		{CipherDES, kmd5, cryptolib.CFB, true, false, "0101001200000000000003e80102030400f4d4908eb1e39c974da20496b4c0d2c3107284f16d2d5738b723e1a1dd99dd3c374928f5e25bb4e8ba65a2"},
		{CipherDES, kmd5, cryptolib.OFB, true, false, "0101001300000000000003e80102030400f4d49006122c0e913cedf30bf751b2b7ab25cef16d2d5738b723e1b047cec17748eaa171319ff71e9b40dd"},
		{CipherDES, hmd5, cryptolib.ECB, true, false, "0101011000000000000003e80102030400f4d4908258128ffbf3ef42fe9181d54be50c001ff27f4a8ee1ce8eca69b2c1dc7a33015a9dc21dd5999108"},
		{CipherDES, hmd5, cryptolib.CBC, true, false, "0101011100000000000003e80102030400f4d490aaa8873150feb7045b385c29b2c082041ff27f4a8ee1ce8e601b1919cc5525a31a9a611f729cd0ee"},
		{CipherDES, hmd5, cryptolib.CFB, true, false, "0101011200000000000003e80102030400f4d490ea8c129bfb22bfe4505fb1ba123aa8eaf16d2d5738b723e1a1dd99dd3c374928f5e25bb4e8ba65a2"},
		{CipherDES, hmd5, cryptolib.OFB, true, false, "0101011300000000000003e80102030400f4d490ff13cf4446e21f394a8e8b666bd29935f16d2d5738b723e1b047cec17748eaa171319ff71e9b40dd"},
		{CipherDES, hsha1, cryptolib.ECB, true, false, "0101021000000000000003e80102030400f4d490563f3339228c8f4fc2e65660d0102a851ff27f4a8ee1ce8eca69b2c1dc7a33015a9dc21dd5999108"},
		{CipherDES, hsha1, cryptolib.CBC, true, false, "0101021100000000000003e80102030400f4d490b2b17f956eeb4d90fb1156cc809176871ff27f4a8ee1ce8e601b1919cc5525a31a9a611f729cd0ee"},
		{CipherDES, hsha1, cryptolib.CFB, true, false, "0101021200000000000003e80102030400f4d49053c06d339c923ae00504c89c98527b0af16d2d5738b723e1a1dd99dd3c374928f5e25bb4e8ba65a2"},
		{CipherDES, hsha1, cryptolib.OFB, true, false, "0101021300000000000003e80102030400f4d4909b3de4fb68050998917db0f4745d6a49f16d2d5738b723e1b047cec17748eaa171319ff71e9b40dd"},
		{Cipher3DES, kmd5, cryptolib.ECB, true, false, "0101002000000000000003e80102030400f4d490a3414b7dc4954998436434bf46d91f4c3ff60003c4f7329eb44ca5e4dc77099c458677f2e788dac7"},
		{Cipher3DES, kmd5, cryptolib.CBC, true, false, "0101002100000000000003e80102030400f4d490f37974cff2eebae914da699f6f51124c3ff60003c4f7329eedb171fcd2b6ced7c130851f379be55b"},
		{Cipher3DES, kmd5, cryptolib.CFB, true, false, "0101002200000000000003e80102030400f4d490916ca6bba79eb8fb4ae231b9b57614680c0e741df0b99f633bfbafb1c92c849548cc79ae477e89e6"},
		{Cipher3DES, kmd5, cryptolib.OFB, true, false, "0101002300000000000003e80102030400f4d4905a18d3e6dc2dd80346ba495bea04277f0c0e741df0b99f6385547da3b3797744af67b690f403e42a"},
		{Cipher3DES, hmd5, cryptolib.ECB, true, false, "0101012000000000000003e80102030400f4d490ace416238416903160690d60801b2cd23ff60003c4f7329eb44ca5e4dc77099c458677f2e788dac7"},
		{Cipher3DES, hmd5, cryptolib.CBC, true, false, "0101012100000000000003e80102030400f4d490959f0ea3119f6e0237827d26505733473ff60003c4f7329eedb171fcd2b6ced7c130851f379be55b"},
		{Cipher3DES, hmd5, cryptolib.CFB, true, false, "0101012200000000000003e80102030400f4d490e4b3a605bfe59b7f071031fc4288537c0c0e741df0b99f633bfbafb1c92c849548cc79ae477e89e6"},
		{Cipher3DES, hmd5, cryptolib.OFB, true, false, "0101012300000000000003e80102030400f4d490c27609f593b1d95a5a7b3760f6f8ad3b0c0e741df0b99f6385547da3b3797744af67b690f403e42a"},
		{Cipher3DES, hsha1, cryptolib.ECB, true, false, "0101022000000000000003e80102030400f4d490b2c335fd34e71062627e7a501112ee0f3ff60003c4f7329eb44ca5e4dc77099c458677f2e788dac7"},
		{Cipher3DES, hsha1, cryptolib.CBC, true, false, "0101022100000000000003e80102030400f4d4908048fb44d1605532c450cc57724fad813ff60003c4f7329eedb171fcd2b6ced7c130851f379be55b"},
		{Cipher3DES, hsha1, cryptolib.CFB, true, false, "0101022200000000000003e80102030400f4d4903f957918b648442298b240297c9594c50c0e741df0b99f633bfbafb1c92c849548cc79ae477e89e6"},
		{Cipher3DES, hsha1, cryptolib.OFB, true, false, "0101022300000000000003e80102030400f4d490d1bd6718bab434d8c97e913c0318d4390c0e741df0b99f6385547da3b3797744af67b690f403e42a"},
		{CipherNone, kmd5, cryptolib.ECB, false, false, "0100000000000000000003e80102030400f4d490a42f9d2d60b9a3972c597eff367b957e676f6c64656e207061796c6f616420313233"},
		{CipherNone, hmd5, cryptolib.ECB, false, false, "0100010000000000000003e80102030400f4d490e132a8b235aa309c37c2eef4a8d418e7676f6c64656e207061796c6f616420313233"},
		{CipherNone, hsha1, cryptolib.ECB, false, false, "0100020000000000000003e80102030400f4d490272ab968f73921b122594a534d5d8795676f6c64656e207061796c6f616420313233"},
		{CipherDES, kmd5, cryptolib.CBC, true, true, "0101001100000000000003e80102030400f4d490a9ca299c111e20591612791f1d463ca21ff27f4a8ee1ce8e601b1919cc5525a31a9a611f729cd0ee"},
		{CipherDES, hmd5, cryptolib.CBC, true, true, "0101011100000000000003e80102030400f4d490aaa8873150feb7045b385c29b2c082041ff27f4a8ee1ce8e601b1919cc5525a31a9a611f729cd0ee"},
		{CipherDES, hsha1, cryptolib.CBC, true, true, "0101021100000000000003e80102030400f4d490b2b17f956eeb4d90fb1156cc809176871ff27f4a8ee1ce8e601b1919cc5525a31a9a611f729cd0ee"},
	}

	w := newWorld(t)
	dstTr, err := transportAttach(t, w, "D")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEndpoint(Config{
		Identity:  dst,
		Transport: dstTr,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	cS, err := w.ca.Issue(src, clock.Now().Add(-time.Hour), clock.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	w.dir.Publish(cS)

	for _, v := range vectors {
		name := fmt.Sprintf("%v/%v/%v secret=%v singlePass=%v", v.cipher, v.mac, v.mode, v.secret, v.singlePass)
		h := Header{
			Version:    HeaderVersion,
			MAC:        v.mac,
			Cipher:     v.cipher,
			Mode:       v.mode,
			SFL:        sfl,
			Confounder: conf,
			Timestamp:  ts,
		}
		if v.secret {
			h.Flags = FlagSecret
		}
		wire, err := SuiteByID(v.cipher).SealAppend(h.Encode(nil), 0, h, kf, payload, v.singlePass, nil)
		if err != nil {
			t.Fatalf("%s: SealAppend: %v", name, err)
		}
		got := hex.EncodeToString(wire)
		if v.wire == "" {
			t.Errorf("GENERATE %s:\n%s", name, got)
			continue
		}
		if got != v.wire {
			t.Errorf("%s wire bytes changed:\n got %s\nwant %s", name, got, v.wire)
			continue
		}
		opened, err := ep.Open(transportDatagram("S", "D", wire))
		if err != nil {
			t.Errorf("%s: golden vector rejected: %v", name, err)
			continue
		}
		if !bytes.Equal(opened.Payload, payload) {
			t.Errorf("%s: payload mismatch: %q", name, opened.Payload)
		}
	}
}
