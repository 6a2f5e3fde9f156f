package cryptolib

import (
	"bytes"
	"crypto/md5"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	stdcrc "hash/crc32"
	"strings"
	"testing"
	"testing/quick"
)

// RFC 1321 appendix A.5 test suite, through HashID's dispatch.
func TestMD5RFC1321Vectors(t *testing.T) {
	vectors := []struct{ in, want string }{
		{"", "d41d8cd98f00b204e9800998ecf8427e"},
		{"a", "0cc175b9c0f1b6a831c399e269772661"},
		{"abc", "900150983cd24fb0d6963f7d28e17f72"},
		{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
		{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
		{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", "d174ab98d277d9f5a5611c2c9f419d9f"},
		{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", "57edf4a22be3c955ac49da2e2107b67a"},
	}
	for _, v := range vectors {
		got := Digest(HashMD5, []byte(v.in))
		if hex.EncodeToString(got) != v.want {
			t.Errorf("MD5(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

// FIPS 180-1 test vectors, through HashID's dispatch.
func TestSHA1Vectors(t *testing.T) {
	vectors := []struct{ in, want string }{
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
	}
	for _, v := range vectors {
		got := Digest(HashSHA1, []byte(v.in))
		if hex.EncodeToString(got) != v.want {
			t.Errorf("SHA1(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

// TestSumDoesNotDisturbState ensures Sum may be called mid-stream.
func TestSumDoesNotDisturbState(t *testing.T) {
	m := HashMD5.New()
	m.Write([]byte("hello "))
	_ = m.Sum(nil)
	m.Write([]byte("world"))
	got := m.Sum(nil)
	want := md5.Sum([]byte("hello world"))
	if !bytes.Equal(got, want[:]) {
		t.Fatalf("mid-stream Sum disturbed state: got %x want %x", got, want)
	}
}

// RFC 2202 test cases 1-7 for HMAC-MD5 and HMAC-SHA1.
func TestHMACRFC2202(t *testing.T) {
	rep := func(b byte, n int) string { return string(bytes.Repeat([]byte{b}, n)) }
	seq := make([]byte, 25)
	for i := range seq {
		seq[i] = byte(i + 1)
	}
	const (
		bigKey  = "Test Using Larger Than Block-Size Key - Hash Key First"
		bigData = "Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"
	)
	vectors := []struct {
		id        MACID
		key, data string
		want      string
	}{
		{MACHMACMD5, rep(0x0b, 16), "Hi There", "9294727a3638bb1c13f48ef8158bfc9d"},
		{MACHMACMD5, "Jefe", "what do ya want for nothing?", "750c783e6ab0b503eaa86e310a5db738"},
		{MACHMACMD5, rep(0xaa, 16), rep(0xdd, 50), "56be34521d144c88dbb8c733f0e8b3f6"},
		{MACHMACMD5, string(seq), rep(0xcd, 50), "697eaf0aca3a3aea3a75164746ffaa79"},
		{MACHMACMD5, rep(0x0c, 16), "Test With Truncation", "56461ef2342edc00f9bab995690efd4c"},
		{MACHMACMD5, rep(0xaa, 80), bigKey, "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd"},
		{MACHMACMD5, rep(0xaa, 80), bigData, "6f630fad67cda0ee1fb1f562db3aa53e"},
		{MACHMACSHA1, rep(0x0b, 20), "Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"},
		{MACHMACSHA1, "Jefe", "what do ya want for nothing?", "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
		{MACHMACSHA1, rep(0xaa, 20), rep(0xdd, 50), "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
		{MACHMACSHA1, string(seq), rep(0xcd, 50), "4c9007f4026250c6bc8414f9bf50c86c2d7235da"},
		{MACHMACSHA1, rep(0x0c, 20), "Test With Truncation", "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"},
		{MACHMACSHA1, rep(0xaa, 80), bigKey, "aa4ae5e15272d00e95705637ce8a3b55ed402112"},
		{MACHMACSHA1, rep(0xaa, 80), bigData, "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"},
	}
	for i, v := range vectors {
		if got := hex.EncodeToString(v.id.Compute([]byte(v.key), []byte(v.data))); got != v.want {
			t.Errorf("%v case %d: got %s, want %s", v.id, i%7+1, got, v.want)
		}
	}
}

func TestMACVerify(t *testing.T) {
	key := []byte("flow key")
	msg := []byte("confounder|timestamp|payload")
	for _, id := range []MACID{MACPrefixMD5, MACHMACMD5, MACHMACSHA1} {
		mac := id.Compute(key, msg)
		if !id.Verify(key, mac, msg) {
			t.Errorf("%v: correct MAC rejected", id)
		}
		if !id.Verify(key, mac[:8], msg) {
			t.Errorf("%v: truncated MAC rejected", id)
		}
		mac[0] ^= 1
		if id.Verify(key, mac, msg) {
			t.Errorf("%v: corrupted MAC accepted", id)
		}
		if id.Verify(key, mac[:2], msg) {
			t.Errorf("%v: too-short MAC accepted", id)
		}
		if id.Verify([]byte("other key"), id.Compute(key, msg), msg) {
			t.Errorf("%v: MAC verified under wrong key", id)
		}
	}
}

// The prefix MAC must be split-insensitive: MAC(k, a|b) == MAC(k, ab).
func TestMACPartsConcatenate(t *testing.T) {
	key := []byte("k")
	for _, id := range []MACID{MACPrefixMD5, MACHMACMD5, MACHMACSHA1} {
		one := id.Compute(key, []byte("abcdef"))
		two := id.Compute(key, []byte("abc"), []byte("def"))
		if !bytes.Equal(one, two) {
			t.Errorf("%v: parts are not concatenated", id)
		}
	}
}

// TestHMACMD5Tagged: the stack HMAC-MD5 is MACHMACMD5.Compute over the
// string and the big-endian word, for strings shorter and longer than
// one block, and allocates nothing for a short one.
func TestHMACMD5Tagged(t *testing.T) {
	var key [16]byte
	for i := range key {
		key[i] = byte(7 * i)
	}
	for _, s := range []string{"", "alice", "10.0.0.1:4000", strings.Repeat("x", 61), strings.Repeat("y", 200)} {
		for _, v := range []uint32{0, 1, 0xdeadbeef} {
			var vb [4]byte
			binary.BigEndian.PutUint32(vb[:], v)
			want := MACHMACMD5.Compute(key[:], []byte(s), vb[:])
			if got := HMACMD5Tagged(&key, s, v); !bytes.Equal(got[:], want) {
				t.Fatalf("HMACMD5Tagged(%q, %d) = %x, want %x", s, v, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { HMACMD5Tagged(&key, "10.0.0.1:4000", 9) }); n != 0 {
		t.Errorf("%.1f allocs/op, want 0", n)
	}
}

// TestStreamMACMatchesCompute holds Compute over a stream of parts to
// Compute over their concatenation, for every MACID: the null MAC is all
// zeros, and the IDs Compute refuses (MACAEAD and an unknown one) return
// nil rather than falling back to a real MAC.
func TestStreamMACMatchesCompute(t *testing.T) {
	f := func(key, a, b, c []byte) bool {
		for _, id := range []MACID{MACPrefixMD5, MACHMACMD5, MACHMACSHA1, MACNull, MACAEAD, MACID(9)} {
			whole := id.Compute(key, append(append(append([]byte{}, a...), b...), c...))
			if !bytes.Equal(id.Compute(key, a, b, c), whole) {
				return false
			}
			if refused := id == MACAEAD || id == MACID(9); refused != (whole == nil) {
				return false
			}
			if id == MACNull && !bytes.Equal(whole, make([]byte, MACNull.Size())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamMACSumMidStream checks that a MAC over a prefix of a stream
// and a MAC over the whole stream are each what Compute gives for those
// bytes: no state carries from one call to the next.
func TestStreamMACSumMidStream(t *testing.T) {
	key := []byte("k")
	for _, id := range []MACID{MACPrefixMD5, MACHMACMD5, MACHMACSHA1} {
		mid := id.Compute(key, []byte("a"), []byte("b"))
		if !bytes.Equal(mid, id.Compute(key, []byte("ab"))) {
			t.Fatalf("%v: mid-stream MAC wrong", id)
		}
		full := id.Compute(key, []byte("ab"), []byte("cd"))
		if !bytes.Equal(full, id.Compute(key, []byte("abcd"))) {
			t.Fatalf("%v: MAC of the whole stream wrong", id)
		}
		if bytes.Equal(mid, full) {
			t.Fatalf("%v: MAC ignores the rest of the stream", id)
		}
	}
}

func TestCRC32AgainstStdlib(t *testing.T) {
	f := func(data []byte) bool {
		return CRC32(data) == stdcrc.ChecksumIEEE(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The slicing-by-8 update against hash/crc32 at every length 0…64 and
// every split point, through both the byte-slice and the string form, so
// each of the eight-byte loop's tails and restarts is covered.
func TestCRC32UpdateEverySplit(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*167 + 13)
	}
	for n := 0; n <= len(data); n++ {
		want := stdcrc.ChecksumIEEE(data[:n])
		for k := 0; k <= n; k++ {
			got := CRC32Update(CRC32Update(0xFFFFFFFF, data[:k]), data[k:n]) ^ 0xFFFFFFFF
			gotS := CRC32UpdateString(CRC32UpdateString(0xFFFFFFFF, string(data[:k])), string(data[k:n])) ^ 0xFFFFFFFF
			if got != want || gotS != want {
				t.Fatalf("len %d split %d: CRC32Update %08x, CRC32UpdateString %08x, want %08x", n, k, got, gotS, want)
			}
		}
	}
}

func TestCRC32FieldsDistributes(t *testing.T) {
	// Sequential labels (the paper's worry) must not map to sequential
	// hash values: check that low-order bits look uniform across a run of
	// sequential inputs.
	const n = 4096
	buckets := make([]int, 64)
	for i := uint64(0); i < n; i++ {
		buckets[CRC32Fields(i, 0x0a000001, 0x0a000002)%64]++
	}
	for b, c := range buckets {
		if c == 0 {
			t.Fatalf("bucket %d empty after %d sequential inputs", b, n)
		}
		if c > 4*n/64 {
			t.Fatalf("bucket %d grossly overloaded: %d", b, c)
		}
	}
}

func TestHashIDProperties(t *testing.T) {
	if HashMD5.Size() != 16 || HashSHA1.Size() != 20 {
		t.Fatal("wrong digest sizes")
	}
	if HashMD5.String() != "MD5" || HashSHA1.String() != "SHA-1" {
		t.Fatal("wrong names")
	}
	got := Digest(HashSHA1, []byte("ab"), []byte("c"))
	want := sha1.Sum([]byte("abc"))
	if !bytes.Equal(got, want[:]) {
		t.Fatal("Digest does not concatenate parts")
	}
}

func TestMACNull(t *testing.T) {
	if MACNull.String() != "null (NOP)" || MACNull.Size() != 16 {
		t.Fatal("MACNull metadata wrong")
	}
	out := MACNull.Compute([]byte("key"), []byte("data"))
	for _, b := range out {
		if b != 0 {
			t.Fatal("MACNull computed something")
		}
	}
	if !MACNull.Verify([]byte("k"), make([]byte, 16), []byte("anything")) {
		t.Fatal("MACNull rejected")
	}
}
