package cryptolib

import (
	"bytes"
	"math/big"
	"os"
	"runtime"
	"testing"
)

// TestKernelSelection: on a CPU that reports AVX-512F, VL and IFMA with
// their state OS-enabled, the 512- and 1024-bit contexts are on the IFMA
// kernel, so a silent fallback to MULX or to math/big fails here rather
// than only slowing the benchmarks. Elsewhere it logs the kernel that ran
// and skips, naming the CPU.
func TestKernelSelection(t *testing.T) {
	const avx512F, avx512IFMA, avx512VL = 1 << 16, 1 << 21, 1 << 31
	want := uint32(avx512F | avx512IFMA | avx512VL)
	for _, m := range []*big.Int{TestGroup.P, Oakley2.P} {
		mm := newMontModulus(m)
		kernel := "math/big"
		if mm != nil {
			kernel = map[uint]string{52: "ifma", 64: "mulx"}[mm.k.radix]
		}
		t.Logf("%d-bit modulus: %s kernel", m.BitLen(), kernel)
		if cpuAVX512()&want != want {
			continue
		}
		if kernel != "ifma" {
			t.Errorf("%d-bit modulus on %s, want ifma: the CPU reports AVX-512F, VL and IFMA", m.BitLen(), kernel)
		}
	}
	if cpuAVX512()&want != want {
		t.Skipf("no AVX-512 IFMA on %s", cpuName())
	}
}

// cpuName is the model name /proc/cpuinfo gives, or the architecture.
func cpuName() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
				return string(bytes.TrimSpace(v))
			}
		}
	}
	return runtime.GOARCH
}
