package cryptolib

// The kernels are decided once, at init, by CPUID alone. The keystream
// pass is the widest the CPU has with its register state OS-enabled:
// AVX-512F+VL, then AVX2, then none (the Go block function). Poly1305
// runs eight lanes on AVX-512 IFMA (its scalar tail is MULX, so BMI2
// too) and the Go loop everywhere else. Nothing else selects a kernel.
var bestKeystream, useIFMA = cpuKernels()

func cpuKernels() (keystreamKernel, bool) {
	const avx512F, avx512IFMA, avx512VL = 1 << 16, 1 << 21, 1 << 31
	f := cpuAVX512()
	avx512 := f&(avx512F|avx512VL) == avx512F|avx512VL
	switch {
	case avx512:
		return keystreamAVX512, f&avx512IFMA != 0 && cpuHasBMI2ADX()
	case cpuHasAVX2():
		return keystreamAVX2, false
	}
	return keystreamGo, false
}

// chachaKeystream8 writes the eight keystream blocks for counters
// state[12] … state[12]+7 to out (chacha_amd64.s, AVX2).
//
//go:noescape
func chachaKeystream8(state *[16]uint32, out *[512]byte)

// chachaKeystream8VL is chachaKeystream8 on AVX-512VL.
//
//go:noescape
func chachaKeystream8VL(state *[16]uint32, out *[512]byte)

// chachaKeystream16 writes the sixteen keystream blocks for counters
// state[12] … state[12]+15 to out (AVX-512F).
//
//go:noescape
func chachaKeystream16(state *[16]uint32, out *[1024]byte)

// polyBlocksIFMA absorbs the full 16-byte blocks of m into the Poly1305
// accumulator h under the clamped key r (poly1305_amd64.s).
//
//go:noescape
func polyBlocksIFMA(h *[3]uint64, r *[2]uint64, m []byte)

func cpuHasAVX2() bool

func cpuAVX512() uint32
