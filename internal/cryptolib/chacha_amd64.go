package cryptolib

// useKernel is decided once, at init, by CPUID alone: AVX2 present and
// its register state OS-enabled. Nothing else selects the kernel.
var useKernel = cpuHasAVX2()

// chachaKeystream8 writes the eight keystream blocks for counters
// state[12] … state[12]+7 to out (chacha_amd64.s).
//
//go:noescape
func chachaKeystream8(state *[16]uint32, out *[512]byte)

func cpuHasAVX2() bool
