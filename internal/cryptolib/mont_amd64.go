package cryptolib

// montBest is decided once, at init, by CPUID alone: the IFMA kernel
// where the CPU has AVX-512 IFMA with its state OS-enabled (useIFMA, which
// also needs BMI2 for the kernel's scalar lane), else the MULX kernel
// where it has BMI2 (MULX) and ADX (ADCX, ADOX), else none. Nothing else
// selects a kernel.
var montBest = func() montKind {
	switch {
	case useIFMA:
		return montIFMA
	case cpuHasBMI2ADX():
		return montMULX
	}
	return montNone
}()

func cpuHasBMI2ADX() bool

// The Montgomery product and squaring for moduli of 8, 12 and 16 words
// (mont_amd64.s): z = x·y·R⁻¹ mod m and z = x²·R⁻¹ mod m, R = 2^(64n), for
// operands below m. z may alias an operand.

//go:noescape
func montMul8(z, x, y, m *montNat, k0 uint64)

//go:noescape
func montMul12(z, x, y, m *montNat, k0 uint64)

//go:noescape
func montMul16(z, x, y, m *montNat, k0 uint64)

//go:noescape
func montSqr8(z, x, m *montNat, k0 uint64)

//go:noescape
func montSqr12(z, x, m *montNat, k0 uint64)

//go:noescape
func montSqr16(z, x, m *montNat, k0 uint64)

// montSelect sets the first n words of z to tab[idx], reading every entry.
//
//go:noescape
func montSelect(z *montNat, tab *[16]montNat, n int, idx uint64)

// The IFMA kernel (mont_ifma_amd64.s): z = x·y·R⁻¹ mod m, below 2m, for
// operands below 2m, R = 2^(52·limbs), on one stream or on two, and the
// masked table read over all 24 limbs.

//go:noescape
func montMulIFMA(z, x, y, m *montNat, k0 uint64, limbs int)

//go:noescape
func montMulIFMA2(z, x, y, m *[2]montNat, k0 *[2]uint64, limbs int)

//go:noescape
func montSelectIFMA(z *montNat, tab *[16]montNat, idx uint64)

func mulxKernel(n int, mul montMulFunc, sqr montSqrFunc) montKernel {
	return montKernel{
		mul: mul, sqr: sqr,
		sel:   func(z *montNat, tab *[16]montNat, idx uint64) { montSelect(z, tab, n, idx) },
		radix: 64, limbs: n,
	}
}

func ifmaKernel(limbs int) montKernel {
	return montKernel{
		mul: func(z, x, y, m *montNat, k0 uint64) { montMulIFMA(z, x, y, m, k0, limbs) },
		sqr: func(z, x, m *montNat, k0 uint64) { montMulIFMA(z, x, x, m, k0, limbs) },
		mul2: func(z, x, y, m *[2]montNat, k0 *[2]uint64) {
			montMulIFMA2(z, x, y, m, k0, limbs)
		},
		sel:   montSelectIFMA,
		radix: 52, limbs: limbs,
	}
}

var (
	mulx8, mulx12, mulx16 = mulxKernel(8, montMul8, montSqr8), mulxKernel(12, montMul12, montSqr12), mulxKernel(16, montMul16, montSqr16)
	ifma10, ifma20        = ifmaKernel(10), ifmaKernel(20)
)

// montKernelFor returns the kernel for a modulus of n 64-bit words on
// kind, or nil for a width no kernel up to kind serves: IFMA serves 8
// words (10 limbs) and 16 (20 limbs), MULX 8, 12 and 16, so a 12-word
// modulus runs on MULX on an IFMA CPU too.
func montKernelFor(kind montKind, n int) *montKernel {
	if kind == montIFMA {
		switch n {
		case 8:
			return &ifma10
		case 16:
			return &ifma20
		}
	}
	if kind >= montMULX {
		switch n {
		case 8:
			return &mulx8
		case 12:
			return &mulx12
		case 16:
			return &mulx16
		}
	}
	return nil
}
