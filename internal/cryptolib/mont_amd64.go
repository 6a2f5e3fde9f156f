package cryptolib

// useMont is decided once, at init, by CPUID alone: BMI2 (MULX) and ADX
// (ADCX, ADOX) present. Nothing else selects the kernel.
var useMont = cpuHasBMI2ADX()

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

// montKernel returns the product and squaring for a modulus of n words,
// or nils for a width the kernel does not serve.
func montKernel(n int) (montMulFunc, montSqrFunc) {
	switch n {
	case 8:
		return montMul8, montSqr8
	case 12:
		return montMul12, montSqr12
	case 16:
		return montMul16, montSqr16
	}
	return nil, nil
}
