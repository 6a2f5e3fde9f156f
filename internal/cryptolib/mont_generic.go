//go:build !amd64

package cryptolib

// No Montgomery kernel on this architecture: big.Int.Exp is the only path.
const useMont = false

func montKernel(int) (montMulFunc, montSqrFunc) { return nil, nil }

func montSelect(*montNat, *[16]montNat, int, uint64) {
	panic("cryptolib: no Montgomery kernel on this architecture")
}
