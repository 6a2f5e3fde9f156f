//go:build !amd64

package cryptolib

// No Montgomery kernel on this architecture: big.Int.Exp is the only path.
const montBest = montNone

func montKernelFor(montKind, int) *montKernel { return nil }
