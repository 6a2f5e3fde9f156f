//go:build !amd64

package cryptolib

// No keystream kernel on this architecture: the Go block function in
// chacha20poly1305.go is the only path.
const useKernel = false

func chachaKeystream8(*[16]uint32, *[512]byte) {
	panic("cryptolib: no ChaCha20 keystream kernel on this architecture")
}
