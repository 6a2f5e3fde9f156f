//go:build !amd64

package cryptolib

// No kernels on this architecture: the Go block function and Poly1305
// loop in chacha20poly1305.go are the only path.
const (
	bestKeystream = keystreamGo
	useIFMA       = false
)

func chachaKeystream8(*[16]uint32, *[512]byte) {
	panic("cryptolib: no ChaCha20 keystream kernel on this architecture")
}

func chachaKeystream8VL(*[16]uint32, *[512]byte) {
	panic("cryptolib: no ChaCha20 keystream kernel on this architecture")
}

func chachaKeystream16(*[16]uint32, *[1024]byte) {
	panic("cryptolib: no ChaCha20 keystream kernel on this architecture")
}

func polyBlocksIFMA(*[3]uint64, *[2]uint64, []byte) {
	panic("cryptolib: no Poly1305 kernel on this architecture")
}
