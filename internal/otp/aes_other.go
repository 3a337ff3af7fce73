//go:build !amd64

package otp

// haveAESNI is false off amd64: there is no pad kernel, and every
// Generator derives its pads through crypto/aes.
const haveAESNI = false

func encrypt8(xk *[roundKeyBytes]byte, dst0, dst1 *byte, lo, hi0, hi1 uint64) {
	panic("otp: no AES kernel on this architecture")
}

func encrypt4(xk *[roundKeyBytes]byte, dst *byte, lo, hi uint64) {
	panic("otp: no AES kernel on this architecture")
}
