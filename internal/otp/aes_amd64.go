package otp

// haveAESNI reports whether the CPU implements the AES-NI instructions the
// pad kernel is built from (CPUID leaf 1, ECX bit 25). Without them every
// Generator derives its pads through crypto/aes.
var haveAESNI = func() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<25) != 0
}()

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// encrypt8 encrypts two runs of four blocks under the round keys xk, the
// eight AESENC chains interleaved round by round so they overlap in the
// pipeline. Block j of the run written to dst0 (64 bytes) is
// AES(lo ‖ hi0+j), and block j of the run written to dst1 is
// AES(lo ‖ hi1+j), each tweak half little-endian.
//
//go:noescape
func encrypt8(xk *[roundKeyBytes]byte, dst0, dst1 *byte, lo, hi0, hi1 uint64)

// encrypt4 is encrypt8 over one run: block j at dst is AES(lo ‖ hi+j).
//
//go:noescape
func encrypt4(xk *[roundKeyBytes]byte, dst *byte, lo, hi uint64)
