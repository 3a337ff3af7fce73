package otp

// The AES-128 key schedule of FIPS-197 §5.2, in pure Go. The amd64 pad
// kernel takes its eleven round keys from here: expanded once per
// Generator, laid out as the 176-byte stream w[0] ‖ w[1] ‖ … ‖ w[43] with
// each word's bytes in FIPS order, which is exactly the byte order an
// AESENC round-key operand expects.

// roundKeyBytes is the size of an expanded AES-128 key: 11 round keys of
// one block each.
const roundKeyBytes = 11 * BlockSize

// sbox is the AES S-box (FIPS-197 Figure 7), computed at start-up rather
// than spelled out: walk the multiplicative group of GF(2^8) with the
// generator 3 and its inverse in lockstep, so q = p^-1 at every step, and
// apply the affine map to q.
var sbox = func() (s [256]byte) {
	rotl := func(x byte, k uint) byte { return x<<k | x>>(8-k) }
	p, q := byte(1), byte(1)
	for {
		// p *= 3
		p ^= p<<1 ^ byte(int8(p)>>7)&0x1b
		// q /= 3
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		s[p] = q ^ rotl(q, 1) ^ rotl(q, 2) ^ rotl(q, 3) ^ rotl(q, 4) ^ 0x63
		if p == 1 {
			break
		}
	}
	s[0] = 0x63 // 0 has no inverse; the affine map of 0
	return s
}()

// expandKey writes the FIPS-197 key expansion of a 16-byte key into xk.
func expandKey(xk *[roundKeyBytes]byte, key []byte) {
	copy(xk[:BlockSize], key)
	rcon := byte(1)
	for i := BlockSize; i < roundKeyBytes; i += 4 {
		t0, t1, t2, t3 := xk[i-4], xk[i-3], xk[i-2], xk[i-1]
		if i%BlockSize == 0 {
			// SubWord(RotWord(w[i-1])) ^ Rcon[i/4]
			t0, t1, t2, t3 = sbox[t1]^rcon, sbox[t2], sbox[t3], sbox[t0]
			rcon = rcon<<1 ^ byte(int8(rcon)>>7)&0x1b
		}
		xk[i] = xk[i-BlockSize] ^ t0
		xk[i+1] = xk[i+1-BlockSize] ^ t1
		xk[i+2] = xk[i+2-BlockSize] ^ t2
		xk[i+3] = xk[i+3-BlockSize] ^ t3
	}
}
