// Package bitutil provides the low-level bit manipulation primitives that the
// rest of the simulator is built on: Hamming distance and popcount over byte
// slices, fixed-width word extraction and insertion, bit-level rotation of a
// line (used by Horizontal Wear Leveling), and a small growable bit vector.
//
// All cache-line payloads in this repository are []byte in little-endian bit
// order: bit i of a line lives in byte i/8 at position i%8 (LSB first). Every
// package that touches raw cells uses the helpers here so that the bit
// numbering is defined in exactly one place.
//
// The kernels (PopCount, Hamming, XOR, Invert, WordsEqual) process eight
// bytes per step through unaligned little-endian uint64 loads; the compiler
// lowers binary.LittleEndian.Uint64 to a single load on little-endian
// targets. Each kernel keeps a byte-at-a-time reference implementation
// (popCountRef and friends) that the differential tests in bitutil_test.go
// check the fast path against on random lengths and alignments.
//
// Concurrency: every function is pure over its arguments and the package
// holds no state, so calls are safe from any number of goroutines as long
// as callers do not mutate a slice another goroutine is reading — the
// usual Go slice rule, not a restriction this package adds.
package bitutil

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// PopCount returns the number of set bits in b.
func PopCount(b []byte) int {
	n := 0
	i := 0
	for ; i+8 <= len(b); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(b); i++ {
		n += bits.OnesCount8(b[i])
	}
	return n
}

// popCountRef is the byte-loop reference implementation of PopCount.
func popCountRef(b []byte) int {
	n := 0
	for _, v := range b {
		n += bits.OnesCount8(v)
	}
	return n
}

// Hamming returns the Hamming distance between a and b.
// It panics if the slices have different lengths: comparing lines of
// different geometry is always a programming error in this code base.
func Hamming(a, b []byte) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bitutil: Hamming on mismatched lengths %d and %d", len(a), len(b)))
	}
	n := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(a); i++ {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// hammingRef is the byte-loop reference implementation of Hamming.
func hammingRef(a, b []byte) int {
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// HammingRange returns the Hamming distance between a[off:off+n] and
// b[off:off+n] where off and n are byte offsets.
func HammingRange(a, b []byte, off, n int) int {
	return Hamming(a[off:off+n], b[off:off+n])
}

// XOR writes a XOR b into dst. All three slices must have the same length;
// dst may alias a or b.
func XOR(dst, a, b []byte) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("bitutil: XOR on mismatched lengths %d, %d, %d", len(dst), len(a), len(b)))
	}
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// xorRef is the byte-loop reference implementation of XOR.
func xorRef(dst, a, b []byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// Invert writes the bitwise complement of src into dst (same length, may alias).
func Invert(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("bitutil: Invert on mismatched lengths %d and %d", len(dst), len(src)))
	}
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], ^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = ^src[i]
	}
}

// invertRef is the byte-loop reference implementation of Invert.
func invertRef(dst, src []byte) {
	for i := range dst {
		dst[i] = ^src[i]
	}
}

// GetBit returns bit i of b (little-endian bit order).
func GetBit(b []byte, i int) bool {
	return b[i>>3]&(1<<(uint(i)&7)) != 0
}

// SetBit sets bit i of b to v.
func SetBit(b []byte, i int, v bool) {
	if v {
		b[i>>3] |= 1 << (uint(i) & 7)
	} else {
		b[i>>3] &^= 1 << (uint(i) & 7)
	}
}

// Word returns the w-byte word at index idx of line (idx*w byte offset).
// The returned slice aliases line.
func Word(line []byte, w, idx int) []byte {
	return line[idx*w : (idx+1)*w]
}

// WordsEqual reports whether word idx (of width w bytes) is identical in a and b.
func WordsEqual(a, b []byte, w, idx int) bool {
	off := idx * w
	switch w {
	case 1:
		return a[off] == b[off]
	case 2:
		return binary.LittleEndian.Uint16(a[off:]) == binary.LittleEndian.Uint16(b[off:])
	case 4:
		return binary.LittleEndian.Uint32(a[off:]) == binary.LittleEndian.Uint32(b[off:])
	case 8:
		return binary.LittleEndian.Uint64(a[off:]) == binary.LittleEndian.Uint64(b[off:])
	}
	return wordsEqualRef(a, b, w, idx)
}

// wordsEqualRef is the byte-loop reference implementation of WordsEqual.
func wordsEqualRef(a, b []byte, w, idx int) bool {
	off := idx * w
	for i := 0; i < w; i++ {
		if a[off+i] != b[off+i] {
			return false
		}
	}
	return true
}

// CopyWord copies word idx (width w bytes) from src into dst.
func CopyWord(dst, src []byte, w, idx int) {
	copy(dst[idx*w:(idx+1)*w], src[idx*w:(idx+1)*w])
}

// RotateLeft returns b rotated left by k bits, treating b as a little-endian
// bit string of length 8*len(b): output bit (i+k) mod n == input bit i.
// k may be any integer (negative rotates right).
func RotateLeft(b []byte, k int) []byte {
	n := len(b) * 8
	out := make([]byte, len(b))
	if n == 0 {
		return out
	}
	k = ((k % n) + n) % n
	if k == 0 {
		copy(out, b)
		return out
	}
	for i := 0; i < n; i++ {
		if GetBit(b, i) {
			SetBit(out, (i+k)%n, true)
		}
	}
	return out
}

// RotateRight returns b rotated right by k bits (inverse of RotateLeft).
func RotateRight(b []byte, k int) []byte {
	return RotateLeft(b, -k)
}

// Clone returns a copy of b.
func Clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Equal reports whether a and b hold identical bytes.
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if binary.LittleEndian.Uint64(a[i:]) != binary.LittleEndian.Uint64(b[i:]) {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Vector is a fixed-size bit vector. The zero value is unusable; create one
// with NewVector.
type Vector struct {
	bits []byte
	n    int
}

// NewVector returns a Vector of n bits, all zero.
func NewVector(n int) *Vector {
	if n < 0 {
		panic("bitutil: NewVector with negative size")
	}
	return &Vector{bits: make([]byte, (n+7)/8), n: n}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Get returns bit i.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return GetBit(v.bits, i)
}

// Set sets bit i to val.
func (v *Vector) Set(i int, val bool) {
	v.check(i)
	SetBit(v.bits, i, val)
}

// SetAll sets every bit to val.
func (v *Vector) SetAll(val bool) {
	var fill byte
	if val {
		fill = 0xff
	}
	for i := range v.bits {
		v.bits[i] = fill
	}
	// Clear the padding bits past n so PopCount stays exact.
	if val && v.n%8 != 0 {
		v.bits[len(v.bits)-1] &= (1 << (uint(v.n) % 8)) - 1
	}
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int { return PopCount(v.bits) }

// Bytes returns the backing bytes (padding bits past Len are always zero).
// The returned slice aliases the vector.
func (v *Vector) Bytes() []byte { return v.bits }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitutil: index %d out of range [0,%d)", i, v.n))
	}
}
