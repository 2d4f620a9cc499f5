package erasure

import (
	"encoding/binary"
	"sync"
)

// The multiply kernels, in two tiers.
//
// The table kernel in this file is the portable path and the differential
// oracle: 8-bit tables (gfMulTable, always resident) for one-shot decode
// plans, tails and the small-row matrix algebra; 16-bit double tables
// (mul16, built lazily per coefficient) for the long-lived parity plans.
//
// On amd64 with GFNI and AVX2 (checked once at init, gfni_amd64.go) the
// whole 32-byte blocks of every multiply go to VGF2P8MULB instead: vecMul
// and RS.encodeVec report what they handled and the loops here finish the
// rest — tails under 32 bytes — from the 8-bit tables, so no 16-bit table
// is ever built. Without GFNI, on any other architecture, or under the
// purego build tag (the only way to force it), those helpers handle nothing
// and this file is the whole kernel. Both tiers produce identical bytes.

// Kernel names the tier this process multiplies with: "gfni-avx2" or
// "table". For ledger rows and timing notes that must say what they measured.
func Kernel() string {
	if useVec {
		return "gfni-avx2"
	}
	return "table"
}

// gfMulTable[c][x] = c·x over GF(2^8). 64 KiB total: each row is a 256-byte
// lookup table that turns the log/exp multiply of the inner coding loop into
// a single L1-resident load per byte. Populated from gfExp/gfLog by
// initMulTable, which gf256.go's init calls after building the log tables.
var gfMulTable [256][256]byte

func initMulTable() {
	for c := 1; c < 256; c++ {
		logC := int(gfLog[c])
		row := &gfMulTable[c]
		for x := 1; x < 256; x++ {
			row[x] = gfExp[logC+int(gfLog[x])]
		}
	}
}

// mulRow returns the 256-entry multiplication table of coefficient c.
func mulRow(c byte) *[256]byte { return &gfMulTable[c] }

// mul16 caches the 16-bit double tables: mul16[c][x] holds the two products
// c·(x&0xff) | c·(x>>8)<<8, so one L2-resident load multiplies two source
// bytes at once — half the table traffic of the byte-wise kernel, which is
// the bottleneck on a single core. Tables are 128 KiB each and are built
// lazily, once per coefficient per process, under mul16Mu; the hot loops
// only ever touch pointers handed out at plan-build time, so they run
// lock-free.
var (
	mul16Mu sync.Mutex
	mul16   [256]*[65536]uint16
)

// mulRow16 returns (building if needed) the 16-bit double table of c.
func mulRow16(c byte) *[65536]uint16 {
	mul16Mu.Lock()
	defer mul16Mu.Unlock()
	if t := mul16[c]; t != nil {
		return t
	}
	row := &gfMulTable[c]
	t := new([65536]uint16)
	for hi := 0; hi < 256; hi++ {
		h := uint16(row[hi]) << 8
		base := hi << 8
		for lo := 0; lo < 256; lo++ {
			t[base|lo] = h | uint16(row[lo])
		}
	}
	mul16[c] = t
	return t
}

// rowPlan is one precompiled term of a matrix-row · shards product: the
// coefficient plus its multiplication tables. Parity plans are built once
// per codec (NewRS) and a decode plans each term as it goes, so the hot
// loop never touches gfLog or the table-build lock.
type rowPlan struct {
	c     byte
	tbl   *[256]byte
	tbl16 *[65536]uint16
}

// makePlan compiles one matrix row into per-coefficient table plans with
// the 16-bit double tables — for long-lived plans (the parity rows compiled
// once in NewRS), where the one-time 128 KiB build amortizes over every
// encode. Coefficients 0 and 1 need no tables (skip and XOR fast paths).
// Where the vector kernel runs nothing would read the 16-bit tables (the
// table loops see tails under 32 bytes only), so none are built.
func makePlan(coeffs []byte) []rowPlan {
	plan := makePlan8(coeffs)
	if !useVec {
		for i, c := range coeffs {
			if c > 1 {
				plan[i].tbl16 = mulRow16(c)
			}
		}
	}
	return plan
}

// makePlan8 compiles a one-shot plan using only the always-resident 8-bit
// tables. Decode matrices have data-dependent coefficients, so building
// (and permanently caching) 16-bit tables for them would cost a 64Ki-entry
// build per fresh coefficient and grow process memory without bound; the
// word-packed 8-bit kernel needs neither.
func makePlan8(coeffs []byte) []rowPlan {
	plan := make([]rowPlan, len(coeffs))
	for i, c := range coeffs {
		plan[i].c = c
		if c > 1 {
			plan[i].tbl = mulRow(c)
		}
	}
	return plan
}

// encodeRow computes out = Σ plan[d].c · shards[d], overwriting out. The
// first nonzero term is assigned rather than accumulated, which saves the
// zeroing pass over out that the log/exp kernel needed. c == 1 terms take
// the 64-bit-word XOR/copy fast path; other coefficients run the packed
// 16-bit table kernel.
func encodeRow(plan []rowPlan, shards [][]byte, out []byte) {
	first := true
	for d := range plan {
		first = mulTerm(&plan[d], shards[d], out, first)
	}
	if first {
		clear(out)
	}
}

// mulTerm adds the term p.c · src of a row product into out, assigning it
// when first is set, and reports whether out is still unwritten.
func mulTerm(p *rowPlan, src, out []byte, first bool) bool {
	switch {
	case p.c == 0:
		return first
	case first && p.c == 1:
		copy(out, src)
	case first:
		mulTabAssign(p, src, out)
	case p.c == 1:
		xorWords(src, out)
	default:
		mulTabXor(p, src, out)
	}
	return false
}

// mulTab16 computes one 64-bit word of table products: byte j of the result
// is c·(byte j of s). The four 16-bit lookups replace eight byte lookups,
// halving load-port traffic — the dominant cost of the scalar kernel.
func mulTab16(t *[65536]uint16, s uint64) uint64 {
	return uint64(t[uint16(s)]) |
		uint64(t[uint16(s>>16)])<<16 |
		uint64(t[uint16(s>>32)])<<32 |
		uint64(t[uint16(s>>48)])<<48
}

// mulTab8 is the 8-bit-table word kernel used by one-shot (decode) plans:
// eight byte lookups packed into one word, still one source load and one
// destination store per eight bytes.
func mulTab8(t *[256]byte, s uint64) uint64 {
	return uint64(t[byte(s)]) |
		uint64(t[byte(s>>8)])<<8 |
		uint64(t[byte(s>>16)])<<16 |
		uint64(t[byte(s>>24)])<<24 |
		uint64(t[byte(s>>32)])<<32 |
		uint64(t[byte(s>>40)])<<40 |
		uint64(t[byte(s>>48)])<<48 |
		uint64(t[byte(s>>56)])<<56
}

// mulTabAssign computes dst[i] = c·src[i]: whole 32-byte blocks on the
// vector kernel where there is one (vecMul handles nothing on the portable
// build), the rest on the tables, 16 bytes per iteration.
func mulTabAssign(p *rowPlan, src, dst []byte) {
	dst = dst[:len(src)]
	i := vecMul(p.c, src, dst, false)
	if t16 := p.tbl16; t16 != nil {
		for ; i+16 <= len(src); i += 16 {
			v0 := mulTab16(t16, binary.LittleEndian.Uint64(src[i:]))
			v1 := mulTab16(t16, binary.LittleEndian.Uint64(src[i+8:]))
			binary.LittleEndian.PutUint64(dst[i:], v0)
			binary.LittleEndian.PutUint64(dst[i+8:], v1)
		}
	} else {
		for ; i+8 <= len(src); i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], mulTab8(p.tbl, binary.LittleEndian.Uint64(src[i:])))
		}
	}
	for ; i < len(src); i++ {
		dst[i] = p.tbl[src[i]]
	}
}

// mulTabXor computes dst[i] ^= c·src[i], split like mulTabAssign.
func mulTabXor(p *rowPlan, src, dst []byte) {
	dst = dst[:len(src)]
	i := vecMul(p.c, src, dst, true)
	if t16 := p.tbl16; t16 != nil {
		for ; i+16 <= len(src); i += 16 {
			v0 := mulTab16(t16, binary.LittleEndian.Uint64(src[i:]))
			v1 := mulTab16(t16, binary.LittleEndian.Uint64(src[i+8:]))
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v0)
			binary.LittleEndian.PutUint64(dst[i+8:], binary.LittleEndian.Uint64(dst[i+8:])^v1)
		}
	} else {
		for ; i+8 <= len(src); i += 8 {
			v := mulTab8(p.tbl, binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
		}
	}
	for ; i < len(src); i++ {
		dst[i] ^= p.tbl[src[i]]
	}
}

// xorWords computes dst ^= src 8 bytes at a time, with a byte-wise tail for
// non-word-aligned lengths. len(src) must not exceed len(dst). The vector
// kernel takes the whole 32-byte blocks as a multiply by 1, so XOR parity
// is never slower per byte than the Reed–Solomon multiply.
func xorWords(src, dst []byte) {
	i := vecMul(1, src, dst, true)
	for ; i+8 <= len(src); i += 8 {
		v := binary.LittleEndian.Uint64(src[i:]) ^ binary.LittleEndian.Uint64(dst[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	for ; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}
