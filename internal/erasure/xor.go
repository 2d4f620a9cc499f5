package erasure

import "fmt"

// XOR is the single-parity bit-wise XOR code the paper cites as the cheap
// alternative to Reed–Solomon: one parity shard, tolerating exactly one
// erasure per group. Encoding is a plain XOR reduction, roughly an order of
// magnitude cheaper per byte than RS with large m. No checkpoint level
// uses it; it is the benchmarks' per-parity reference for RS encode.
type XOR struct {
	k int
}

// NewXOR returns a single-parity codec over k data shards.
func NewXOR(k int) (*XOR, error) {
	if k <= 0 {
		return nil, fmt.Errorf("erasure: XOR group size %d must be positive", k)
	}
	return &XOR{k: k}, nil
}

// Encode writes the XOR of all data shards into parity.
func (x *XOR) Encode(data [][]byte, parity []byte) error {
	if len(data) != x.k {
		return fmt.Errorf("erasure: got %d shards, want %d", len(data), x.k)
	}
	for i := range parity {
		parity[i] = 0
	}
	for _, d := range data {
		if len(d) != len(parity) {
			return fmt.Errorf("erasure: shard size %d != parity size %d", len(d), len(parity))
		}
		xorSlice(d, parity)
	}
	return nil
}
