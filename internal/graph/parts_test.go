package graph

// The tests' readers of a dense assignment. The clustering layer keeps its
// own over 32-bit cluster ids; the partitioner itself never needs them.

// NumParts returns the number of distinct parts in a dense assignment.
func NumParts(part []int) int {
	max := -1
	for _, p := range part {
		if p > max {
			max = p
		}
	}
	return max + 1
}

// PartSizes returns the size of each part of a dense assignment.
func PartSizes(part []int) []int {
	sizes := make([]int, NumParts(part))
	for _, p := range part {
		sizes[p]++
	}
	return sizes
}

// Members returns, for each part id, the sorted vertices assigned to it.
// The lists are carved from one slab sized by PartSizes (an empty part stays
// nil), each with its capacity capped at its own size.
func Members(part []int) [][]int {
	sizes := PartSizes(part)
	out := make([][]int, len(sizes))
	slab := make([]int, len(part))
	off := 0
	for p, sz := range sizes {
		if sz > 0 {
			out[p] = slab[off : off : off+sz]
			off += sz
		}
	}
	for v, p := range part {
		out[p] = append(out[p], v)
	}
	return out
}
