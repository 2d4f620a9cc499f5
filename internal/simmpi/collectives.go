package simmpi

import (
	"encoding/binary"
	"fmt"
)

// Bcast distributes root's payload to every rank using a binomial tree and
// returns each rank's copy.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	seq := c.seq
	c.seq++
	n := c.size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("simmpi: bcast root %d out of range 0..%d", root, n-1)
	}
	// Work in a rotated rank space where root is 0: receive from the parent
	// obtained by clearing our lowest set bit, then forward to children at
	// every bit position below it.
	vrank := (c.rank - root + n) % n
	var buf []byte
	mask := 1
	if vrank == 0 {
		buf = append([]byte(nil), data...)
		for mask < n {
			mask <<= 1
		}
	} else {
		for mask < n {
			if vrank&mask != 0 {
				parent := ((vrank &^ mask) + root) % n
				b, err := c.proc.recv(parent, c.itag(seq, 0))
				if err != nil {
					return nil, err
				}
				buf = b
				break
			}
			mask <<= 1
		}
	}
	for mask >>= 1; mask >= 1; mask >>= 1 {
		child := vrank | mask
		if child != vrank && child < n {
			dst := (child + root) % n
			if err := c.proc.send(dst, c.itag(seq, 0), buf); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// Gather collects every rank's payload at root; result[i] is rank i's
// payload at root, nil at other ranks.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	seq := c.seq
	c.seq++
	n := c.size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("simmpi: gather root %d out of range 0..%d", root, n-1)
	}
	if c.rank != root {
		if err := c.proc.send(root, c.itag(seq, c.rank), data); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([][]byte, n)
	out[root] = append([]byte(nil), data...)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		b, err := c.proc.recv(r, c.itag(seq, r))
		if err != nil {
			return nil, err
		}
		out[r] = b
	}
	return out, nil
}

// Allgather collects every rank's payload at every rank using recursive
// doubling: in round k each rank exchanges its accumulated block set with
// the partner rank^2^k. This is the MPICH2 algorithm whose power-of-two
// partner pattern is visible as diagonals in the paper's Figure 5b.
// For non-power-of-two sizes it falls back to gather+bcast.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	n := c.size()
	if n&(n-1) != 0 {
		return c.allgatherFallback(data)
	}
	seq := c.seq
	c.seq++
	// blocks[i] holds rank i's payload once known.
	blocks := make([][]byte, n)
	blocks[c.rank] = append([]byte(nil), data...)
	have := []int{c.rank} // ranks whose blocks we hold, in acquisition order
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		partner := c.rank ^ dist
		payload := packBlocks(blocks, have)
		if err := c.proc.send(partner, c.itag(seq, round), payload); err != nil {
			return nil, err
		}
		b, err := c.proc.recv(partner, c.itag(seq, round))
		if err != nil {
			return nil, err
		}
		got, err := unpackBlocks(b)
		if err != nil {
			return nil, err
		}
		for r, blk := range got {
			if blocks[r] == nil {
				blocks[r] = blk
				have = append(have, r)
			}
		}
	}
	return blocks, nil
}

func (c *Comm) allgatherFallback(data []byte) ([][]byte, error) {
	got, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	payload := []byte(nil)
	if c.rank == 0 {
		payload = packBlocks(got, seqInts(len(got)))
	}
	b, err := c.Bcast(0, payload)
	if err != nil {
		return nil, err
	}
	blocks, err := unpackBlocks(b)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.size())
	for r, blk := range blocks {
		out[r] = blk
	}
	return out, nil
}

// packBlocks serializes the listed (rank, block) pairs.
func packBlocks(blocks [][]byte, ranks []int) []byte {
	size := 4
	for _, r := range ranks {
		size += 8 + len(blocks[r])
	}
	out := make([]byte, 0, size)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(ranks)))
	out = append(out, hdr[:4]...)
	for _, r := range ranks {
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(r))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(blocks[r])))
		out = append(out, hdr[:8]...)
		out = append(out, blocks[r]...)
	}
	return out
}

func unpackBlocks(b []byte) (map[int][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("simmpi: truncated block set (%d bytes)", len(b))
	}
	count := int(binary.LittleEndian.Uint32(b[:4]))
	b = b[4:]
	out := make(map[int][]byte, count)
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return nil, fmt.Errorf("simmpi: truncated block header")
		}
		r := int(binary.LittleEndian.Uint32(b[0:4]))
		sz := int(binary.LittleEndian.Uint32(b[4:8]))
		b = b[8:]
		if len(b) < sz {
			return nil, fmt.Errorf("simmpi: truncated block body")
		}
		out[r] = append([]byte(nil), b[:sz]...)
		b = b[sz:]
	}
	return out, nil
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
