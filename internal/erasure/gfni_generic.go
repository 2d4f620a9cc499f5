//go:build !amd64 || purego

package erasure

// No vector kernel on this build: the helpers report nothing handled and
// every byte takes the table kernel of tables.go.

const useVec = false

func vecMul(c byte, src, dst []byte, xor bool) int { return 0 }

func (r *RS) encodeVec(data, parity [][]byte) bool { return false }
