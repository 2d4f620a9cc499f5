//go:build !amd64 || purego

package erasure

// withTableKernel runs f; this build has no other kernel to turn off.
func withTableKernel(f func()) { f() }
