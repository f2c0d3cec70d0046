package etc

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
)

// matrixDigest returns the SHA-256 of the ETC matrix's raw entries
// (little-endian IEEE-754 bits) in logical row order — job 0's entries in
// machine order, then job 1's, … — whatever the storage layout: the
// byte-identity witness of the generator's determinism contract.
func matrixDigest(in *Instance) [32]byte {
	h := sha256.New()
	var buf [4096]byte
	n := 0
	for i := 0; i < in.Jobs; i++ {
		for j := 0; j < in.Machs; j++ {
			binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(in.ETC[j*in.Jobs+i]))
			n += 8
			if n == len(buf) {
				h.Write(buf[:])
				n = 0
			}
		}
	}
	h.Write(buf[:n])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// isConsistent reports whether the matrix is consistent: the machine speed
// order is identical in every row.
func isConsistent(in *Instance) bool {
	if in.Jobs == 0 {
		return true
	}
	order := make([]int, in.Machs)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return in.At(0, order[a]) < in.At(0, order[b]) })
	for i := 1; i < in.Jobs; i++ {
		for k := 0; k+1 < len(order); k++ {
			if in.At(i, order[k]) > in.At(i, order[k+1]) {
				return false
			}
		}
	}
	return true
}
