package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// TestFactorGolden pins the bits of the numeric factorization: a SHA-256
// over the little-endian float64 bits of the panel values, the pivots, their
// inverses and both compressed views, for grid factors from N=64 up to the
// N=16384 of the refactorization benchmark. Any change to assembly order,
// update order, tiling or the dense panel kernel shows here, at any
// GOMAXPROCS and under -race.
func TestFactorGolden(t *testing.T) {
	for _, c := range []struct {
		nx   int
		want string
	}{
		{8, "4ba93bb839e67c51725b46f2dc05c4c5d402607d55ffd598d584b2eefd35d522"},
		{48, "14b6def571944d293053e02dcb92de3205fbb72afe1bf6da6f98c4ca27a822f9"},
		{96, "b7d1fce07d75f02c8a5c7a919b9c4857e32859429818dee9dc68f8401077f18b"},
		{128, "79fd4b1b1bd39d23c404b0300f1a5838c5174b53efa7fc7c8abd7490a83a0ca5"},
	} {
		t.Run(fmt.Sprintf("%dx%d", c.nx, c.nx), func(t *testing.T) {
			n, entries := gridEntries(c.nx, c.nx)
			m := NewCSR(n, entries)
			f, err := factorSupernodal(m, analyzeCholesky(m))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [8]byte
			for _, vs := range [][]float64{f.vals, f.d, f.invD, f.comp.cvals, f.comp.rvals} {
				for _, v := range vs {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("factor digest %s, want %s", got, c.want)
			}
		})
	}
}
