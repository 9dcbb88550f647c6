package uarch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestActivityGolden pins the timing model bit for bit: a SHA-256 over every
// ActivitySample (and the final cache and predictor statistics) of a
// 2M-cycle run of each preset on DefaultCPU. The digests were recorded before
// the cache storage was flattened; any change to replacement, stamps, the
// stream or the pipeline shows here.
func TestActivityGolden(t *testing.T) {
	const cycles, interval = 2_000_000, 20_000
	cases := []struct {
		name string
		w    Workload
		want string
	}{
		{"gcc", GCC(), "ecd41b6c4f2dc7215ecbb38f16bd1b85d7d9ced3fc017964c3612054ea53bcac"},
		{"mcf", MCF(), "929e978eb54a34e680b94bce05880d3cf11a5bfdca28c861b386ba86b1d670b6"},
		{"art", ART(), "612cc72a3a527e62ea4c8de5e261577d2c967d0d0dfadfd188b1c0f65811dd32"},
	}
	for _, tc := range cases {
		cpu := newCPU(t, tc.w, 11)
		samples, err := cpu.Run(cycles, interval)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf []byte
		for _, s := range samples {
			buf = binary.LittleEndian.AppendUint64(buf[:0], s.StartCycle)
			buf = binary.LittleEndian.AppendUint64(buf, s.Cycles)
			buf = binary.LittleEndian.AppendUint64(buf, s.Committed)
			for _, n := range s.Counts {
				buf = binary.LittleEndian.AppendUint64(buf, n)
			}
			h.Write(buf)
		}
		l1i, l1d, l2, bp := cpu.Stats()
		buf = buf[:0]
		for _, r := range []float64{l1i, l1d, l2, bp} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r))
		}
		h.Write(buf)
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: %d samples, digest %s, want %s", tc.name, len(samples), got, tc.want)
		}
	}
}

// TestNewCPUAllocs bounds the cost of building a CPU: every scenario grid
// cell builds one per workload phase, so the caches must not allocate per
// set.
func TestNewCPUAllocs(t *testing.T) {
	stream, err := NewStream(GCC(), 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewCPU(DefaultCPU(), stream); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("NewCPU(DefaultCPU()) makes %.0f allocations, want <= 16", allocs)
	}
}

func BenchmarkNewCPU(b *testing.B) {
	stream, err := NewStream(GCC(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCPU(DefaultCPU(), stream); err != nil {
			b.Fatal(err)
		}
	}
}
