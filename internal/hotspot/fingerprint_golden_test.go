package hotspot

import (
	"testing"

	"repro/internal/floorplan"
)

// TestFingerprintGolden pins the exact digests of representative configs.
// The fingerprint is the compiled-model cache key and the fleet router's
// ring key, so any change to the hashed byte stream moves every cached
// model and every ring placement; a deliberate change must bump the
// version tag and these digests together.
func TestFingerprintGolden(t *testing.T) {
	oil := OilConfig{Direction: LeftToRight, TargetRconv: 1.0}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"ev6-air", Config{Floorplan: floorplan.EV6(), Package: AirSink},
			"2a3952a17fc5a2ea25b5de6e0cdf97104be7cab70ef627c2e148662ff6efdac1"},
		{"ev6-oil-rconv1", Config{Floorplan: floorplan.EV6(), Package: OilSilicon, AmbientK: 318.15, Oil: oil},
			"4b7612e6d50a87e8445a9f0644b71026be48e63e8c219f3027e69cc8e3e7088c"},
		{"athlon-oil-secondary", Config{Floorplan: floorplan.Athlon(), Package: OilSilicon, AmbientK: 318.15, Oil: oil,
			Secondary: SecondaryPathConfig{Enabled: true}},
			"e002cc7a06639df3a22e30978b6183d74eaf570d6dd5daba9d4fb6998c1d81d5"},
		// The service's "grid:3x3" die (16×16 mm).
		{"grid3x3-oil", Config{Floorplan: floorplan.GridDie(16e-3, 16e-3, 3, 3), Package: OilSilicon},
			"5fae9802591a1e19d911453d7bc9021efc6f69c525223d29b10e1df2e4d06136"},
		{"ev6-air-reduced", Config{Floorplan: floorplan.EV6(), Package: AirSink, Reduced: ReducedConfig{Enabled: true, Order: 12}},
			"fb678df9fe9a56b9ff34d4ff4b4cc585120805a2c3cb0de6cb3aebfe70fe5051"},
	}
	for _, tc := range cases {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintAllocs bounds the fingerprint's allocations: it runs twice
// per served request (router route key, replica cache lookup), so its cost
// must not grow with the floorplan's block count.
func TestFingerprintAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ev6", Config{Floorplan: floorplan.EV6(), Package: OilSilicon}},
		{"grid32x32", Config{Floorplan: floorplan.GridDie(16e-3, 16e-3, 32, 32), Package: OilSilicon}},
	} {
		if got := testing.AllocsPerRun(50, func() { _ = tc.cfg.Fingerprint() }); got > 3 {
			t.Errorf("%s: Fingerprint allocates %.0f times per call, want <= 3", tc.name, got)
		}
	}
}
