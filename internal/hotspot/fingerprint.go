package hotspot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/materials"
)

// fingerprintWriter serializes model-defining values with a stable,
// platform-independent encoding (IEEE-754 bit patterns, length-prefixed
// strings) into one byte slice that is hashed once.
type fingerprintWriter struct {
	b []byte
}

func (w *fingerprintWriter) f64(vs ...float64) {
	for _, v := range vs {
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
	}
}

func (w *fingerprintWriter) str(s string) {
	w.b = binary.LittleEndian.AppendUint64(w.b, uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *fingerprintWriter) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *fingerprintWriter) bool(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *fingerprintWriter) fluid(f materials.Fluid) {
	w.str(f.Name)
	w.f64(f.Conductivity, f.Density, f.SpecificHeat, f.KinViscosity)
}

// fingerprintFixedBytes bounds the encoding of everything but the block
// list and the two coolant names (about 360 bytes today).
const fingerprintFixedBytes = 512

// Fingerprint returns a stable hex digest of everything that determines the
// compiled thermal model: the floorplan geometry, the (defaulted) package
// configuration, and the material properties that enter through the config
// (coolant fluids). Two configs with equal fingerprints build bit-identical
// models, so the fingerprint is the cache key used by the simulation
// service's compiled-model cache. Solid material constants are compiled into
// the binary; the leading version tag must be bumped if they ever change.
func (cfg Config) Fingerprint() string {
	c := cfg.Defaulted()
	m := c.Micro.defaulted()
	fp := c.Floorplan
	// Size the buffer once: this runs on every warm request (router route
	// key and replica cache key), and a large floorplan is thousands of
	// fields.
	size := fingerprintFixedBytes + len(c.Oil.Fluid.Name) + len(m.Coolant.Name)
	if fp != nil {
		for _, b := range fp.Blocks {
			size += 5*8 + len(b.Name)
		}
	}
	w := &fingerprintWriter{b: make([]byte, 0, size)}
	w.str("hotspot-model-v2")

	if fp == nil {
		w.u64(0)
	} else {
		w.u64(uint64(fp.N()))
		for _, b := range fp.Blocks {
			w.str(b.Name)
			w.f64(b.Width, b.Height, b.X, b.Y)
		}
	}
	w.f64(c.DieThickness, c.AmbientK, c.LateralConstriction)
	w.u64(uint64(c.Package))

	a := c.Air
	w.f64(a.TIMThickness, a.SpreaderSide, a.SpreaderThickness,
		a.SinkSide, a.SinkThickness, a.RConvec, a.CConvec)

	o := c.Oil
	w.fluid(o.Fluid)
	w.f64(o.Velocity, o.TargetRconv)
	w.u64(uint64(o.Direction))
	w.bool(o.DisableBoundaryCapacitance)

	w.fluid(m.Coolant)
	w.f64(m.ChannelWidth, m.ChannelDepth, m.WallWidth, m.Nu, m.FinEfficiency)

	s := c.Secondary
	w.bool(s.Enabled)
	w.f64(s.InterconnectThickness, s.C4Thickness, s.SubstrateThickness,
		s.SolderThickness, s.PCBThickness, s.SubstrateSide, s.PCBSide, s.BacksideRAir)

	// The reduction basis is part of the compiled model: the same physical
	// config at a different order (or unreduced) factors differently, so it
	// must key the factor cache separately.
	w.bool(c.Reduced.Enabled)
	w.u64(uint64(c.Reduced.Order))

	sum := sha256.Sum256(w.b)
	return hex.EncodeToString(sum[:])
}

// Fingerprint returns the fingerprint of the (defaulted) configuration this
// model was built from.
func (m *Model) Fingerprint() string { return m.cfg.Fingerprint() }
