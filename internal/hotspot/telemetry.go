package hotspot

import "fmt"

// TelemetrySink consumes per-block temperature telemetry emitted by trace
// replays. Implementations must accept rows per series in non-decreasing
// time order; rows for different series may interleave freely. The tstore
// package's Writer satisfies this, as does any in-memory buffer a test
// supplies. The simulation layer depends only on this interface so the
// store's import graph stays one-directional (tstore never imports hotspot).
type TelemetrySink interface {
	Append(series string, tSeconds float64, valueC float64) error
}

// EmitTracePoints streams a replay's sampled block temperatures into sink,
// one series per block named "<prefix>/<block>" (or just the block name
// when prefix is empty). Points must all carry len(names) temperatures —
// the shape ReplayRows and ReplayBatchResults produce against the model the
// names came from. The first sink error aborts the emit and is returned
// with the offending series attached.
func EmitTracePoints(sink TelemetrySink, prefix string, names []string, pts []TracePoint) error {
	for i, p := range pts {
		if len(p.BlockC) != len(names) {
			return fmt.Errorf("hotspot: telemetry point %d has %d blocks, names has %d", i, len(p.BlockC), len(names))
		}
		for b, name := range names {
			series := name
			if prefix != "" {
				series = prefix + "/" + name
			}
			if err := sink.Append(series, p.Time, p.BlockC[b]); err != nil {
				return fmt.Errorf("hotspot: telemetry sink, series %q: %w", series, err)
			}
		}
	}
	return nil
}
