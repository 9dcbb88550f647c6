package tstore

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

// TestConcurrentSweepWritersAndReaders is the race/stress battery: several
// goroutines run real hotspot.ReplayBatchResults replays and stream the results into
// one store through the telemetry sink, while readers hammer raw and
// downsampled queries, listings and stats, and a flusher forces segment
// churn. Run under -race this exercises the store-level series map, the
// per-series locks and the ReadAt-based query path against concurrent
// appends. A final pass verifies every writer's data survived verbatim.
func TestConcurrentSweepWritersAndReaders(t *testing.T) {
	fp := floorplan.EV6()
	model, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.AirSink,
		Air:       hotspot.AirSinkConfig{RConvec: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.PulseTrain(fp.Names(), "IntReg", 4, 2e-3, 3e-3, 0.5e-3, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := mustOpen(t, t.TempDir(), Options{FlushRows: 128, Granularities: []int64{1_000_000}})
	names := fp.Names()

	const writers, iters = 3, 4
	errs := make(chan error, writers+3)
	refs := make([][][]hotspot.TracePoint, writers)

	var writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		refs[w] = make([][]hotspot.TracePoint, iters)
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for it := 0; it < iters; it++ {
				pts, jerrs := hotspot.ReplayBatchResults([]hotspot.ReplayJob{{Model: model, Rows: tr.Reader()}}, 1)
				if jerrs[0] != nil {
					errs <- jerrs[0]
					return
				}
				refs[w][it] = pts[0]
				run := fmt.Sprintf("w%d/i%d", w, it)
				if err := hotspot.EmitTracePoints(NewWriter(st, ""), run, names, pts[0]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	var auxWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, name := range st.SeriesNames() {
					if _, err := st.Query(name, 0, 1<<62, 0); err != nil {
						errs <- err
						return
					}
					if _, err := st.Query(name, 0, 1<<62, 1_000_000); err != nil {
						errs <- err
						return
					}
					if _, err := st.Query(name, 0, 1<<62, 777); err != nil {
						errs <- err
						return
					}
				}
				st.Stats()
				st.Series()
			}
		}()
	}
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := st.Flush(); err != nil {
				errs <- err
				return
			}
		}
	}()

	writeWG.Wait()
	close(done)
	auxWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Everything written must read back exactly.
	for w := 0; w < writers; w++ {
		for it := 0; it < iters; it++ {
			run := fmt.Sprintf("w%d/i%d", w, it)
			pts := refs[w][it]
			for b, name := range names {
				res, err := st.Query(run+"/"+name, 0, 1<<62, 0)
				if err != nil {
					t.Fatalf("%s/%s: %v", run, name, err)
				}
				if len(res.Rows) != len(pts) {
					t.Fatalf("%s/%s: %d rows, want %d", run, name, len(res.Rows), len(pts))
				}
				for i, p := range pts {
					if res.Rows[i].T != Nanos(p.Time) || res.Rows[i].V != p.BlockC[b] {
						t.Fatalf("%s/%s row %d: got %+v want t=%d v=%v",
							run, name, i, res.Rows[i], Nanos(p.Time), p.BlockC[b])
					}
				}
			}
		}
	}
}
