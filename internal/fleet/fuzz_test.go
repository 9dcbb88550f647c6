package fleet

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

var fuzzPaths = []string{"/v1/steady", "/v1/invert", "/v1/sweep", "/v1/transient"}

// FuzzRouteKey feeds arbitrary solve-request bodies through the router's
// body parsing: routeKey and hedgeEligible never panic, and the route key is
// non-empty and a pure function of the request.
func FuzzRouteKey(f *testing.F) {
	spec := steadySpec("grid:3x3")
	steady, _ := json.Marshal(service.SteadyRequest{Model: spec, Power: map[string]float64{"c0_0": 12}})
	sweep, _ := json.Marshal(map[string]any{"scenarios": []map[string]any{{"model": spec}}})
	pure, _ := json.Marshal(map[string]any{"model": spec})
	persist, _ := json.Marshal(map[string]any{"model": spec, "persist": "run-1"})
	transient, _ := json.Marshal(map[string]any{
		"model":   spec,
		"trace":   map[string]any{"names": []string{"c0_0"}, "interval": 0.01, "rows": [][]float64{{1}, {1}}},
		"persist": "run-x",
	})
	for p := range fuzzPaths {
		for _, body := range [][]byte{steady, sweep, pure, persist, transient, []byte("not json"), nil} {
			f.Add(uint8(p), "", body)
		}
	}
	f.Add(uint8(3), "application/x-ndjson", []byte("0 1 2\n"))
	f.Add(uint8(3), "application/json; charset=utf-8", transient)
	f.Add(uint8(0), "application/json", []byte(`{"model":{"floorplan":"grid:0x9"}}`))
	f.Add(uint8(2), "application/json", []byte(`{"scenarios":[{"model":{"flp":"a 1 1 0 0\n"}}]}`))

	rt, err := New(Config{Replicas: []string{"127.0.0.1:1"}, ProbeInterval: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	defer rt.Close()

	f.Fuzz(func(t *testing.T, p uint8, contentType string, body []byte) {
		r := httptest.NewRequest("POST", fuzzPaths[int(p)%len(fuzzPaths)], nil)
		if contentType != "" {
			r.Header.Set("Content-Type", contentType)
		}
		key := rt.routeKey(r, body)
		if key == "" {
			t.Fatal("empty route key")
		}
		if again := rt.routeKey(r, body); again != key {
			t.Fatalf("route key not deterministic: %q then %q", key, again)
		}
		if hedgeEligible(r, body) != hedgeEligible(r, body) {
			t.Fatal("hedgeEligible not deterministic")
		}
	})
}
