package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzTargets are the solve endpoints whose bodies FuzzSolveBodies posts:
// steady, transient with an inline JSON trace, transient with a raw trace
// stream (model in the query string), and sweep.
var fuzzTargets = []struct{ path, contentType string }{
	{"/v1/steady", "application/json"},
	{"/v1/transient", "application/json"},
	{"/v1/transient?floorplan=grid:2x2&package=oil-silicon&interval=0.001", "application/x-ndjson"},
	{"/v1/sweep", "application/json"},
}

// FuzzSolveBodies posts arbitrary bodies to the solve endpoints through the
// server's handler. Every answer is a 200 or a 4xx whose body is a JSON
// error object; nothing panics. The one 5xx allowed is the documented 504
// for a deadline the request set itself through timeout_ms.
func FuzzSolveBodies(f *testing.F) {
	model := ModelSpec{Floorplan: "grid:2x2", Package: "oil-silicon", Rconv: 1.0}
	tr := &TraceSpec{Names: []string{"c0_0", "c1_1"}, Interval: 1e-3, Rows: [][]float64{{1, 0.5}, {2, 0}, {0, 3}}}
	steady, _ := json.Marshal(SteadyRequest{Model: model, Power: map[string]float64{"c0_0": 2, "c1_0": 1}})
	transient, _ := json.Marshal(TransientRequest{Model: model, Trace: tr, MaxPoints: 2})
	warm, _ := json.Marshal(TransientRequest{Model: model, Trace: tr, WarmStart: true})
	sweep, _ := json.Marshal(SweepRequest{Scenarios: []SweepScenario{
		{Model: model, Power: map[string]float64{"c0_1": 1}},
		{Model: model, Trace: tr},
		{Model: ModelSpec{Floorplan: "ev6"}, Trace: tr},
	}})
	stream := []byte(`{"names":["c0_0","c1_1"],"interval":1e-3}` + "\n[1,0.5]\n[null,2]\n")
	for target, bodies := range [][][]byte{
		{steady, []byte(`{"model":{"floorplan":"grid:0x9"},"power":{"a":1}}`), []byte(`{"power":{"IntReg":1e400}}`)},
		{transient, warm, []byte(`{"model":{},"trace":{"names":["IntReg"],"interval":1e-3,"rows":[null,[1,],[2]]}}`),
			[]byte(`{"trace":{"names":["IntReg"],"interval":1e-3,"rows":[[-1]]},"timeout_ms":1}`)},
		{stream, []byte("c0_0 c1_1\n1 2\n"), []byte(`{"names":["c0_0"]}` + "\n[1e400]\n")},
		{sweep, []byte(`{"scenarios":[]}`), []byte(`{"scenarios":[{"trace":{"names":["IntReg"],"interval":0,"rows":[[1]]}}]}`)},
	} {
		for _, b := range append(bodies, nil, []byte("not json"), []byte("null"), []byte(`{"bogus":1}`)) {
			f.Add(uint8(target), b)
		}
	}

	s := New(Config{CacheCap: 4, DefaultTimeout: 10 * time.Second})
	f.Fuzz(func(t *testing.T, target uint8, body []byte) {
		tg := fuzzTargets[int(target)%len(fuzzTargets)]
		req := httptest.NewRequest("POST", tg.path, bytes.NewReader(body))
		req.Header.Set("Content-Type", tg.contentType)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		code := rec.Code
		if code == http.StatusOK {
			return
		}
		var deadline struct {
			TimeoutMS int `json:"timeout_ms"`
		}
		selfDeadline := json.Unmarshal(body, &deadline) == nil && deadline.TimeoutMS > 0
		if code < 400 || code >= 500 && !(code == http.StatusGatewayTimeout && selfDeadline) {
			t.Fatalf("%s: status %d for body %q: %s", tg.path, code, body, rec.Body.Bytes())
		}
		var e errorResponse
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: status %d with Content-Type %q", tg.path, code, ct)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: status %d without a JSON error body: %q (%v)", tg.path, code, rec.Body.Bytes(), err)
		}
	})
}
