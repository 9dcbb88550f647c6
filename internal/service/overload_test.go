package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/faultfs"
	"repro/internal/tstore"
)

// waitCond polls cond until it holds or the test deadline expires.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func postJSONTenant(t *testing.T, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func steadyReq() SteadyRequest {
	return SteadyRequest{
		Model: ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Power: map[string]float64{"IntReg": 2},
	}
}

// TestRateLimitRetryAfter: a tenant with an exhausted token bucket sheds
// with 429 and a Retry-After derived from the bucket refill, counted both
// globally and per tenant.
func TestRateLimitRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Tenants: map[string]admission.Quota{"metered": {RatePerSec: 0.001, Burst: 1}},
	})
	resp, raw := postJSONTenant(t, ts.URL+"/v1/steady", "metered", steadyReq())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSONTenant(t, ts.URL+"/v1/steady", "metered", steadyReq())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limited 429 missing Retry-After header")
	}
	st := srv.Stats()
	if st.RejectedRateLimited != 1 {
		t.Fatalf("rejected_rate_limited = %d, want 1", st.RejectedRateLimited)
	}
	ten := st.Admission.Tenants["metered"]
	if ten.Admitted != 1 || ten.ShedRate != 1 {
		t.Fatalf("metered tenant stats: %+v", ten)
	}
	// A different tenant is unaffected by the metered tenant's empty bucket.
	if resp, raw := postJSONTenant(t, ts.URL+"/v1/steady", "other", steadyReq()); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d: %s", resp.StatusCode, raw)
	}
}

// TestOversizedTenantRejected: unbounded client-chosen tenant names would be
// an unbounded-memory vector, so they are a 400.
func TestOversizedTenantRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	long := make([]byte, maxTenantName+1)
	for i := range long {
		long[i] = 'a'
	}
	resp, raw := postJSONTenant(t, ts.URL+"/v1/steady", string(long), steadyReq())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
}

// TestTwoTenantOverload is the overload acceptance scenario: a heavy tenant
// bursting far past its queue bound is shed with 429 + Retry-After while a
// light tenant keeps succeeding with bounded queue waits, and its
// pressure-degraded solves are flagged and counted exactly.
func TestTwoTenantOverload(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		MaxConcurrent: 2, QueueDepth: 8, DegradeThreshold: 0.1,
		Tenants: map[string]admission.Quota{
			"heavy": {MaxQueue: 4},
			"light": {Weight: 2},
		},
	})
	// Prime the model cache so overloaded requests measure queuing, not
	// compiles.
	if resp, raw := postJSON(t, ts.URL+"/v1/steady", steadyReq()); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", resp.StatusCode, raw)
	}

	hold := occupySlots(t, srv, "hold", 2)
	released := false
	defer func() {
		if !released {
			hold()
		}
	}()

	type outcome struct {
		tenant   string
		status   int
		retry    string
		degraded bool
	}
	results := make(chan outcome, 64)
	var wg sync.WaitGroup
	post := func(tenant string, req SteadyRequest) {
		defer wg.Done()
		raw, err := json.Marshal(req)
		if err != nil {
			results <- outcome{tenant: tenant, status: -1}
			return
		}
		hr, err := http.NewRequest("POST", ts.URL+"/v1/steady", bytes.NewReader(raw))
		if err != nil {
			results <- outcome{tenant: tenant, status: -1}
			return
		}
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			results <- outcome{tenant: tenant, status: -1}
			return
		}
		var out SteadyResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		results <- outcome{tenant, resp.StatusCode, resp.Header.Get("Retry-After"), out.Degraded}
	}

	light := steadyReq()
	light.Model.Serving = "auto" // degrade-eligible
	heavy := steadyReq()

	// First light wave queues while the slots are held, so every one of them
	// is granted under pressure and must degrade.
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go post("light", light)
	}
	waitCond(t, "light wave queued", func() bool {
		return srv.admission.Stats().Tenants["light"].Queued == 4
	})

	// Heavy burst: 30 concurrent requests against a per-tenant queue bound
	// of 4 — the rest shed immediately.
	wg.Add(30)
	for i := 0; i < 30; i++ {
		go post("heavy", heavy)
	}
	waitCond(t, "heavy burst resolved", func() bool {
		ten := srv.admission.Stats().Tenants["heavy"]
		return ten.ShedQueue+int64(ten.Queued) == 30
	})

	// Release the slots and ride out the drain with a second light wave
	// (bounded concurrency so the light tenant never trips the global queue
	// bound: ≤4 light waiting + ≤4 heavy queued ≤ QueueDepth). The global
	// bound is shared first come, first served, so the second wave starts
	// only once the first has left the queue; otherwise 4 + 4 light plus 4
	// heavy waiters could meet the bound of 8.
	hold()
	released = true
	waitCond(t, "first light wave granted", func() bool {
		return srv.admission.Stats().Tenants["light"].Queued == 0
	})
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < 2; j++ {
				wg.Add(1)
				post("light", light)
			}
		}()
	}
	wg.Wait()
	close(results)

	var lightOK, lightBad, heavyOK, heavySheds, degraded int
	for o := range results {
		switch o.tenant {
		case "light":
			if o.status == http.StatusOK {
				lightOK++
			} else {
				lightBad++
				t.Errorf("light request: status %d", o.status)
			}
		case "heavy":
			switch o.status {
			case http.StatusOK:
				heavyOK++
			case http.StatusTooManyRequests:
				heavySheds++
				if o.retry == "" {
					t.Error("heavy 429 missing Retry-After header")
				}
			default:
				t.Errorf("heavy request: status %d", o.status)
			}
		}
		if o.degraded {
			degraded++
		}
	}
	if lightOK != 12 || lightBad != 0 {
		t.Fatalf("light tenant: %d ok, %d failed, want 12/0", lightOK, lightBad)
	}
	if heavySheds == 0 || heavyOK+heavySheds != 30 {
		t.Fatalf("heavy tenant: %d ok + %d shed, want 30 with sheds > 0", heavyOK, heavySheds)
	}
	if degraded < 4 {
		t.Fatalf("degraded responses = %d, want at least the 4 queued light ones", degraded)
	}

	st := srv.Stats()
	lt, ht := st.Admission.Tenants["light"], st.Admission.Tenants["heavy"]
	if lt.Admitted != 12 || lt.ShedRate+lt.ShedQueue != 0 {
		t.Fatalf("light tenant stats: %+v", lt)
	}
	if ht.Admitted != int64(heavyOK) || ht.ShedQueue != int64(heavySheds) {
		t.Fatalf("heavy tenant stats %+v vs observed ok=%d shed=%d", ht, heavyOK, heavySheds)
	}
	if st.RejectedQueueFull != int64(heavySheds) {
		t.Fatalf("rejected_queue_full = %d, want %d", st.RejectedQueueFull, heavySheds)
	}
	if st.Degrade.DegradedSolves != int64(degraded) || lt.Degraded != int64(degraded) {
		t.Fatalf("degraded counters: stats %d, tenant %d, observed %d",
			st.Degrade.DegradedSolves, lt.Degraded, degraded)
	}
	// The light tenant's queue waits stayed bounded (well under the test's
	// own 5 s patience).
	if lt.QueueWaitP99MS >= 5000 {
		t.Fatalf("light p99 queue wait %.1f ms", lt.QueueWaitP99MS)
	}
}

// TestDegradeUnderPressure: a serving "auto" request granted while the queue
// sits at or past the degrade threshold lands on the reduced-order backend
// and says so.
func TestDegradeUnderPressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 2})

	release := occupySlots(t, srv, "hold", 1)
	// Park one raw waiter so the queue is half full (pressure 0.5 = default
	// threshold) when the HTTP request enqueues behind it.
	parked := make(chan *admission.Decision, 1)
	go func() {
		dec, err := srv.admission.Admit(context.Background(), "parker")
		if err != nil {
			t.Error(err)
		}
		parked <- dec
	}()
	waitCond(t, "parker queued", func() bool { return srv.admission.Queued() == 1 })

	req := steadyReq()
	req.Model.Serving = "auto"
	done := make(chan []byte, 1)
	status := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/steady", "application/json", bytes.NewReader(raw))
		if err != nil {
			status <- -1
			done <- nil
			return
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
		done <- buf.Bytes()
	}()
	waitCond(t, "auto request queued", func() bool { return srv.admission.Queued() == 2 })

	release()
	if dec := <-parked; dec != nil {
		dec.Release()
	}
	if code := <-status; code != http.StatusOK {
		t.Fatalf("auto request: status %d", code)
	}
	var out SteadyResponse
	decodeInto(t, <-done, &out)
	if !out.Degraded {
		t.Fatal("auto request under pressure not flagged degraded")
	}
	st := srv.Stats()
	if st.Degrade.DegradedSolves != 1 {
		t.Fatalf("degraded_solves = %d, want 1", st.Degrade.DegradedSolves)
	}
	if ten := st.Admission.Tenants["default"]; ten.Degraded != 1 {
		t.Fatalf("default tenant degraded = %d, want 1", ten.Degraded)
	}

	// The same request with a free queue runs the full backend undegraded.
	resp, raw := postJSON(t, ts.URL+"/v1/steady", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unloaded auto request: status %d: %s", resp.StatusCode, raw)
	}
	var calm SteadyResponse
	decodeInto(t, raw, &calm)
	if calm.Degraded {
		t.Fatal("unloaded auto request flagged degraded")
	}
}

// TestDeadlineWhileQueued: requests whose deadline expires while they wait
// for a slot answer 504 on the query and scenario-stream endpoints too.
func TestDeadlineWhileQueued(t *testing.T) {
	st, err := tstore.Open(t.TempDir(), tstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, Store: st})

	release := occupySlots(t, srv, "hold", 1)
	defer release()

	resp, raw := getJSON(t, ts.URL+"/v1/query?series=x&timeout_ms=50")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("query: status %d, want 504: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/scenario/stream", ScenarioRequest{
		Spec: json.RawMessage(sweepSpecJSON), TimeoutMS: 50,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("scenario stream: status %d, want 504: %s", resp.StatusCode, raw)
	}
	if n := srv.Stats().DeadlineExceeded; n != 2 {
		t.Fatalf("deadline_exceeded = %d, want 2", n)
	}
}

// TestDrainShedsAndEvicts: BeginDrain evicts queued waiters with 503 +
// Retry-After, sheds every subsequent request the same way, flips /readyz
// to 503 while /healthz stays pure liveness (200), and leaves in-flight
// work untouched.
func TestDrainShedsAndEvicts(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 4})

	release := occupySlots(t, srv, "hold", 1)
	queued := make(chan outcomeHTTP, 1)
	go func() {
		queued <- doSteadyRaw(ts.URL, steadyReq())
	}()
	waitCond(t, "request queued", func() bool { return srv.admission.Queued() == 1 })

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	ev := <-queued
	if ev.status != http.StatusServiceUnavailable || ev.retry == "" {
		t.Fatalf("evicted waiter: status %d retry %q, want 503 with Retry-After", ev.status, ev.retry)
	}
	nw := doSteadyRaw(ts.URL, steadyReq())
	if nw.status != http.StatusServiceUnavailable || nw.retry == "" {
		t.Fatalf("post-drain request: status %d retry %q, want 503 with Retry-After", nw.status, nw.retry)
	}
	// Liveness stays green while draining — the process is healthy, just not
	// accepting work; restart orchestrators must not kill it.
	resp, raw := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: status %d", resp.StatusCode)
	}
	var hb map[string]string
	decodeInto(t, raw, &hb)
	if hb["status"] != "ok" {
		t.Fatalf("healthz status %q, want ok (liveness is drain-agnostic)", hb["status"])
	}
	// Readiness goes 503 + Retry-After so fleets/load balancers stop routing.
	resp, raw = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("readyz while draining: missing Retry-After")
	}
	var rb map[string]string
	decodeInto(t, raw, &rb)
	if rb["status"] != "draining" {
		t.Fatalf("readyz status %q, want draining", rb["status"])
	}
	// The in-flight slot holder finishes normally.
	release()
	if got := srv.admission.InFlight(); got != 0 {
		t.Fatalf("in-flight after release = %d", got)
	}
}

type outcomeHTTP struct {
	status int
	retry  string
	body   []byte
}

func doSteadyRaw(url string, req SteadyRequest) outcomeHTTP {
	raw, err := json.Marshal(req)
	if err != nil {
		return outcomeHTTP{status: -1}
	}
	resp, err := http.Post(url+"/v1/steady", "application/json", bytes.NewReader(raw))
	if err != nil {
		return outcomeHTTP{status: -1}
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return outcomeHTTP{resp.StatusCode, resp.Header.Get("Retry-After"), buf.Bytes()}
}

// TestServeGracefulShutdown: cancelling Serve's context drains — the
// in-flight solve completes and Serve returns nil.
func TestServeGracefulShutdown(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ctx, addr) }()
	waitCond(t, "server listening", func() bool {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// A scenario grid in flight across the shutdown must run to completion.
	inflight := make(chan outcomeHTTP, 1)
	go func() {
		raw, _ := json.Marshal(ScenarioRequest{Spec: json.RawMessage(sweepSpecJSON)})
		resp, err := http.Post("http://"+addr+"/v1/scenario", "application/json", bytes.NewReader(raw))
		if err != nil {
			inflight <- outcomeHTTP{status: -1}
			return
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		inflight <- outcomeHTTP{status: resp.StatusCode, body: buf.Bytes()}
	}()
	waitCond(t, "scenario in flight", func() bool { return srv.admission.InFlight() >= 1 })

	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	res := <-inflight
	if res.status != http.StatusOK {
		t.Fatalf("in-flight scenario: status %d: %s", res.status, res.body)
	}
	var out ScenarioResponse
	decodeInto(t, res.body, &out)
	if len(out.Cells) != 12 {
		t.Fatalf("in-flight scenario finished with %d cells, want 12", len(out.Cells))
	}
	if !srv.Draining() {
		t.Fatal("server not draining after shutdown")
	}
}

// TestPersistDegradedRecovery: a disk fault during a transient persist
// degrades the request to persist_pending instead of failing it, the
// background retrier recovers once the disk heals, and the acknowledged rows
// become queryable.
func TestPersistDegradedRecovery(t *testing.T) {
	ffs := faultfs.New(tstore.OSFS(), 1)
	st, err := tstore.Open(t.TempDir(), tstore.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, ts := newTestServer(t, Config{Store: st})

	ffs.SetDiskFull(true)
	tr := testTrace(t)
	resp, raw := postJSON(t, ts.URL+"/v1/transient", TransientRequest{
		Model:   ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Trace:   traceSpec(tr),
		Persist: "runs/degraded",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transient with failing disk: status %d: %s", resp.StatusCode, raw)
	}
	var out TransientResponse
	decodeInto(t, raw, &out)
	if !out.PersistPending || out.Persist != "runs/degraded" || out.PersistedRows != 0 {
		t.Fatalf("want persist_pending for runs/degraded with 0 durable rows, got %+v",
			struct {
				P string
				R int64
				B bool
			}{out.Persist, out.PersistedRows, out.PersistPending})
	}
	if d := srv.Stats().Degrade; d.PersistDeferred != 1 {
		t.Fatalf("persist_deferred = %d, want 1", d.PersistDeferred)
	}

	// Disk heals; the retrier flushes the staged rows in the background.
	ffs.SetDiskFull(false)
	waitCond(t, "retrier recovery", func() bool {
		d := srv.Stats().Degrade
		return d.PersistRecovered >= 1 && !d.PersistPending
	})
	block := tr.Names[0]
	resp, raw = getJSON(t, ts.URL+"/v1/query?series=runs/degraded/"+block)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery: status %d: %s", resp.StatusCode, raw)
	}
	var q QueryResponse
	decodeInto(t, raw, &q)
	if len(q.Rows) == 0 {
		t.Fatal("no rows recovered after the disk healed")
	}
}

// TestScenarioServingValidation: the scenario endpoints validate the serving
// hint like ModelSpec does.
func TestScenarioServingValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/scenario", ScenarioRequest{
		Spec: json.RawMessage(sweepSpecJSON), Serving: "bogus",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
}
