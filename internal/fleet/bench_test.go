package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkFleetRingOwner measures one bounded-load ring lookup — the pure
// routing overhead the router adds before any network work.
func BenchmarkFleetRingOwner(b *testing.B) {
	replicas := make([]string, 8)
	for i := range replicas {
		replicas[i] = fmt.Sprintf("10.0.0.%d:7070", i+1)
	}
	r := NewRing(replicas, 0)
	keys := ringKeys(1024)
	all := func(string) bool { return true }
	load := func(string) int { return 4 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner, _ := r.OwnerBounded(keys[i%len(keys)], 1.25, all, load)
		if owner == "" {
			b.Fatal("no owner")
		}
	}
}

// BenchmarkFleetProxyOverhead measures a full proxied round trip against
// no-op backends: HTTP in, route-key derivation, upstream call, response
// copy. The backend does no solving, so the number is the router's wire
// overhead per request. It runs with hedging off and at the default hedge
// delay (a steady solve is hedge-eligible, so it takes the race path), and
// reports the router's upstream dials per request: near zero when
// keep-alive holds, 1 when every request redials its replica.
func BenchmarkFleetProxyOverhead(b *testing.B) {
	for _, bc := range []struct {
		name  string
		hedge time.Duration
	}{
		{"hedge=off", -1},
		{"hedge=default", 0},
	} {
		b.Run(bc.name, func(b *testing.B) { benchProxyOverhead(b, bc.hedge) })
	}
}

func benchProxyOverhead(b *testing.B, hedgeDelay time.Duration) {
	h, err := NewHarness(3, func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"ok":true}`))
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	var dials atomic.Int64
	rt, err := New(Config{Replicas: h.Addrs(), ProbeInterval: time.Hour, HedgeDelay: hedgeDelay,
		Transport: countingTransport(&dials)})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := front.Client()
	body := []byte(`{"model":{"floorplan":"grid:3x3"},"power":{"c0_0":10}}`)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(front.URL+"/v1/steady", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(dials.Load())/float64(b.N), "dials/op")
}

// BenchmarkFleetFailoverWindow measures request latency while the primary
// owner is dead: the first requests pay the transport-error + failover
// price, then the breaker ejects the corpse and requests go straight to the
// successor. Reports the p99 of the observed window as failover-p99-ns.
func BenchmarkFleetFailoverWindow(b *testing.B) {
	h, err := NewHarness(2, func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"ok":true}`))
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	rt, err := New(Config{
		Replicas:      h.Addrs(),
		ProbeInterval: time.Hour,
		Breaker:       BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Hour},
		Retry:         RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
		HedgeDelay:    -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := front.Client()
	body := []byte(`{"model":{"floorplan":"grid:3x3"},"power":{"c0_0":10}}`)

	// Kill the steady request's ring owner so every early request fails over.
	key := rt.routeKey(httptest.NewRequest("POST", "/v1/steady", nil), body)
	for i, addr := range h.Addrs() {
		if addr == rt.Ring().Owner(key) {
			h.Kill(i)
		}
	}

	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		resp, err := client.Post(front.URL+"/v1/steady", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		p99 := lat[len(lat)*99/100]
		b.ReportMetric(float64(p99.Nanoseconds()), "failover-p99-ns")
	}
}
