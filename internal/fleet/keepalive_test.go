package fleet

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingTransport is an upstream transport that counts its dials: with
// keep-alive working, a steady stream of sequential requests reuses one
// connection per replica.
func countingTransport(dials *atomic.Int64) *http.Transport {
	var d net.Dialer
	return &http.Transport{
		MaxIdleConnsPerHost: 64,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
}

// TestRouterReusesUpstreamConnections: hedge-eligible requests at the
// default HedgeDelay must not redial their replica per request. The race
// context of a hedged dispatch used to be cancelled before the winner's
// body was copied, which made the transport discard the connection.
func TestRouterReusesUpstreamConnections(t *testing.T) {
	var dials atomic.Int64
	const replicas = 3
	_, _, front := serviceFleet(t, replicas, func(c *Config) {
		c.HedgeDelay = 0 // the default
		c.Transport = countingTransport(&dials)
	})
	body := steadyBody(t, steadySpec("grid:3x3"))
	for i := 0; i < 200; i++ {
		resp, data := postJSON(t, front.Client(), front.URL+"/v1/steady", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, data)
		}
	}
	if n := dials.Load(); n > replicas {
		t.Errorf("router dialed its replicas %d times for 200 sequential requests, want <= %d", n, replicas)
	}
}

// TestHedgedReplyArrivesWhole: a raced request's reply reaches the client
// byte-complete whichever chain wins. The replica writes the reply in two
// parts with a pause between them, so a body read under a cancelled context
// stops at the first part.
func TestHedgedReplyArrivesWhole(t *testing.T) {
	const head = `{"pad":"`
	reply := []byte(head + strings.Repeat("x", 64<<10-len(head)-2) + `"}`)
	var slowIdx atomic.Int64
	slowIdx.Store(-1)
	handler := func(i int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if int64(i) == slowIdx.Load() {
				select {
				case <-time.After(2 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(reply[:4<<10])
			w.(http.Flusher).Flush()
			time.Sleep(20 * time.Millisecond)
			w.Write(reply[4<<10:])
		})
	}
	body := steadyBody(t, steadySpec("grid:3x3"))
	fetch := func(t *testing.T, front *httptest.Server) {
		t.Helper()
		resp, err := front.Client().Post(front.URL+"/v1/steady", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || err != nil || !bytes.Equal(data, reply) {
			t.Fatalf("reply: status %d, %d of %d bytes, read error %v", resp.StatusCode, len(data), len(reply), err)
		}
	}

	t.Run("primary wins", func(t *testing.T) {
		_, rt, front := customFleet(t, 2, handler, func(c *Config) { c.HedgeDelay = 0 })
		for i := 0; i < 5; i++ {
			fetch(t, front)
		}
		if s := rt.Stats(); s.HedgesLaunched != 0 || s.Routed != 5 {
			t.Errorf("counters = %+v, want 5 routed and no hedge", s)
		}
	})

	t.Run("hedge wins", func(t *testing.T) {
		h, rt, front := customFleet(t, 2, handler, func(c *Config) { c.HedgeDelay = 5 * time.Millisecond })
		fp, err := steadySpec("grid:3x3").Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		for i, addr := range h.Addrs() {
			if addr == rt.Ring().Owner(fp) {
				slowIdx.Store(int64(i))
			}
		}
		defer slowIdx.Store(-1)
		fetch(t, front)
		waitCond(t, 2*time.Second, "loser drained", func() bool {
			s := rt.Stats()
			var sum, inFlight int64
			for _, rs := range s.Replicas {
				sum += rs.Attempts
				inFlight += rs.InFlight
			}
			return s.HedgesWon == 1 && inFlight == 0 &&
				sum == s.Routed+s.Retries+s.Failovers+s.HedgesLaunched
		})
	})
}
