package main

import (
	"crypto/sha256"
	"slices"
	"testing"
	"time"
)

// sequence hashes what the fleet would receive for a seed: the set-up
// requests and the first 400 measured requests, built in reverse order to
// show each request depends on its index and the seed alone.
func sequence(w workload, seed uint64) [32]byte {
	g := newGenerator(w, seed)
	h := sha256.New()
	add := func(r *request) {
		h.Write([]byte(r.method + " " + r.path + "\n"))
		h.Write(r.body)
	}
	for k := range preloadRuns {
		add(g.preload(k))
	}
	for k := range 50 {
		add(g.warm(k))
	}
	for i := 399; i >= 0; i-- {
		add(g.at(i))
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSeedFixesRequestSequence(t *testing.T) {
	for _, w := range workloads {
		a, b, c := sequence(w, 7), sequence(w, 7), sequence(w, 8)
		if a != b {
			t.Errorf("%s: the same seed gave different request bytes", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave identical request bytes", w.name)
		}
	}
}

// TestRouterServesKeysOnRingOwner starts two fleets, whose replicas listen
// on different ephemeral ports, sends one steady solve per warm-steady model
// through each router, and requires the replica that served it to be the
// ring owner of the model's fingerprint: the router's transport dials each
// ring name to its own replica, so placement is the same in both fleets.
func TestRouterServesKeysOnRingOwner(t *testing.T) {
	w, _ := findWorkload("warm-steady")
	g := newGenerator(w, 1)
	var served [2][]int
	for k := range served {
		rg, err := startRig(t.TempDir(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		lg := &loadgen{rg: rg, g: g, chk: newChecker(g), base: time.Now(), conns: 1}
		lookups := func() []int64 {
			var n []int64
			for _, srv := range rg.servers {
				st := srv.Stats()
				n = append(n, st.Cache.Hits+st.Cache.Misses)
			}
			return n
		}
		for i, sp := range g.specs {
			before := lookups()
			s := &sample{}
			lg.send(g.steady(g.rng(streamWarm, i), i, sp, builtinTotalW), s)
			if s.failed || s.status != 200 {
				t.Fatalf("model %d: status %d %s", i, s.status, s.why)
			}
			after := lookups()
			who := -1
			for r := range after {
				if after[r] != before[r] {
					who = r
				}
			}
			fp, err := sp.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if owner := rg.router.Ring().Owner(fp); who < 0 || replicaNames[who] != owner {
				t.Fatalf("model %d: served by replica %d, ring owner %s", i, who, owner)
			}
			served[k] = append(served[k], who)
		}
		lg.chk.finish()
		rg.close()
	}
	if !slices.Equal(served[0], served[1]) {
		t.Fatalf("placement differs between fleets: %v vs %v", served[0], served[1])
	}
}
