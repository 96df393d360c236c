package gateway

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/service"
)

// testFleet builds n backends (all serving unless told otherwise) with
// the ring wired the way New does, without any HTTP.
func testFleet(n int) ([]*Backend, *Ring) {
	backends := make([]*Backend, n)
	names := make([]string, n)
	for i := range backends {
		backends[i] = &Backend{name: fmt.Sprintf("b%d", i), url: fmt.Sprintf("http://backend-%d", i)}
		backends[i].state.Store(int32(StateServing))
		names[i] = backends[i].name
	}
	return backends, NewRing(names, 128)
}

func poolOf(backends []*Backend, except map[*Backend]bool) []*Backend {
	pool := make([]*Backend, 0, len(backends))
	for _, b := range backends {
		if !except[b] {
			pool = append(pool, b)
		}
	}
	return pool
}

// TestFailoverPickerPrimaryAndFallback pins the routing policy: the
// shard owner while it is in the pool, the least-loaded member once it
// is not.
func TestFailoverPickerPrimaryAndFallback(t *testing.T) {
	backends, ring := testFleet(4)
	owner := backends[ring.Owner("mallows-best|weak|10|0")]

	if got := pick(owner, poolOf(backends, nil)); got != owner {
		t.Fatalf("healthy owner: chose %s, want owner %s", got.name, owner.name)
	}

	// Load the survivors unevenly; with the owner excluded the fallback
	// must pick the least-loaded, not the ring successor.
	var lightest *Backend
	for _, b := range backends {
		if b == owner {
			continue
		}
		b.inflight.Store(50)
		if lightest == nil {
			lightest = b
		}
	}
	lightest.inflight.Store(1)
	got := pick(owner, poolOf(backends, map[*Backend]bool{owner: true}))
	if got != lightest {
		t.Fatalf("unhealthy owner: chose %s (load %d), want least-loaded %s", got.name, got.LoadScore(), lightest.name)
	}
	for _, b := range backends {
		b.inflight.Store(0)
	}
}

// TestLeastLoadedPicker pins the fallback's load scoring with the owner
// out of the pool: the backend-reported readyz snapshot plus the
// gateway's own in-flight count, ties broken by name for determinism.
func TestLeastLoadedPicker(t *testing.T) {
	backends, _ := testFleet(3)
	pool := poolOf(backends, nil)
	if got := pick(nil, nil); got != nil {
		t.Fatalf("empty pool chose %s, want nil", got.name)
	}

	// All idle: the name tie-break keeps the choice deterministic.
	if got := pick(nil, pool); got != backends[0] {
		t.Fatalf("idle fleet: chose %s, want b0 by tie-break", got.name)
	}

	// Reported load (from the /readyz snapshot) dominates.
	backends[0].mu.Lock()
	backends[0].reported = service.ReadyzQueue{InFlight: 4, Queued: 3}
	backends[0].mu.Unlock()
	backends[1].inflight.Store(2)
	if got := pick(nil, pool); got != backends[2] {
		t.Fatalf("loaded fleet: chose %s, want idle b2", got.name)
	}

	// Gateway-side in-flight covers the staleness between probes.
	backends[2].inflight.Store(9)
	if got := pick(nil, pool); got != backends[1] {
		t.Fatalf("stale-probe fleet: chose %s, want b1 (score 2)", got.name)
	}
}

// TestPickerRaceUnderStateFlips stresses pick while probe-like
// goroutines flip backend states and load reports concurrently — the
// routing path must stay race-free (run under -race) and always return
// a pool member.
func TestPickerRaceUnderStateFlips(t *testing.T) {
	backends, ring := testFleet(6)
	stop := make(chan struct{})
	var flippers sync.WaitGroup
	for _, b := range backends {
		flippers.Add(1)
		go func(b *Backend) {
			defer flippers.Done()
			states := []State{StateServing, StateDegraded, StateProbing, StateDraining, StateServing}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b.setState(states[i%len(states)])
				b.probeSuccess(1, service.ReadyzQueue{InFlight: int64(i % 17), Queued: int64(i % 5)}, i%3)
				b.inflight.Add(1)
				b.inflight.Add(-1)
			}
		}(b)
	}
	var routers sync.WaitGroup
	keys := ringKeys(64)
	for w := 0; w < 4; w++ {
		routers.Add(1)
		go func(w int) {
			defer routers.Done()
			for i := 0; i < 2000; i++ {
				key := keys[(i+w)%len(keys)]
				// The routing path's snapshot: serving backends only.
				pool := make([]*Backend, 0, len(backends))
				for _, b := range backends {
					if b.State() == StateServing {
						pool = append(pool, b)
					}
				}
				if len(pool) == 0 {
					continue
				}
				got := pick(backends[ring.Owner(key)], pool)
				if got == nil {
					t.Error("pick returned nil for a non-empty pool")
					return
				}
				found := false
				for _, b := range pool {
					if b == got {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("pick returned %s, not a pool member", got.name)
					return
				}
			}
		}(w)
	}
	routers.Wait()
	close(stop)
	flippers.Wait()
}
