package gateway

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/service"
)

// testFleet builds n backends, all serving, without any HTTP.
func testFleet(n int) []*Backend {
	backends := make([]*Backend, n)
	for i := range backends {
		backends[i] = &Backend{name: fmt.Sprintf("b%d", i), url: fmt.Sprintf("http://backend-%d", i)}
		backends[i].state.Store(int32(StateServing))
	}
	return backends
}

// TestLeastLoadedPicker pins the picker's load scoring: the
// backend-reported readyz snapshot plus the gateway's own in-flight
// count, ties broken by name for determinism.
func TestLeastLoadedPicker(t *testing.T) {
	backends := testFleet(3)
	if got := pick(nil); got != nil {
		t.Fatalf("empty pool chose %s, want nil", got.name)
	}

	// All idle: the name tie-break keeps the choice deterministic.
	if got := pick(backends); got != backends[0] {
		t.Fatalf("idle fleet: chose %s, want b0 by tie-break", got.name)
	}

	// Reported load (from the /readyz snapshot) dominates.
	backends[0].mu.Lock()
	backends[0].reported = service.ReadyzQueue{InFlight: 4, Queued: 3}
	backends[0].mu.Unlock()
	backends[1].inflight.Store(2)
	if got := pick(backends); got != backends[2] {
		t.Fatalf("loaded fleet: chose %s, want idle b2", got.name)
	}

	// Gateway-side in-flight covers the staleness between probes.
	backends[2].inflight.Store(9)
	if got := pick(backends); got != backends[1] {
		t.Fatalf("stale-probe fleet: chose %s, want b1 (score 2)", got.name)
	}
}

// TestPickerRaceUnderStateFlips stresses pick while probe-like
// goroutines flip backend states and load reports concurrently — the
// routing path must stay race-free (run under -race) and always return
// a pool member.
func TestPickerRaceUnderStateFlips(t *testing.T) {
	backends := testFleet(6)
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
	for w := 0; w < 4; w++ {
		routers.Add(1)
		go func() {
			defer routers.Done()
			for i := 0; i < 2000; i++ {
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
				got := pick(pool)
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
		}()
	}
	routers.Wait()
	close(stop)
	flippers.Wait()
}
