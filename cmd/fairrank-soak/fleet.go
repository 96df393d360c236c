package main

// The fleet drill's stack: in-process fairrankd backends (real
// listeners on ephemeral ports) behind an in-process gateway, with the
// clients pointed at the gateway. The injection stops the backend with
// the most attempts in flight a third of the way through the run; the
// gateway's retry/failover path must absorb it with zero
// client-visible failures.

import (
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/internal/gateway"
	"repro/internal/service"
)

type fleetHarness struct {
	backends []*service.Server
	gw       *gateway.Gateway
	srv      *httptest.Server
	victim   int // config index of the killed backend; -1 until the kill fires
}

// startFleetHarness spawns the fleet and blocks until the gateway's
// probes have promoted every backend to serving. svcCfg is applied to
// every backend.
func startFleetHarness(n int, svcCfg service.Config) (*fleetHarness, error) {
	h := &fleetHarness{victim: -1}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := service.NewServer(service.ServerConfig{
			Config: svcCfg,
			Addr:   "127.0.0.1:0",
		})
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		if err := srv.Start(); err != nil {
			h.Close()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		h.backends = append(h.backends, srv)
		urls[i] = srv.URL()
	}
	// Test-speed cadences: probes fast enough to demote a killed
	// backend within a few client requests, retries fast enough to keep
	// failover latency inside the soak's latency budget.
	g, err := gateway.New(gateway.Config{
		Backends:      urls,
		ProbeInterval: 25 * time.Millisecond,
		RetryBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.gw = g
	g.Start()
	h.srv = httptest.NewServer(g.Handler())
	deadline := time.Now().Add(10 * time.Second)
	for g.Serving() < n {
		if time.Now().After(deadline) {
			h.Close()
			return nil, fmt.Errorf("fleet stuck at %d/%d serving backends", g.Serving(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return h, nil
}

// URL is the gateway base URL the soak clients target.
func (h *fleetHarness) URL() string { return h.srv.URL }

// killBusiest is the failover injection: once the run has completed a
// third of its requests, the serving backend with the most of the
// gateway's forwarding attempts in flight is stopped abruptly (open
// connections included) while the clients keep sending. Killing it
// tears at least one attempt mid-flight, so the rest of the run must
// exercise the gateway's retry path, not just survive because the
// probes demoted the backend before any request reached it. If no
// attempt is in flight within 10s, nothing is killed and the drill's
// checks fail.
func (h *fleetHarness) killBusiest(progress func() int, total int) {
	atThird(progress, total)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		victim, most := -1, int64(0)
		for i, b := range h.gw.Backends() {
			if n := b.InFlight(); n > most && b.State() == gateway.StateServing {
				victim, most = i, n
			}
		}
		if victim >= 0 {
			h.backends[victim].Close()
			h.victim = victim
			log.Printf("killed backend b%d (%s, %d attempts in flight) mid-run", victim, h.backends[victim].URL(), most)
			return
		}
	}
	log.Print("no forwarding attempt was in flight within 10s; killed nothing")
}

func (h *fleetHarness) Close() {
	if h.srv != nil {
		h.srv.Close()
	}
	if h.gw != nil {
		h.gw.Stop()
	}
	for _, b := range h.backends {
		b.Close() // safe on the killed backend: Close is idempotent
	}
}
