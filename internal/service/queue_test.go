package service

// Admission-layer tests: saturation answers fast 429s with Retry-After
// instead of unbounded blocking, and a drained queue recovers with no
// dropped or duplicated batch items. CI runs this file under -race.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fillSlots occupies every execution slot; the returned func frees them.
func fillSlots(s *Service) func() {
	n := cap(s.queue.slots)
	for i := 0; i < n; i++ {
		s.queue.slots <- struct{}{}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-s.queue.slots
		}
	}
}

// fillGate occupies every admission ticket; the returned func frees them.
func fillGate(s *Service) func() {
	n := cap(s.queue.gate)
	for i := 0; i < n; i++ {
		s.queue.gate <- struct{}{}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-s.queue.gate
		}
	}
}

// TestSaturation429 drives every saturation path over the wire: each
// case must answer 429 with a Retry-After header and a JSON error body,
// fast — saturation is detected without blocking, never by waiting out
// a backlog.
func TestSaturation429(t *testing.T) {
	singleBody := `{"candidates": [{"id":"a","score":2,"group":"x"},{"id":"b","score":1,"group":"y"}], "seed": 1}`
	batchBody := `{"requests": [` + singleBody + `]}`
	cases := []struct {
		name     string
		saturate func(t *testing.T, s *Service) (release func())
		method   string
		path     string
		body     string
	}{
		{
			name:     "rank with a full admission queue",
			saturate: func(t *testing.T, s *Service) func() { return fillGate(s) },
			method:   http.MethodPost, path: "/v1/rank", body: singleBody,
		},
		{
			name:     "batch with a full admission queue",
			saturate: func(t *testing.T, s *Service) func() { return fillGate(s) },
			method:   http.MethodPost, path: "/v1/rank/batch", body: batchBody,
		},
		{
			name: "rank exhausting its queue-wait budget",
			saturate: func(t *testing.T, s *Service) func() {
				// Slots stay busy but the gate has room: the request is
				// admitted, waits its budget, then gives up.
				return fillSlots(s)
			},
			method: http.MethodPost, path: "/v1/rank", body: singleBody,
		},
		{
			name: "batch exhausting its queue-wait budget",
			saturate: func(t *testing.T, s *Service) func() {
				// The whole batch is refused before any entry ranks — a
				// wedged pool must not hold the connection open forever.
				return fillSlots(s)
			},
			method: http.MethodPost, path: "/v1/rank/batch", body: batchBody,
		},
		{
			name: "job submission with a full job store",
			saturate: func(t *testing.T, s *Service) func() {
				release := fillSlots(s)
				for i := 0; i < s.cfg.MaxJobs; i++ {
					if _, err := s.SubmitJob(&BatchRequest{Requests: []RankRequest{{Candidates: pool(4), Seed: int64(i)}}}); err != nil {
						t.Fatalf("filler job %d: %v", i, err)
					}
				}
				return release
			},
			method: http.MethodPost, path: "/v1/jobs/rank", body: batchBody,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 2, QueueDepth: 2, QueueWait: 20 * time.Millisecond, MaxJobs: 2})
			defer s.Close()
			h := NewHandler(s)
			release := tc.saturate(t, s)
			defer release()

			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			elapsed := time.Since(start)

			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429; body %s", rec.Code, rec.Body.String())
			}
			if ra := rec.Header().Get("Retry-After"); ra == "" {
				t.Error("429 without a Retry-After header")
			}
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], "saturated") {
				t.Errorf("429 body %q does not name the saturation", rec.Body.String())
			}
			// The budget case legitimately waits its (20ms) budget; the
			// others must reject in O(1). Either way the bound is far
			// below anything resembling "queueing indefinitely".
			if elapsed > 2*time.Second {
				t.Errorf("saturation rejection took %v", elapsed)
			}
		})
	}
}

// TestInvalidRejectedEvenWhenSaturated: validation runs before
// admission, so an invalid request is a 400 whatever the load — the
// status a client sees for a bad request must not depend on how busy
// the server is, and bad requests must not burn admission tickets.
// There is one case per request rule of the library's validator
// (Ranker.Check), which the service asks before admission.
func TestInvalidRejectedEvenWhenSaturated(t *testing.T) {
	with := func(edit func(c []Candidate)) []Candidate {
		c := pool(4)
		edit(c)
		return c
	}
	for _, tc := range []struct {
		name string
		req  RankRequest
	}{
		{"empty candidates", RankRequest{}},
		{"empty id", RankRequest{Candidates: with(func(c []Candidate) { c[1].ID = "" })}},
		{"duplicate id", RankRequest{Candidates: with(func(c []Candidate) { c[1].ID = c[0].ID })}},
		{"NaN score", RankRequest{Candidates: with(func(c []Candidate) { c[1].Score = math.NaN() })}},
		{"empty group", RankRequest{Candidates: with(func(c []Candidate) { c[1].Group = "" })}},
		{"membership empty group name", RankRequest{Candidates: with(func(c []Candidate) { c[1].Membership = map[string]float64{"": 1} })}},
		{"membership out of range", RankRequest{Candidates: with(func(c []Candidate) { c[1].Membership = map[string]float64{"a": 1.5} })}},
		{"membership not normalized", RankRequest{Candidates: with(func(c []Candidate) { c[1].Membership = map[string]float64{"a": 0.5} })}},
		{"unknown algorithm", RankRequest{Candidates: pool(4), Algorithm: "quicksort"}},
		{"unknown noise", RankRequest{Candidates: pool(4), Noise: "fog"}},
		{"unknown central", RankRequest{Candidates: pool(4), Central: "median"}},
		{"unknown criterion", RankRequest{Candidates: pool(4), Criterion: "vibes"}},
		{"negative theta", RankRequest{Candidates: pool(4), Theta: ptr(-1.0)}},
		{"+Inf theta", RankRequest{Candidates: pool(4), Theta: ptr(math.Inf(1))}},
		{"zero samples", RankRequest{Candidates: pool(4), Samples: ptr(0)}},
		{"negative tolerance", RankRequest{Candidates: pool(4), Tolerance: ptr(-0.1)}},
		{"negative sigma", RankRequest{Candidates: pool(4), Sigma: -1}},
		{"+Inf sigma", RankRequest{Candidates: pool(4), Sigma: math.Inf(1)}},
		{"negative weak_k", RankRequest{Candidates: pool(4), WeakK: -2}},
		{"weak_k above the pool", RankRequest{Candidates: pool(4), WeakK: 5}},
		{"zero top_k", RankRequest{Candidates: pool(4), TopK: ptr(0)}},
		{"grbinary over one group", RankRequest{Candidates: with(func(c []Candidate) {
			for i := range c {
				c[i].Group = "a"
			}
		}), Algorithm: "grbinary"}},
		{"grbinary over three groups", RankRequest{Candidates: with(func(c []Candidate) { c[1].Group = "c" }), Algorithm: "grbinary"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, QueueDepth: 1})
			defer s.Close()
			release := fillGate(s)
			defer release()
			if _, err := s.Rank(context.Background(), &tc.req); !errors.Is(err, ErrInvalid) {
				t.Fatalf("got %v, want ErrInvalid even with a full queue", err)
			}
			if rejected := s.queue.rejected.Load(); rejected != 0 {
				t.Errorf("the invalid request consumed %d saturation rejections", rejected)
			}
		})
	}
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	release := fillGate(s)
	defer release()
	if _, err := s.RankBatch(context.Background(), &BatchRequest{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty batch: got %v, want ErrInvalid even with a full queue", err)
	}
	if rejected := s.queue.rejected.Load(); rejected != 0 {
		t.Errorf("the empty batch consumed %d saturation rejections", rejected)
	}
}

// TestSaturationFastReject pins the latency contract of the fast path:
// a full admission queue turns requests away without blocking — well
// under the 50ms the serving contract promises, even under -race.
func TestSaturationFastReject(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	release := fillGate(s)
	defer release()
	start := time.Now()
	_, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(4), Seed: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("got %v, want ErrSaturated", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("fast-path rejection took %v, want < 50ms", elapsed)
	}
}

// TestQueueWaitBudget: an admitted request may wait at most QueueWait
// for its first slot, then fails with ErrSaturated instead of riding
// out the backlog.
func TestQueueWaitBudget(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, QueueWait: 15 * time.Millisecond})
	defer s.Close()
	release := fillSlots(s)
	defer release()
	start := time.Now()
	_, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(4), Seed: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("got %v, want ErrSaturated", err)
	}
	if elapsed < 10*time.Millisecond {
		t.Errorf("gave up after %v, before the 15ms budget", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("budget expiry took %v", elapsed)
	}
}

// TestQueueRecoversBatchesIntact: saturate the pool, pile batches onto
// it concurrently, then drain — every admitted batch must complete with
// every item present exactly once and correct (no drops, no
// duplicates), and post-drain traffic must flow normally again.
func TestQueueRecoversBatchesIntact(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()

	release := fillSlots(s)
	const batches, entries = 4, 6
	type result struct {
		resp *BatchResponse
		err  error
	}
	results := make([]result, batches)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			batch := &BatchRequest{}
			for e := 0; e < entries; e++ {
				batch.Requests = append(batch.Requests, RankRequest{
					Candidates: pool(10), Algorithm: "score", Seed: int64(b*1000 + e),
				})
			}
			resp, err := s.RankBatch(context.Background(), batch)
			results[b] = result{resp: resp, err: err}
		}(b)
	}
	// Give every batch time to admit and block on the busy slots, then
	// drain. Entries of an admitted batch wait without a budget, so none
	// may be dropped by the saturation they sat out.
	time.Sleep(30 * time.Millisecond)
	release()
	wg.Wait()

	for b, res := range results {
		if res.err != nil {
			t.Fatalf("batch %d failed: %v", b, res.err)
		}
		if len(res.resp.Items) != entries {
			t.Fatalf("batch %d returned %d items, want %d", b, len(res.resp.Items), entries)
		}
		seen := map[string]bool{}
		for e, item := range res.resp.Items {
			if item.Error != "" {
				t.Fatalf("batch %d item %d dropped to error: %s", b, e, item.Error)
			}
			if len(item.Response.Ranking) != 10 {
				t.Fatalf("batch %d item %d ranked %d, want 10", b, e, len(item.Response.Ranking))
			}
			key := fmt.Sprintf("%d", item.Response.Diagnostics.Seed)
			if seen[key] {
				t.Fatalf("batch %d: seed %s answered twice (duplicated item)", b, key)
			}
			seen[key] = true
			if want := int64(b*1000 + e); item.Response.Diagnostics.Seed != want {
				t.Fatalf("batch %d item %d carries seed %d, want %d (items reordered?)", b, e, item.Response.Diagnostics.Seed, want)
			}
		}
	}

	// The queue is idle again: ordinary traffic must flow with no
	// residual saturation state.
	if _, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(6), Seed: 9}); err != nil {
		t.Fatalf("post-drain request failed: %v", err)
	}
	admitted, inflight, waiting, _ := s.queue.gauges()
	if admitted != 0 || inflight != 0 || waiting != 0 {
		t.Errorf("queue gauges not drained: admitted=%d inflight=%d waiting=%d", admitted, inflight, waiting)
	}
}

// TestSaturatedBatchNeverPartiallyServed: a batch refused at admission
// is refused whole — 429 with no items — never half-answered.
func TestSaturatedBatchNeverPartiallyServed(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	release := fillGate(s)
	defer release()
	batch := &BatchRequest{Requests: []RankRequest{
		{Candidates: pool(4), Seed: 1},
		{Candidates: pool(4), Seed: 2},
	}}
	resp, err := s.RankBatch(context.Background(), batch)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("got %v, want ErrSaturated", err)
	}
	if resp != nil {
		t.Fatalf("saturated batch still returned items: %+v", resp)
	}
	rejectedBefore := s.queue.rejected.Load()
	if rejectedBefore == 0 {
		t.Error("saturation rejection not counted in the queue gauges")
	}
}
