package service

// Completion-event subscription tests: at-least-once delivery against
// a flaky receiver with the retry/exhaustion counters reconciled
// through /v1/metrics, and redelivery across a restart when the
// attempt budget ran out.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
)

// flakyReceiver is a webhook endpoint that fails its first n deliveries
// with 500 and records every body it sees.
type flakyReceiver struct {
	mu     sync.Mutex
	fails  int
	bodies [][]byte
	srv    *httptest.Server
}

func newFlakyReceiver(fails int) *flakyReceiver {
	r := &flakyReceiver{fails: fails}
	r.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		r.mu.Lock()
		r.bodies = append(r.bodies, body)
		n := len(r.bodies)
		fails := r.fails
		r.mu.Unlock()
		if n <= fails {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	return r
}

func (r *flakyReceiver) calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.bodies)
}

func (r *flakyReceiver) body(i int) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bodies[i]
}

// TestWebhookAtLeastOnce: a receiver that answers 500, 500, 200 still
// gets the completion event, the event carries the job's terminal
// shape, and every attempt is accounted for in /v1/metrics.
func TestWebhookAtLeastOnce(t *testing.T) {
	recv := newFlakyReceiver(2)
	defer recv.srv.Close()

	s := New(Config{Workers: 2, WebhookBackoff: time.Millisecond})
	defer s.Close()
	h := NewHandler(s)

	sub, err := s.SubmitJob(&BatchRequest{
		Requests:   []RankRequest{{Candidates: pool(6), Seed: 7}},
		WebhookURL: recv.srv.URL + "/hook",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, sub.ID)

	deadline := time.Now().Add(10 * time.Second)
	for s.jobGauges().Webhooks.Delivered < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("event never delivered; receiver saw %d attempts", recv.calls())
		}
		time.Sleep(time.Millisecond)
	}
	if got := recv.calls(); got != 3 {
		t.Fatalf("receiver saw %d deliveries, want exactly 3 (500, 500, 200)", got)
	}

	var event JobEvent
	if err := json.Unmarshal(recv.body(2), &event); err != nil {
		t.Fatal(err)
	}
	if event.ID != sub.ID || event.State != JobStateDone || event.Total != 1 ||
		event.Completed != 1 || event.Failed != 0 || event.StatusURL != "/v1/jobs/"+sub.ID {
		t.Fatalf("delivered event: %+v", event)
	}
	// The retries also delivered the same bytes — at-least-once means
	// duplicates are possible and identical, never divergent.
	for i := 0; i < 2; i++ {
		if string(recv.body(i)) != string(recv.body(2)) {
			t.Fatalf("attempt %d sent different bytes:\n%s\nvs\n%s", i, recv.body(i), recv.body(2))
		}
	}

	// Reconcile the counters over the wire, where operators read them.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m struct {
		Jobs JobMetrics `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	wh := m.Jobs.Webhooks
	if wh.Attempts != 3 || wh.Delivered != 1 || wh.Retries != 2 || wh.Exhausted != 0 {
		t.Fatalf("webhook counters on /v1/metrics: %+v", wh)
	}
	if wh.Attempts != wh.Delivered+wh.Retries {
		t.Fatalf("counters do not reconcile: %d attempts != %d delivered + %d retries",
			wh.Attempts, wh.Delivered, wh.Retries)
	}
}

// TestWebhookRedeliveryAfterRestart: a dead receiver exhausts the
// process's attempt budget; because the sent-marker never landed, the
// next process re-arms the delivery at resume and the event finally
// goes through — at-least-once across restarts, then never again once
// the durable marker is set.
func TestWebhookRedeliveryAfterRestart(t *testing.T) {
	recv := newFlakyReceiver(2)
	defer recv.srv.Close()

	dir := t.TempDir()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 2, JobStore: store, WebhookBackoff: time.Millisecond, WebhookAttempts: 2})
	sub, err := s1.SubmitJob(&BatchRequest{
		Requests:   []RankRequest{{Candidates: pool(6), Seed: 7}},
		WebhookURL: recv.srv.URL + "/hook",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s1, sub.ID)
	deadline := time.Now().Add(10 * time.Second)
	for s1.jobGauges().Webhooks.Exhausted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("attempt budget never ran out against the dead receiver")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()

	// Restart over the same directory: ResumeJobs re-arms the unsent
	// event, and the receiver now answers 200 on the third call.
	store2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, JobStore: store2, WebhookBackoff: time.Millisecond})
	defer s2.Close()
	if n := s2.ResumeJobs(); n != 0 {
		t.Fatalf("ResumeJobs re-ran %d finished jobs", n)
	}
	deadline = time.Now().Add(10 * time.Second)
	for s2.jobGauges().Webhooks.Delivered < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("event never redelivered after restart; receiver saw %d calls", recv.calls())
		}
		time.Sleep(time.Millisecond)
	}
	if got := recv.calls(); got != 3 {
		t.Fatalf("receiver saw %d total deliveries, want 3 (2 exhausted + 1 redelivered)", got)
	}

	// The durable marker stops a further restart from delivering again.
	store3, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := store3.Get(sub.ID)
	if !ok || !j.WebhookSent {
		t.Fatalf("sent-marker not durable: ok=%v %+v", ok, j)
	}
	s3 := New(Config{Workers: 2, JobStore: store3, WebhookBackoff: time.Millisecond})
	defer s3.Close()
	s3.ResumeJobs()
	time.Sleep(20 * time.Millisecond)
	if got := recv.calls(); got != 3 {
		t.Fatalf("marked-sent event delivered again: %d calls", got)
	}
}
