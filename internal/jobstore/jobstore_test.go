package jobstore

// Store-conformance tests: every behavioral contract in the Store
// method docs, run identically against a memory store (New) and a
// durable one (Open). Durable-only mechanics (replay, compaction, crash
// windows) live in disk_test.go.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

// eachStore runs fn against a fresh memory store and a fresh durable
// one.
func eachStore(t *testing.T, fn func(t *testing.T, s *Store)) {
	t.Run("mem", func(t *testing.T) {
		s := New()
		defer s.Close()
		fn(t, s)
	})
	t.Run("disk", func(t *testing.T) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
}

func mustCreate(t *testing.T, s *Store, job *Job) *Job {
	t.Helper()
	if err := s.Create(job); err != nil {
		t.Fatal(err)
	}
	return job
}

func TestStoreLifecycle(t *testing.T) {
	eachStore(t, func(t *testing.T, s *Store) {
		j := mustCreate(t, s, &Job{Total: 2, Request: json.RawMessage(`{"n":1}`), WebhookURL: "http://x/hook"})
		if j.ID != "job-000001" {
			t.Fatalf("first ID %q", j.ID)
		}

		got, ok := s.Get(j.ID)
		if !ok || got.State != StatePending || got.Total != 2 || len(got.Items) != 2 {
			t.Fatalf("created job: ok=%v %+v", ok, got)
		}
		if string(got.Request) != `{"n":1}` || got.WebhookURL != "http://x/hook" {
			t.Fatalf("payload fields lost: %+v", got)
		}

		// Create counts as claimed: the creating process supervises it.
		if _, ok := s.Claim(j.ID); ok {
			t.Fatal("claimed a job its creator already owns")
		}

		if err := s.SetState(j.ID, StateRunning); err != nil {
			t.Fatal(err)
		}
		if err := s.PutItem(j.ID, 0, json.RawMessage(`{"ok":true}`), false); err != nil {
			t.Fatal(err)
		}
		if err := s.PutItem(j.ID, 1, json.RawMessage(`{"error":"bad"}`), true); err != nil {
			t.Fatal(err)
		}
		got, _ = s.Get(j.ID)
		if got.Completed != 2 || got.Failed != 1 {
			t.Fatalf("progress %d/%d failed=%d", got.Completed, got.Total, got.Failed)
		}

		if err := s.SetState(j.ID, StateDone); err != nil {
			t.Fatal(err)
		}
		got, _ = s.Get(j.ID)
		if got.State != StateDone || got.Finished.IsZero() {
			t.Fatalf("terminal transition: %+v", got)
		}

		// Terminal states are sticky: only Remove undoes them.
		if err := s.SetState(j.ID, StateRunning); err != nil {
			t.Fatal(err)
		}
		if got, _ = s.Get(j.ID); got.State != StateDone {
			t.Fatalf("terminal state regressed to %q", got.State)
		}

		if err := s.MarkWebhookSent(j.ID); err != nil {
			t.Fatal(err)
		}
		if got, _ = s.Get(j.ID); !got.WebhookSent {
			t.Fatal("webhook marker lost")
		}

		if removed, ok := s.Remove(j.ID); !ok || removed.ID != j.ID {
			t.Fatalf("remove: ok=%v %+v", ok, removed)
		}
		if _, ok := s.Get(j.ID); ok {
			t.Fatal("removed job still readable")
		}
		if _, ok := s.Remove(j.ID); ok {
			t.Fatal("double remove succeeded")
		}
	})
}

// TestStoreClaimRelease: SetState(pending) releases the claim — the
// drain path hands the job back to the store, and a resuming process
// claims it again. Claim itself flips the record to running.
func TestStoreClaimRelease(t *testing.T) {
	eachStore(t, func(t *testing.T, s *Store) {
		j := mustCreate(t, s, &Job{Total: 1})
		if err := s.SetState(j.ID, StateRunning); err != nil {
			t.Fatal(err)
		}
		if err := s.SetState(j.ID, StatePending); err != nil {
			t.Fatal(err)
		}
		claimed, ok := s.Claim(j.ID)
		if !ok || claimed.State != StateRunning {
			t.Fatalf("claim after release: ok=%v %+v", ok, claimed)
		}
		if _, ok := s.Claim(j.ID); ok {
			t.Fatal("double claim succeeded")
		}
		if err := s.SetState(j.ID, StateDone); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Claim(j.ID); ok {
			t.Fatal("claimed a terminal job")
		}
	})
}

// TestStoreUnknownIDsAreNoOps: mutating a job that raced a Remove is a
// no-op, never an error.
func TestStoreUnknownIDsAreNoOps(t *testing.T) {
	eachStore(t, func(t *testing.T, s *Store) {
		if err := s.SetState("job-000099", StateDone); err != nil {
			t.Fatal(err)
		}
		if err := s.PutItem("job-000099", 0, json.RawMessage(`1`), false); err != nil {
			t.Fatal(err)
		}
		if err := s.MarkWebhookSent("job-000099"); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Claim("job-000099"); ok {
			t.Fatal("claimed a job the store never held")
		}
		if s.Len() != 0 {
			t.Fatalf("no-ops materialized %d jobs", s.Len())
		}
	})
}

// TestStoreItemBounds: out-of-range item indices are dropped and
// overwriting a filled slot never double-counts.
func TestStoreItemBounds(t *testing.T) {
	eachStore(t, func(t *testing.T, s *Store) {
		j := mustCreate(t, s, &Job{Total: 2})
		for _, idx := range []int{-1, 2, 1 << 30} {
			if err := s.PutItem(j.ID, idx, json.RawMessage(`1`), false); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.PutItem(j.ID, 0, json.RawMessage(`1`), true); err != nil {
			t.Fatal(err)
		}
		if err := s.PutItem(j.ID, 0, json.RawMessage(`2`), true); err != nil {
			t.Fatal(err)
		}
		got, _ := s.Get(j.ID)
		if got.Completed != 1 || got.Failed != 1 {
			t.Fatalf("counters after overwrite: completed=%d failed=%d", got.Completed, got.Failed)
		}
		if string(got.Items[0]) != `2` {
			t.Fatalf("overwrite did not land: %s", got.Items[0])
		}
	})
}

func TestStoreListPaging(t *testing.T) {
	eachStore(t, func(t *testing.T, s *Store) {
		for i := 0; i < 5; i++ {
			mustCreate(t, s, &Job{Total: 1})
		}
		s.SetState("job-000002", StateDone)
		s.SetState("job-000004", StateDone)

		page := s.List(ListQuery{Limit: 2})
		if len(page.Jobs) != 2 || page.Jobs[0].ID != "job-000001" || page.Jobs[1].ID != "job-000002" {
			t.Fatalf("first page: %+v", page)
		}
		if page.NextCursor != "job-000002" {
			t.Fatalf("first cursor %q", page.NextCursor)
		}
		page = s.List(ListQuery{Limit: 10, After: page.NextCursor})
		if len(page.Jobs) != 3 || page.Jobs[0].ID != "job-000003" || page.NextCursor != "" {
			t.Fatalf("second page: %+v", page)
		}

		// Filtered listing, and an exactly-full page carries no cursor.
		page = s.List(ListQuery{States: []State{StateDone}, Limit: 2})
		if len(page.Jobs) != 2 || page.Jobs[0].ID != "job-000002" || page.Jobs[1].ID != "job-000004" {
			t.Fatalf("filtered page: %+v", page)
		}
		if page.NextCursor != "" {
			t.Fatalf("exhausted filtered listing still has cursor %q", page.NextCursor)
		}

		// Unparseable cursors restart from the beginning, not error.
		page = s.List(ListQuery{After: "definitely-not-a-job", Limit: 1})
		if len(page.Jobs) != 1 || page.Jobs[0].ID != "job-000001" {
			t.Fatalf("foreign cursor page: %+v", page)
		}
	})
}

func TestStoreSweepAndStats(t *testing.T) {
	eachStore(t, func(t *testing.T, s *Store) {
		a := mustCreate(t, s, &Job{Total: 1})
		mustCreate(t, s, &Job{Total: 1})
		c := mustCreate(t, s, &Job{Total: 1})
		s.SetState(a.ID, StateDone)
		s.SetState(c.ID, StateCancelled)

		st := s.Stats()
		if st.Stored != 3 || st.Pending != 1 || st.Done != 1 || st.Cancelled != 1 || st.Submitted != 3 {
			t.Fatalf("stats: %+v", st)
		}

		// Only terminal jobs past the TTL go; the pending one stays even
		// with a zero TTL.
		if n := s.Sweep(time.Now().Add(time.Hour), time.Minute); n != 2 {
			t.Fatalf("swept %d, want 2", n)
		}
		if n := s.Sweep(time.Now().Add(time.Hour), time.Minute); n != 0 {
			t.Fatalf("second sweep evicted %d", n)
		}
		st = s.Stats()
		if st.Stored != 1 || st.Pending != 1 || st.Evicted != 2 {
			t.Fatalf("stats after sweep: %+v", st)
		}
	})
}

// TestListOrdersNumerically pins the claim in the cursor docs: listing
// order is the numeric sequence, not the string form, so paging keeps
// working past job-999999 where zero-padding stops aligning the two.
func TestListOrdersNumerically(t *testing.T) {
	m := New()
	defer m.Close()
	m.seq = 999998
	for i := 0; i < 3; i++ {
		mustCreate(t, m, &Job{Total: 1})
	}
	// String order would put "job-1000000" < "job-999999".
	page := m.List(ListQuery{Limit: 2})
	if page.Jobs[0].ID != "job-999999" || page.Jobs[1].ID != "job-1000000" || page.NextCursor != "job-1000000" {
		t.Fatalf("page across the padding boundary: %+v", page)
	}
	page = m.List(ListQuery{After: page.NextCursor})
	if len(page.Jobs) != 1 || page.Jobs[0].ID != "job-1000001" {
		t.Fatalf("resume across the padding boundary: %+v", page)
	}
}

func TestIDFormatRoundTrip(t *testing.T) {
	for _, n := range []uint64{1, 42, 999999, 1000000, 1 << 40} {
		id := formatID(n)
		got, ok := seqOf(id)
		if !ok || got != n {
			t.Fatalf("seqOf(formatID(%d)) = %d, %v", n, got, ok)
		}
	}
	for _, id := range []string{"", "job-", "job-x", "jobs-000001", "b2-job-000001"} {
		if _, ok := seqOf(id); ok {
			t.Fatalf("seqOf accepted foreign ID %q", id)
		}
	}
}

// TestStoreSnapshotIsolation: jobs leaving the store are copies;
// mutating them must not reach the record.
func TestStoreSnapshotIsolation(t *testing.T) {
	eachStore(t, func(t *testing.T, s *Store) {
		j := mustCreate(t, s, &Job{Total: 1})
		got, _ := s.Get(j.ID)
		got.State = StateCancelled
		got.Items[0] = json.RawMessage(`"tampered"`)
		fresh, _ := s.Get(j.ID)
		if fresh.State != StatePending || fresh.Items[0] != nil {
			t.Fatalf("caller mutation reached the store: %+v", fresh)
		}
	})
}

func TestStoreConcurrentUse(t *testing.T) {
	eachStore(t, func(t *testing.T, s *Store) {
		const jobs = 8
		ids := make([]string, jobs)
		for i := range ids {
			ids[i] = mustCreate(t, s, &Job{Total: 4}).ID
		}
		done := make(chan struct{})
		for i, id := range ids {
			go func(i int, id string) {
				defer func() { done <- struct{}{} }()
				s.SetState(id, StateRunning)
				for idx := 0; idx < 4; idx++ {
					s.PutItem(id, idx, json.RawMessage(fmt.Sprintf(`{"i":%d}`, idx)), false)
					s.Get(id)
					s.List(ListQuery{Limit: 3})
				}
				s.SetState(id, StateDone)
			}(i, id)
		}
		for range ids {
			<-done
		}
		st := s.Stats()
		if st.Done != jobs {
			t.Fatalf("stats after concurrent runs: %+v", st)
		}
		for _, id := range ids {
			if j, _ := s.Get(id); j.Completed != 4 {
				t.Fatalf("job %s completed %d/4", id, j.Completed)
			}
		}
	})
}

// TestStoreModesAgree applies one seeded random sequence of operations
// to a memory store and a durable one in lockstep. After every step the
// two must agree on every record, the full listing and the gauges, up
// to timestamps: a memory-mode branch that changed the bookkeeping
// would show here. The durable store compacts every few records, so
// the sequence crosses mid-life and terminal compactions too. The
// memory store runs in an empty working directory, which must stay
// empty.
func TestStoreModesAgree(t *testing.T) {
	t.Chdir(t.TempDir())
	mem := New()
	defer mem.Close()
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	disk.snapshotEvery = 4

	// strip blanks the timestamps, which each store takes from its own
	// clock, keeping only whether Finished is set.
	strip := func(j *Job) *Job {
		if j == nil {
			return nil
		}
		c := *j
		c.Created = time.Time{}
		if !c.Finished.IsZero() {
			c.Finished = time.Unix(1, 0)
		}
		return &c
	}
	stripPage := func(p ListPage) ListPage {
		for i, j := range p.Jobs {
			p.Jobs[i] = strip(j)
		}
		return p
	}
	agree := func(step int, op string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d (%s): memory %+v, durable %+v", step, op, a, b)
		}
	}
	noErr := func(step int, op string, errs ...error) {
		t.Helper()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("step %d (%s): %v", step, op, err)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	states := []State{StatePending, StateRunning, StateDone, StateCancelled}
	var ids []string // every ID ever created, removed ones included
	pick := func() string {
		if len(ids) == 0 || rng.Intn(10) == 0 {
			return "job-999999" // never created
		}
		return ids[rng.Intn(len(ids))]
	}
	for step := 0; step < 800; step++ {
		var op string
		switch rng.Intn(8) {
		case 0, 1:
			op = "create"
			total := rng.Intn(5)
			a := &Job{Total: total, Request: json.RawMessage(`{"n":1}`), WebhookURL: "http://x/hook"}
			b := &Job{Total: total, Request: json.RawMessage(`{"n":1}`), WebhookURL: "http://x/hook"}
			noErr(step, op, mem.Create(a), disk.Create(b))
			agree(step, op, a.ID, b.ID)
			ids = append(ids, a.ID)
		case 2:
			id, st := pick(), states[rng.Intn(len(states))]
			op = fmt.Sprintf("SetState(%s, %s)", id, st)
			noErr(step, op, mem.SetState(id, st), disk.SetState(id, st))
		case 3:
			id, idx, failed := pick(), rng.Intn(7)-1, rng.Intn(3) == 0
			op = fmt.Sprintf("PutItem(%s, %d)", id, idx)
			res := json.RawMessage(fmt.Sprintf(`{"step":%d}`, step))
			noErr(step, op, mem.PutItem(id, idx, res, failed), disk.PutItem(id, idx, res, failed))
		case 4:
			id := pick()
			op = "MarkWebhookSent(" + id + ")"
			noErr(step, op, mem.MarkWebhookSent(id), disk.MarkWebhookSent(id))
		case 5:
			id := pick()
			op = "Claim(" + id + ")"
			a, okA := mem.Claim(id)
			b, okB := disk.Claim(id)
			agree(step, op, okA, okB)
			agree(step, op, strip(a), strip(b))
		case 6:
			id := pick()
			op = "Remove(" + id + ")"
			a, okA := mem.Remove(id)
			b, okB := disk.Remove(id)
			agree(step, op, okA, okB)
			agree(step, op, strip(a), strip(b))
		case 7:
			op = "Sweep"
			now := time.Now()
			agree(step, op, mem.Sweep(now, 0), disk.Sweep(now, 0))
		}
		for _, id := range ids {
			a, okA := mem.Get(id)
			b, okB := disk.Get(id)
			agree(step, op+"; Get("+id+")", okA, okB)
			agree(step, op+"; Get("+id+")", strip(a), strip(b))
		}
		agree(step, op+"; List", stripPage(mem.List(ListQuery{})), stripPage(disk.List(ListQuery{})))
		agree(step, op+"; Stats", mem.Stats(), disk.Stats())
	}
	if st := mem.Stats(); st.Submitted < 100 || st.Evicted == 0 {
		t.Fatalf("the sequence exercised too little: %+v", st)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("the memory store wrote %d files into the working directory", len(entries))
	}
}
