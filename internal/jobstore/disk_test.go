package jobstore

// Durable-mode mechanics: WAL replay edge cases (empty files, torn tails,
// snapshot+tail, duplicate records), the crash windows of compaction,
// and restart round-trips. The behavioral Store contract is covered by
// the conformance suite in jobstore_test.go.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func reopen(t *testing.T, d *Store) *Store {
	t.Helper()
	dir := d.dir
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	nd, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// walLine marshals one record the way the store writes it.
func walLine(t *testing.T, rec *walRecord) []byte {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

func writeFileT(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskRestartRoundTrip: the baseline durability claim — everything
// written before a clean close replays identically, and the sequence
// counter resumes past the highest replayed ID.
func TestDiskRestartRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	running := mustCreate(t, d, &Job{Total: 2, Request: json.RawMessage(`{"r":1}`), WebhookURL: "http://x/hook"})
	d.SetState(running.ID, StateRunning)
	d.PutItem(running.ID, 1, json.RawMessage(`{"ok":1}`), false)
	finished := mustCreate(t, d, &Job{Total: 1})
	d.SetState(finished.ID, StateRunning)
	d.PutItem(finished.ID, 0, json.RawMessage(`{"error":"x"}`), true)
	d.SetState(finished.ID, StateDone)
	d.MarkWebhookSent(finished.ID)

	d = reopen(t, d)
	defer d.Close()

	r, ok := d.Get(running.ID)
	if !ok || r.State != StateRunning || r.Completed != 1 || r.Items[0] != nil ||
		string(r.Items[1]) != `{"ok":1}` || string(r.Request) != `{"r":1}` || r.WebhookURL != "http://x/hook" {
		t.Fatalf("running job after restart: ok=%v %+v", ok, r)
	}
	// Replay leaves jobs unclaimed: the resume path must be able to
	// claim what the dead process was running.
	if _, ok := d.Claim(running.ID); !ok {
		t.Fatal("replayed job not claimable")
	}

	f, ok := d.Get(finished.ID)
	if !ok || f.State != StateDone || f.Failed != 1 || !f.WebhookSent || f.Finished.IsZero() {
		t.Fatalf("finished job after restart: ok=%v %+v", ok, f)
	}
	// Terminal jobs are fully compacted: snapshot only, no WAL left.
	if _, err := os.Stat(d.walPath(finished.ID)); !os.IsNotExist(err) {
		t.Fatalf("terminal job still has a WAL: %v", err)
	}

	if next := mustCreate(t, d, &Job{Total: 1}); next.ID != "job-000003" {
		t.Fatalf("sequence did not resume: %q", next.ID)
	}
}

// TestDiskReplayEmptyWAL: a WAL that never got its create record (the
// crash hit between open and append) identifies a job that was never
// acknowledged — replay forgets it and removes the file.
func TestDiskReplayEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	writeFileT(t, filepath.Join(dir, "job-000007.wal"), nil)
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != 0 {
		t.Fatalf("empty WAL materialized %d jobs", d.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "job-000007.wal")); !os.IsNotExist(err) {
		t.Fatal("empty WAL not cleaned up")
	}
	// The unacknowledged job never happened, so its ID is reusable.
	if j := mustCreate(t, d, &Job{Total: 1}); j.ID != "job-000001" {
		t.Fatalf("sequence advanced past a forgotten job: %q", j.ID)
	}
}

// TestDiskReplayTornFinalRecord: a crash mid-append leaves a final line
// with no newline. Replay keeps everything before the tear, truncates
// the file there, and the job keeps working.
func TestDiskReplayTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	id := "job-000001"
	var wal []byte
	wal = append(wal, walLine(t, &walRecord{Op: opCreate, Job: &walJob{
		ID: id, State: StatePending, Created: time.Now().UTC(), Total: 2,
	}})...)
	wal = append(wal, walLine(t, &walRecord{Op: opState, State: StateRunning, At: time.Now().UTC()})...)
	full := walLine(t, &walRecord{Op: opItem, Index: 0, Res: json.RawMessage(`{"ok":1}`)})
	wal = append(wal, full[:len(full)/2]...) // torn: half a record, no newline
	path := filepath.Join(dir, id+".wal")
	writeFileT(t, path, wal)
	goodLen := len(wal) - len(full)/2

	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, ok := d.Get(id)
	if !ok || j.State != StateRunning || j.Completed != 0 {
		t.Fatalf("job after torn replay: ok=%v %+v", ok, j)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != goodLen {
		t.Fatalf("tail not truncated: %d bytes, want %d", len(raw), goodLen)
	}
	// The store appends past the truncation point cleanly.
	if err := d.PutItem(id, 0, json.RawMessage(`{"ok":1}`), false); err != nil {
		t.Fatal(err)
	}
	d = reopen(t, d)
	defer d.Close()
	if j, _ := d.Get(id); j.Completed != 1 {
		t.Fatalf("append after truncation lost: %+v", j)
	}
}

// TestDiskReplayCorruptMiddle: garbage in the middle of the WAL tears
// everything from that point — later intact-looking records are NOT
// applied (order is the only thing that makes replay sound).
func TestDiskReplayCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	id := "job-000001"
	var wal []byte
	wal = append(wal, walLine(t, &walRecord{Op: opCreate, Job: &walJob{
		ID: id, State: StatePending, Created: time.Now().UTC(), Total: 1,
	}})...)
	wal = append(wal, []byte("{corrupt garbage}\n")...)
	wal = append(wal, walLine(t, &walRecord{Op: opState, State: StateDone, At: time.Now().UTC()})...)
	writeFileT(t, filepath.Join(dir, id+".wal"), wal)

	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, ok := d.Get(id)
	if !ok || j.State != StatePending {
		t.Fatalf("replay crossed a corrupt record: ok=%v %+v", ok, j)
	}
}

// TestDiskReplaySnapshotPlusTail: a compacted job keeps mutating; the
// replayed state is snapshot + WAL tail.
func TestDiskReplaySnapshotPlusTail(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.snapshotEvery = 3 // force a mid-life compaction quickly
	j := mustCreate(t, d, &Job{Total: 4})
	d.SetState(j.ID, StateRunning)
	d.PutItem(j.ID, 0, json.RawMessage(`{"i":0}`), false)
	d.PutItem(j.ID, 1, json.RawMessage(`{"i":1}`), false) // 3rd append: compacts
	if _, err := os.Stat(d.snapPath(j.ID)); err != nil {
		t.Fatalf("compaction never fired: %v", err)
	}
	d.PutItem(j.ID, 2, json.RawMessage(`{"i":2}`), true) // tail past the snapshot

	d = reopen(t, d)
	defer d.Close()
	got, ok := d.Get(j.ID)
	if !ok || got.State != StateRunning || got.Completed != 3 || got.Failed != 1 {
		t.Fatalf("snapshot+tail replay: ok=%v %+v", ok, got)
	}
	for i := 0; i < 3; i++ {
		if got.Items[i] == nil {
			t.Fatalf("item %d lost across compaction", i)
		}
	}
}

// TestDiskReplayDuplicateTransitions: duplicate state records and
// re-delivered item records (both what a compaction crash window
// produces) replay idempotently — counters never double, terminal
// states never regress, Finished keeps its first stamp.
func TestDiskReplayDuplicateTransitions(t *testing.T) {
	dir := t.TempDir()
	id := "job-000001"
	first := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	later := first.Add(time.Hour)
	var wal []byte
	wal = append(wal, walLine(t, &walRecord{Op: opCreate, Job: &walJob{
		ID: id, State: StatePending, Created: first, Total: 2,
	}})...)
	wal = append(wal, walLine(t, &walRecord{Op: opCreate, Job: &walJob{ // duplicate create: skipped
		ID: id, State: StatePending, Created: later, Total: 2,
	}})...)
	wal = append(wal, walLine(t, &walRecord{Op: opState, State: StateRunning, At: first})...)
	wal = append(wal, walLine(t, &walRecord{Op: opState, State: StateRunning, At: later})...)
	wal = append(wal, walLine(t, &walRecord{Op: opItem, Index: 0, Res: json.RawMessage(`{"a":1}`), Fail: true})...)
	wal = append(wal, walLine(t, &walRecord{Op: opItem, Index: 0, Res: json.RawMessage(`{"a":2}`), Fail: true})...)
	wal = append(wal, walLine(t, &walRecord{Op: opState, State: StateDone, At: first})...)
	wal = append(wal, walLine(t, &walRecord{Op: opState, State: StateRunning, At: later})...) // regression: ignored
	wal = append(wal, walLine(t, &walRecord{Op: opState, State: StateDone, At: later})...)    // duplicate terminal
	writeFileT(t, filepath.Join(dir, id+".wal"), wal)

	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, ok := d.Get(id)
	if !ok {
		t.Fatal("job lost")
	}
	if j.State != StateDone || j.Completed != 1 || j.Failed != 1 {
		t.Fatalf("duplicates double-counted: %+v", j)
	}
	if !j.Created.Equal(first) || !j.Finished.Equal(first) {
		t.Fatalf("duplicate records moved the timestamps: created=%v finished=%v", j.Created, j.Finished)
	}
}

// TestDiskCrashBeforeSnapshotRename: crash window (a) of compaction —
// the tmp file was written but never renamed. The leftover .tmp is
// removed at open and the WAL stays authoritative.
func TestDiskCrashBeforeSnapshotRename(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, d, &Job{Total: 1})
	d.SetState(j.ID, StateRunning)
	tmp := d.snapPath(j.ID) + ".tmp"
	writeFileT(t, tmp, []byte(`{"op":"snapshot","job":{"id":"job-000001","state":"cancelled"`)) // half-written

	d = reopen(t, d)
	defer d.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover .tmp survived reopen")
	}
	got, ok := d.Get(j.ID)
	if !ok || got.State != StateRunning {
		t.Fatalf("WAL not authoritative after dead compaction: ok=%v %+v", ok, got)
	}
}

// TestDiskCrashAfterSnapshotRename: crash window (b) — the snapshot
// landed but the WAL was never truncated, so every WAL record is also
// folded into the snapshot. Replay applies them idempotently on top.
func TestDiskCrashAfterSnapshotRename(t *testing.T) {
	dir := t.TempDir()
	id := "job-000001"
	created := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	snap := walLine(t, &walRecord{Op: opSnapshot, Job: &walJob{
		ID: id, State: StateRunning, Created: created, Total: 2, Failed: 1,
		Items: []json.RawMessage{json.RawMessage(`{"a":1}`), json.RawMessage(`{"b":1}`)},
	}})
	writeFileT(t, filepath.Join(dir, id+".snap"), snap)
	var wal []byte // the records the snapshot was folded from, un-truncated
	wal = append(wal, walLine(t, &walRecord{Op: opCreate, Job: &walJob{
		ID: id, State: StatePending, Created: created, Total: 2,
	}})...)
	wal = append(wal, walLine(t, &walRecord{Op: opState, State: StateRunning, At: created})...)
	wal = append(wal, walLine(t, &walRecord{Op: opItem, Index: 0, Res: json.RawMessage(`{"a":1}`), Fail: true})...)
	wal = append(wal, walLine(t, &walRecord{Op: opItem, Index: 1, Res: json.RawMessage(`{"b":1}`)})...)
	writeFileT(t, filepath.Join(dir, id+".wal"), wal)

	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, ok := d.Get(id)
	if !ok || j.State != StateRunning || j.Completed != 2 || j.Failed != 1 {
		t.Fatalf("stale WAL over snapshot double-applied: ok=%v %+v", ok, j)
	}
}

// TestDiskCorruptSnapshotFallsBackToWAL: an unreadable snapshot is
// dropped and the WAL replays from scratch.
func TestDiskCorruptSnapshotFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	id := "job-000001"
	writeFileT(t, filepath.Join(dir, id+".snap"), []byte("not json at all\n"))
	writeFileT(t, filepath.Join(dir, id+".wal"), walLine(t, &walRecord{Op: opCreate, Job: &walJob{
		ID: id, State: StatePending, Created: time.Now().UTC(), Total: 1,
	}}))

	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if j, ok := d.Get(id); !ok || j.State != StatePending {
		t.Fatalf("WAL fallback failed: ok=%v %+v", ok, j)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".snap")); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot not dropped")
	}
}

// TestDiskWebhookMarkerAfterCompaction: MarkWebhookSent on a fully
// compacted (terminal, WAL-less) job rewrites the snapshot, and the
// marker survives a restart — the at-least-once redelivery loop
// depends on exactly this.
func TestDiskWebhookMarkerAfterCompaction(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, d, &Job{Total: 0, WebhookURL: "http://x/hook"})
	d.SetState(j.ID, StateDone) // compacts: snapshot only
	d = reopen(t, d)
	if got, _ := d.Get(j.ID); got.WebhookSent {
		t.Fatal("marker set before any delivery")
	}
	if err := d.MarkWebhookSent(j.ID); err != nil {
		t.Fatal(err)
	}
	d = reopen(t, d)
	defer d.Close()
	if got, _ := d.Get(j.ID); !got.WebhookSent {
		t.Fatal("webhook marker lost across restart")
	}
}

// TestDiskRemoveIsDurable: a removed job stays gone after restart, and
// replay tolerates the directory shrinking under it.
func TestDiskRemoveIsDurable(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keep := mustCreate(t, d, &Job{Total: 1})
	gone := mustCreate(t, d, &Job{Total: 1})
	d.SetState(gone.ID, StateDone)
	if _, ok := d.Remove(gone.ID); !ok {
		t.Fatal("remove failed")
	}
	d = reopen(t, d)
	defer d.Close()
	if _, ok := d.Get(gone.ID); ok {
		t.Fatal("removed job resurrected by replay")
	}
	if _, ok := d.Get(keep.ID); !ok {
		t.Fatal("unrelated job lost")
	}
}

// FuzzReplay feeds arbitrary bytes to the replay path as a job's
// snapshot and WAL. Whatever the bytes, Open must not panic, must
// not report an error (corruption is truncated, only real I/O fails
// the open), and must normalize the directory so that a second open
// replays to the identical record — the fuzzer's stand-in for "a crash
// at any byte boundary leaves a store the next process can run on".
func FuzzReplay(f *testing.F) {
	id := "job-000001"
	mk := func(recs ...*walRecord) []byte {
		var out []byte
		for _, r := range recs {
			raw, _ := json.Marshal(r)
			out = append(out, append(raw, '\n')...)
		}
		return out
	}
	create := &walRecord{Op: opCreate, Job: &walJob{ID: id, State: StatePending, Created: time.Unix(1700000000, 0).UTC(), Total: 2}}
	running := &walRecord{Op: opState, State: StateRunning, At: time.Unix(1700000001, 0).UTC()}
	item := &walRecord{Op: opItem, Index: 1, Res: json.RawMessage(`{"ok":1}`)}
	done := &walRecord{Op: opState, State: StateDone, At: time.Unix(1700000002, 0).UTC()}
	snap := &walRecord{Op: opSnapshot, Job: &walJob{ID: id, State: StateRunning, Created: time.Unix(1700000000, 0).UTC(), Total: 2,
		Items: []json.RawMessage{nil, json.RawMessage(`{"ok":1}`)}}}

	f.Add([]byte(""), []byte(""))
	f.Add([]byte(""), mk(create, running, item))
	f.Add([]byte(""), mk(create, running, item, done))
	f.Add(mk(snap), mk(create, running, item)) // un-truncated WAL behind a snapshot
	f.Add(mk(snap), []byte("{torn"))           // torn tail
	f.Add(mk(snap)[:20], mk(create))           // torn snapshot
	f.Add([]byte("garbage\n"), mk(create, create, running, running, done, done))
	f.Add([]byte(""), append(mk(create, running), []byte(`{"op":"item","i":999999999,"result":{}}`+"\n")...))

	f.Fuzz(func(t *testing.T, snapRaw, walRaw []byte) {
		dir := t.TempDir()
		if len(snapRaw) > 0 {
			writeFileT(t, filepath.Join(dir, id+".snap"), snapRaw)
		}
		writeFileT(t, filepath.Join(dir, id+".wal"), walRaw)

		d, err := Open(dir)
		if err != nil {
			t.Fatalf("replay errored on corrupt input (must truncate instead): %v", err)
		}
		first, ok := d.Get(id)
		if ok {
			// Whatever survived must be internally consistent.
			if first.Completed > first.Total || first.Failed > first.Completed || len(first.Items) != first.Total {
				t.Fatalf("inconsistent replayed job: %+v", first)
			}
			if !first.State.Valid() {
				t.Fatalf("invalid replayed state %q", first.State)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		// Second open: replay must be a fixpoint of its own output.
		d2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after normalization: %v", err)
		}
		defer d2.Close()
		second, ok2 := d2.Get(id)
		if ok != ok2 {
			t.Fatalf("job existence flapped across reopen: %v vs %v", ok, ok2)
		}
		if ok {
			a, _ := json.Marshal(snapJob(first))
			b, _ := json.Marshal(snapJob(second))
			if !bytes.Equal(a, b) {
				t.Fatalf("replay not idempotent:\nfirst  %s\nsecond %s", a, b)
			}
		}
	})
}
