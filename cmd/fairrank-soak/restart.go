package main

// The restart drill's stack: one real fairrankd child process with a
// durable -job-dir, killed with SIGKILL a third of the way through the
// run and restarted over the same store. SIGKILL, not SIGTERM, is the
// point: no drain, no suspend, no goodbye; whatever the WAL holds at
// that instant is all the restarted process gets, and the drill holds
// only if every interrupted job still finishes with verified items.
// The graceful-drain half of the durability story is covered by the
// in-package service tests; this is the half only a dead process can
// prove.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/service"
)

// procHarness owns the child. Only the drill's goroutine and, while the
// traffic runs, its injection touch it, and the drill waits for the
// injection before it closes the harness.
type procHarness struct {
	bin, dir string
	port     int
	maxJobs  int
	cmd      *exec.Cmd

	restarted bool  // the kill and restart ran
	err       error // why the injection did not fire or the restart did not come up
}

// startProcHarness picks a port, starts the fairrankd child on it, and
// blocks until it answers health checks.
func startProcHarness(bin, dir string, maxJobs int) (*procHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	h := &procHarness{bin: bin, dir: dir, port: port, maxJobs: maxJobs}
	if err := h.start(); err != nil {
		return nil, err
	}
	if err := h.waitHealthy(15 * time.Second); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

func (h *procHarness) URL() string { return fmt.Sprintf("http://127.0.0.1:%d", h.port) }

func (h *procHarness) start() error {
	cmd := exec.Command(h.bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", h.port),
		"-job-dir", h.dir,
		"-max-jobs", strconv.Itoa(h.maxJobs),
		"-quiet",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", h.bin, err)
	}
	h.cmd = cmd
	return nil
}

func (h *procHarness) waitHealthy(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(h.URL() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fairrankd child not healthy within %s", budget)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// killRestart is the durability injection: once the run has completed
// a third of its requests, the child is killed abruptly and restarted
// over the same -job-dir while the clients keep sending. The kill lands
// on unfinished work by construction: smoke-corpus jobs finish in
// single-digit milliseconds, so the injection submits a job of its own
// (see anchorJob), far longer than the kill latency, and kills once the
// store holds it unfinished.
func (h *procHarness) killRestart(progress func() int, total int) {
	atThird(progress, total)
	id, err := h.submitAnchor()
	if err != nil {
		h.err = fmt.Errorf("submitting the job the kill interrupts: %w", err)
		return
	}
	log.Printf("SIGKILL fairrankd (pid %d) with job %s unfinished", h.cmd.Process.Pid, id)
	h.cmd.Process.Kill()
	h.cmd.Wait()
	h.restarted = true
	if err := h.start(); err != nil {
		h.err = err
	} else if err := h.waitHealthy(15 * time.Second); err != nil {
		h.err = fmt.Errorf("the restarted fairrankd did not come up: %w", err)
	} else {
		log.Printf("restarted fairrankd (pid %d) over the same job dir", h.cmd.Process.Pid)
	}
}

// submitAnchor submits anchorJob and returns its ID once the child's
// store holds it pending or running.
func (h *procHarness) submitAnchor() (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(h.URL()+"/v1/jobs/rank", "application/json", bytes.NewReader(anchorJob()))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit status %d", resp.StatusCode)
	}
	var sub service.JobSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", fmt.Errorf("decoding the submit response: %w", err)
	}
	var st service.JobStatusResponse
	if err := getJSON(client, h.URL()+sub.StatusURL, &st); err != nil {
		return "", err
	}
	if st.State != service.JobStatePending && st.State != service.JobStateRunning {
		return "", fmt.Errorf("job %s is %s before the kill", sub.ID, st.State)
	}
	return sub.ID, nil
}

// anchorJob is the body of the job the kill interrupts: 8 items of 200
// candidates and 4,000 best-of draws each, about a second of CPU on a
// 2-vCPU VM, against a kill latency of one loopback round trip.
func anchorJob() []byte {
	cands := make([]service.Candidate, 200)
	for i := range cands {
		cands[i] = service.Candidate{ID: "c" + strconv.Itoa(i), Score: float64(i % 97), Group: []string{"a", "b"}[i%2]}
	}
	samples := 4000
	batch := service.BatchRequest{Requests: make([]service.RankRequest, 8)}
	for i := range batch.Requests {
		batch.Requests[i] = service.RankRequest{Candidates: cands, Samples: &samples, Seed: int64(i)}
	}
	body, err := json.Marshal(&batch)
	if err != nil {
		panic(err) // strings and finite numbers always encode
	}
	return body
}

func (h *procHarness) Close() {
	if h.cmd != nil {
		h.cmd.Process.Kill()
		h.cmd.Wait()
	}
}
