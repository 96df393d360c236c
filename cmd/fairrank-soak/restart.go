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
	err       error // why the restart did not come up healthy
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
// over the same -job-dir while the clients keep sending. The kill is
// gated on the store provably holding unfinished work at that instant:
// smoke-corpus jobs finish in single-digit milliseconds, so a blind
// kill can land in a gap where every submitted job is already done and
// the restart would prove nothing about recovery.
func (h *procHarness) killRestart(progress func() int, total int) {
	atThird(progress, total)
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for !h.hasUnfinished(client) && time.Now().Before(deadline) {
	}
	log.Printf("SIGKILL fairrankd (pid %d) mid-run", h.cmd.Process.Pid)
	h.cmd.Process.Kill()
	h.cmd.Wait()
	h.restarted = true
	if h.err = h.start(); h.err == nil {
		h.err = h.waitHealthy(15 * time.Second)
	}
	if h.err == nil {
		log.Printf("restarted fairrankd (pid %d) over the same job dir", h.cmd.Process.Pid)
	}
}

// hasUnfinished reports whether the child's job store currently holds
// at least one pending or running job. The drill polls this in a tight
// loop and pulls the trigger the instant it turns true, keeping the
// window between "unfinished job observed" and "SIGKILL delivered" down
// to a syscall.
func (h *procHarness) hasUnfinished(client *http.Client) bool {
	var page service.JobListResponse
	err := getJSON(client, h.URL()+"/v1/jobs?state=pending&state=running", &page)
	return err == nil && len(page.Jobs) > 0
}

func (h *procHarness) Close() {
	if h.cmd != nil {
		h.cmd.Process.Kill()
		h.cmd.Wait()
	}
}
