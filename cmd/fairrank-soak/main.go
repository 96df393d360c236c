// Command fairrank-soak runs the serving stack's end-to-end drills and
// appends their numbers to a BENCH artifact. Each drill is one row of
// the drills table below: the stack it starts, the traffic it sends,
// the failure it injects, and the checks that must all pass before its
// lines are written.
//
//	go build -o fairrankd ./cmd/fairrankd
//	fairrank-soak -drill all -fairrankd-bin ./fairrankd -out BENCH_pr.json
//
// -drill names one drill or "all" (the default: every row, in order).
// -fairrankd-bin is the binary the restart drill kills and restarts; a
// run that includes that drill refuses to start without it. -out is the
// file the lines are appended to ("-" for stdout). A failed check makes
// the run exit nonzero, naming the drill and the check; the other
// drills still run and write their lines.
//
// The drills:
//
//	sync         in-process server; /v1/rank with every 10th request a
//	             /v1/rank/batch, 5% cancelled client-side mid-flight
//	jobs         in-process server; async jobs submitted, polled to done,
//	             verified, and 10% cancelled through DELETE
//	restart      a fairrankd child on a durable temp job dir, SIGKILLed a
//	             third of the way through a jobs run and restarted over
//	             the same store
//	topk         in-process server over pools of up to 5000 candidates,
//	             60% of requests asking for a top-k prefix
//	topk-pl      as topk, every request drawing Plackett–Luce noise
//	fleet        the gateway over three in-process backends, the one
//	             with the most attempts in flight stopped a third of
//	             the way through
//	noise-sweep  no server: the conformance degradation sweep, every
//	             registry algorithm's fairness and quality as
//	             attribute noise rises
//
// Every load drill sends the built-in corpus it names with 4 clients,
// top_k 10, batches of 4 and base seed 1: request i carries seed 1+i, so
// a drill is replayable. The route and draw-path checks compare the
// server's GET /v1/metrics with the client's own ledger, which holds
// only because each drill starts a server that serves nothing else.
//
// A load drill writes one "soak" line per endpoint and one
// "soak-summary" line; the sweep writes one "noise-curve" line per
// algorithm, scenario and noise level, and one "noise-summary" line.
// Each line is one JSON object, so the lines coexist with a
// `go test -json` stream in the same file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/conformance"
	"repro/internal/gateway"
	"repro/internal/scenario"
	"repro/internal/service"
)

// The traffic every load drill shares.
const (
	clients     = 4
	topK        = 10
	batchSize   = 4
	seed        = 1
	cancelAfter = 2 * time.Millisecond // longest delay before an injected client cancel
	fleetSize   = 3
)

// stack is what a drill runs its traffic against.
type stack int

const (
	inProcess stack = iota // one in-process server
	child                  // a fairrankd child process on a fresh temp job dir
	fleet                  // the gateway over fleetSize in-process backends
	sweep                  // no server: the conformance noise sweep
)

// injection is the failure a drill injects while its traffic runs; the
// zero value injects none.
type injection int

const (
	killRestart injection = iota + 1 // SIGKILL the child at 1/3 once its store holds a long job of the drill's own, then restart it
	killBackend                      // stop the backend with the most attempts in flight at 1/3
)

// traffic is what a drill sends.
type traffic struct {
	corpus     string  // built-in corpus (internal/scenario)
	maxN       int     // drop specs with more candidates; 0 keeps all
	requests   int     // logical requests; for the sweep, rankings drawn per point
	jobs       bool    // submit async jobs of batchSize entries instead of sync requests
	batchEvery int     // every k-th sync request goes to /v1/rank/batch; 0 sends none
	cancel     float64 // fraction of requests cancelled by the client
	fullPct    int     // percent of requests asking for the full ranking instead of top_k
	noise      string  // noise override; "" takes the server default
}

// check is one gate of a drill, run on its outcome after the traffic.
type check struct {
	name string
	fn   func(*outcome) error
}

type drill struct {
	name    string
	stack   stack
	traffic traffic
	inject  injection
	checks  []check
}

// drills is the table the binary runs, in order.
var drills = []drill{{
	name:    "sync",
	stack:   inProcess,
	traffic: traffic{corpus: "smoke", requests: 300, batchEvery: 10, cancel: 0.05},
	checks:  []check{zeroFailures, batchCompleted, routesReconcile, drawPathsReconcile},
}, {
	name:    "jobs",
	stack:   inProcess,
	traffic: traffic{corpus: "smoke", requests: 60, jobs: true, cancel: 0.1},
	checks:  []check{zeroFailures, jobsVerified, routesReconcile, drawPathsReconcile},
}, {
	name:    "restart",
	stack:   child,
	traffic: traffic{corpus: "smoke", requests: 120, jobs: true},
	inject:  killRestart,
	checks:  []check{zeroFailures, restartFired, jobsRecovered},
}, {
	name:    "topk",
	stack:   inProcess,
	traffic: traffic{corpus: "topk", maxN: 5000, requests: 120, batchEvery: 10, fullPct: 40},
	checks:  []check{zeroFailures, routesReconcile, drawPathsReconcile},
}, {
	name:    "topk-pl",
	stack:   inProcess,
	traffic: traffic{corpus: "topk", maxN: 5000, requests: 120, batchEvery: 10, fullPct: 40, noise: "plackett-luce"},
	checks:  []check{zeroFailures, routesReconcile, drawPathsReconcile, truncatedOn("plackett-luce")},
}, {
	name:    "fleet",
	stack:   fleet,
	traffic: traffic{corpus: "smoke", requests: 300, batchEvery: 10},
	inject:  killBackend,
	checks:  []check{zeroFailures, routesReconcile, noUnroutable, victimDemoted, fallbackFired, fleetEngineReports},
}, {
	name:    "noise-sweep",
	stack:   sweep,
	traffic: traffic{corpus: "noise", requests: 40},
	checks:  []check{noViolations, zeroNoiseIdentity, threeFlipLevels},
}}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fairrank-soak: ")
	var names []string
	for _, d := range drills {
		names = append(names, d.name)
	}
	name := flag.String("drill", "all", "drill to run: "+strings.Join(names, ", ")+`, or "all"`)
	bin := flag.String("fairrankd-bin", "", "fairrankd binary the restart drill kills and restarts")
	out := flag.String("out", "-", `append JSON lines here ("-" for stdout)`)
	flag.Parse()

	selected := drills
	if *name != "all" {
		selected = nil
		for _, d := range drills {
			if d.name == *name {
				selected = []drill{d}
			}
		}
		if selected == nil {
			log.Fatalf("-drill %q: want one of %s, or all", *name, strings.Join(names, ", "))
		}
	}
	for _, d := range selected {
		if d.stack == child && *bin == "" {
			log.Fatalf("drill %s needs -fairrankd-bin: it kills and restarts a real fairrankd process", d.name)
		}
	}
	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	enc := json.NewEncoder(w)
	failed := 0
	for _, d := range selected {
		start := time.Now()
		if err := d.run(*bin, enc); err != nil {
			log.Printf("drill %s FAILED: %v", d.name, err)
			failed++
			continue
		}
		log.Printf("drill %s passed in %.2fs", d.name, time.Since(start).Seconds())
	}
	if failed > 0 {
		log.Printf("%d of %d drills failed", failed, len(selected))
		os.Exit(1)
	}
}

// outcome is what a drill's checks read: the client's ledger and the
// server's metrics after the traffic, or the sweep's report.
type outcome struct {
	run     *soakRun
	sum     Summary
	served  map[string]int64 // the server's (or gateway's) route counters
	metrics *service.MetricsResponse
	gw      *gateway.MetricsResponse
	fleet   *fleetHarness
	proc    *procHarness
	sweep   *conformance.NoiseReport
}

// run starts the drill's stack, sends its traffic with its injection
// armed, and runs its checks. It writes the drill's lines only when
// every check passed.
func (d drill) run(bin string, enc *json.Encoder) error {
	specs, err := scenario.LoadCorpus(d.traffic.corpus)
	if err != nil {
		return err
	}
	o := &outcome{}
	var lines []any
	if d.stack == sweep {
		o.sweep, err = conformance.RunNoiseSweep(context.Background(), conformance.Config{
			Draws: d.traffic.requests, Seed: seed, Scenarios: specs,
		}, nil)
		if err == nil {
			log.Print(o.sweep.Summary())
			lines = sweepLines(d, o.sweep)
		}
	} else {
		lines, err = d.load(specs, bin, o)
	}
	if err != nil {
		return err
	}
	for _, c := range d.checks {
		if err := c.fn(o); err != nil {
			return fmt.Errorf("check %q: %w", c.name, err)
		}
	}
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return nil
}

// load runs a load drill: its stack, traffic and injection, then a read
// of the server's metrics into o.
func (d drill) load(specs []scenario.Spec, bin string, o *outcome) ([]any, error) {
	// Finished jobs stay stored until the TTL sweep (DELETE on a done
	// job is a 409), so a jobs drill sizes the store for every job it
	// sends.
	cfg := service.Config{}
	if d.traffic.jobs {
		cfg.MaxJobs = d.traffic.requests + clients + 16
	}
	var base string
	switch d.stack {
	case inProcess:
		svc := service.New(cfg)
		defer svc.Close()
		srv := httptest.NewServer(service.NewHandler(svc))
		defer srv.Close()
		base = srv.URL
	case child:
		dir, err := os.MkdirTemp("", "fairrank-soak-jobs-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if o.proc, err = startProcHarness(bin, dir, cfg.MaxJobs); err != nil {
			return nil, err
		}
		defer o.proc.Close()
		base = o.proc.URL()
	case fleet:
		var err error
		if o.fleet, err = startFleetHarness(fleetSize, cfg); err != nil {
			return nil, err
		}
		defer o.fleet.Close()
		base = o.fleet.URL()
	}
	run, err := newSoakRun(base, d.traffic, specs)
	if err != nil {
		return nil, err
	}
	o.run = run
	inject := func() {}
	switch d.inject {
	case killRestart:
		// The dead window (kill → restarted and healthy) surfaces as
		// transport errors; the clients bridge it by retrying.
		run.retryTransport = true
		inject = func() { o.proc.killRestart(run.progress, d.traffic.requests) }
	case killBackend:
		inject = func() { o.fleet.killBusiest(run.progress, d.traffic.requests) }
	}
	injected := make(chan struct{})
	go func() {
		defer close(injected)
		inject()
	}()
	log.Printf("drill %s: %d requests of corpus %q (%d specs) against %s", d.name, d.traffic.requests, d.traffic.corpus, len(run.targets), base)
	o.sum = run.execute()
	o.sum.Drill = d.name
	<-injected

	o.served = map[string]int64{}
	if d.stack == fleet {
		o.gw = &gateway.MetricsResponse{}
		err = getJSON(run.client, base+"/v1/metrics", o.gw)
		for _, rt := range o.gw.Routes {
			o.served[rt.Route] = rt.Requests
		}
	} else {
		o.metrics = &service.MetricsResponse{}
		err = getJSON(run.client, base+"/v1/metrics", o.metrics)
		for _, rt := range o.metrics.Routes {
			o.served[rt.Route] = rt.Requests
		}
		if d.stack == inProcess {
			o.sum.TruncatedByNoise = o.metrics.Engine.DrawsTruncatedByNoise
		}
	}
	if err != nil {
		return nil, err
	}
	return run.report(o.sum), nil
}

// atThird blocks until a third of the drill's total requests have
// completed: when the injections fire.
func atThird(progress func() int, total int) {
	for progress() < max(total/3, 1) {
		time.Sleep(5 * time.Millisecond)
	}
}

// getJSON decodes the 200 answer to GET url into dst.
func getJSON(client *http.Client, url string, dst any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// The checks the table names. Each returns nil when its gate holds.
var (
	zeroFailures = check{"zero failures", func(o *outcome) error {
		if o.sum.Failures > 0 {
			return fmt.Errorf("%d of %d requests failed (excluding %d injected cancellations)", o.sum.Failures, o.sum.Requests, o.sum.Cancelled)
		}
		return nil
	}}
	batchCompleted = check{"a batch completed", func(o *outcome) error {
		if c := o.run.counts["POST /v1/rank/batch"]; c == nil || c.completed == 0 {
			return errors.New("no /v1/rank/batch request completed")
		}
		return nil
	}}
	// jobsVerified holds the drill to having proved something: a job
	// counts only once all its items checked out and its DELETE after
	// done answered 409 (anything else is a failure).
	jobsVerified = check{"jobs verified", func(o *outcome) error {
		if o.sum.Requests-o.sum.Cancelled-o.sum.Failures == 0 {
			return errors.New("no job finished and verified; every one was cancelled or failed")
		}
		return nil
	}}
	routesReconcile = check{"routes reconcile", func(o *outcome) error {
		return reconcileRoutes(o.run.counts, o.served)
	}}
	drawPathsReconcile = check{"draw paths reconcile", func(o *outcome) error {
		return o.run.reconcileDrawPaths(&o.metrics.Engine)
	}}
	restartFired = check{"restart fired", func(o *outcome) error {
		if o.proc.err != nil {
			return o.proc.err
		}
		if !o.proc.restarted {
			return errors.New("the SIGKILL and restart never fired")
		}
		return nil
	}}
	jobsRecovered = check{"jobs recovered", func(o *outcome) error {
		if o.metrics.Jobs.Recovered == 0 {
			return errors.New("the restarted server resumed no job from its store")
		}
		return nil
	}}
	noUnroutable = check{"no unroutable request", func(o *outcome) error {
		if n := o.gw.Picker.Unroutable; n != 0 {
			return fmt.Errorf("%d requests found no serving backend", n)
		}
		return nil
	}}
	victimDemoted = check{"victim demoted", func(o *outcome) error {
		vi := o.fleet.victim
		if vi < 0 {
			return errors.New("the kill never fired")
		}
		if v := o.gw.Backends[vi]; v.State == "serving" || v.Transitions == 0 {
			return fmt.Errorf("killed backend %s is %s after %d lifecycle transitions", v.Name, v.State, v.Transitions)
		}
		if f := o.gw.Fleet; f.Serving != fleetSize-1 || f.Reporting != fleetSize-1 {
			return fmt.Errorf("%d backends serving and %d reporting after the kill, want %d", f.Serving, f.Reporting, fleetSize-1)
		}
		return nil
	}}
	// fallbackFired: every picker decision is one forwarding attempt on
	// the routed paths, and retries decide again, so backend attempts
	// cover the decisions; the attempts torn by the kill must have been
	// retried on another backend.
	fallbackFired = check{"fallback fired", func(o *outcome) error {
		var attempts int64
		for _, b := range o.gw.Backends {
			attempts += b.Requests
		}
		p := o.gw.Picker
		if decisions := p.Primary + p.Fallback; decisions == 0 || attempts < decisions {
			return fmt.Errorf("backends saw %d attempts for %d picker decisions", attempts, decisions)
		}
		if p.Fallback == 0 {
			return errors.New("no attempt was retried on another backend after the kill")
		}
		return nil
	}}
	fleetEngineReports = check{"fleet engine reports", func(o *outcome) error {
		if e := o.gw.Fleet.Engine; e.Requests == 0 || e.Draws == 0 {
			return fmt.Errorf("fleet engine aggregate is empty (%d requests, %d draws)", e.Requests, e.Draws)
		}
		return nil
	}}
	noViolations = check{"no violations", func(o *outcome) error {
		if v := o.sweep.Violations; o.sweep.Failed() {
			return fmt.Errorf("%d violations, the first: %s", len(v), v[0])
		}
		return nil
	}}
	zeroNoiseIdentity = check{"zero-noise identity", func(o *outcome) error {
		for _, c := range o.sweep.Curves {
			if !c.ZeroNoiseIdentical {
				return fmt.Errorf("%s on %s: the noiseless anchor differs from the uncorrupted sweep", c.Algorithm, c.Scenario)
			}
		}
		return nil
	}}
	threeFlipLevels = check{"three flip levels", func(o *outcome) error {
		flips := map[float64]bool{}
		for _, c := range o.sweep.Curves {
			for _, pt := range c.Points {
				flips[pt.Flip] = true
			}
		}
		if len(flips) < 3 {
			return fmt.Errorf("the curves cover %d flip levels, want at least 3", len(flips))
		}
		return nil
	}}
)

// truncatedOn requires the engine to have served truncated top-k draws
// on the noise axis.
func truncatedOn(noise string) check {
	return check{"truncated draws on " + noise, func(o *outcome) error {
		if o.metrics.Engine.DrawsTruncatedByNoise[noise] == 0 {
			return fmt.Errorf("draws_truncated_by_noise[%q] is 0", noise)
		}
		return nil
	}}
}

// reconcileRoutes holds a server's route counters to the client's
// ledger: a route's counter must land in [completed, attempted] —
// below means lost counts, above phantom ones.
func reconcileRoutes(ledger map[string]*routeCount, served map[string]int64) error {
	for route, c := range ledger {
		got, ok := served[route]
		if !ok {
			return fmt.Errorf("route %q missing from /v1/metrics", route)
		}
		if got < c.completed || got > c.attempts {
			return fmt.Errorf("route %q: server counted %d requests, client ledger wants [%d, %d]",
				route, got, c.completed, c.attempts)
		}
	}
	return nil
}
