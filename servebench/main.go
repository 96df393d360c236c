// Command servebench is the repository's serving benchmark. It builds the
// serving stack in process — service.NewHandler over service.New, and
// gateway.New over two such backends — drives it over loopback HTTP with
// one of three seeded closed-loop workloads, checks every response with
// an independent oracle, and prints its metrics by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1088, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics, from spans recorded at the
// benchmark's own boundaries and from a sequential replay of a fixed
// sample of the workload's calls through each layer's public functions.
// See README.md for the metric definitions and the layer table.
//
// Run it from the repository root:
//
//	bash servebench/run.sh --workload shortlist --seed 1 --seconds 36 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times an untraced run builds and warms the
	// stack; setup_s is the median of the quiet ones.
	setups int
	// minCalls is the fewest timed calls a phase makes, so that p99 has
	// at least ten samples beyond it.
	minCalls int
	// replayCalls is the size of the traced run's replay sample, and
	// replayRounds how often it is replayed (medians are reported).
	replayCalls, replayRounds int
	// traceFile receives the traced run's spans; empty writes none.
	traceFile string
}

func main() {
	opts := options{setups: 21, minCalls: 1000, replayCalls: 12, replayRounds: 3}
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: shortlist, rerank or fleet-batch")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opts.seconds, "seconds", 36, "length of the timed phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.Parse()
	opts.trace = trace == 1
	opts.traceFile = fmt.Sprintf(".bench_build/servebench-%s-trace.jsonl", opts.workload)
	os.Exit(run(os.Stdout, opts))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and returns the process exit code: 0
// when every call and check passed, 1 otherwise.
func run(out io.Writer, opts options) int {
	w, err := workloadByName(opts.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	calls, err := w.generate(opts.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench: generating inputs:", err)
		return 1
	}
	var res *result
	if opts.trace {
		res, err = runTraced(out, w, calls, opts)
	} else {
		res, err = runUntraced(out, w, calls, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp builds and warms the stack, returning it with the time taken
// and the host steal meanwhile.
func setUp(w *workload, calls []*call, tr *tracer) (*stack, timed, error) {
	start, steal := time.Now(), hostSteal()
	s, err := newStack(w, tr)
	if err != nil {
		return nil, timed{}, err
	}
	if err := s.warmUp(w, calls); err != nil {
		s.close()
		return nil, timed{}, err
	}
	return s, timed{wall: time.Since(start), steal: hostSteal() - steal}, nil
}

// verify runs the checks that need more than one response: one call sent
// twice must return identical bytes, and through the gateway a batch must
// return the same bytes as from a backend directly.
func verify(s *stack, w *workload, calls []*call) error {
	var a, b bytes.Buffer
	if err := s.checkedPost(w, s.target, calls[0], "verify-1", &a); err != nil {
		return err
	}
	if err := s.checkedPost(w, s.target, calls[0], "verify-2", &b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("call 0 sent twice returned different bytes")
	}
	if w.gateway {
		if err := s.checkedPost(w, s.backends[0].URL, calls[0], "verify-direct", &b); err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("call 0 returned different bytes through the gateway and from a backend directly")
		}
	}
	return nil
}

func runUntraced(out io.Writer, w *workload, calls []*call, opts options) (*result, error) {
	var s *stack
	setups := make([]timed, 0, opts.setups)
	for i := 0; i < max(opts.setups, 1); i++ {
		if s != nil {
			s.close()
		}
		var t timed
		var err error
		if s, t, err = setUp(w, calls, nil); err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	defer s.close()
	ph := runPhase(s, w, calls, seconds(opts.seconds), opts.minCalls, nil, "call")
	verr := verify(s, w, calls)
	m := endToEnd(ph, setups)
	return report(out, w, opts, ph, setups, verr, m, endToEndSpecs, nil), nil
}

func runTraced(out io.Writer, w *workload, calls []*call, opts options) (*result, error) {
	tr := newTracer()
	s, _, err := setUp(w, calls, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	half := seconds(opts.seconds / 2)
	before := engineSnapshot(s)
	base := runPhase(s, w, calls, half, 0, nil, "base")
	after := engineSnapshot(s)
	tr.on.Store(true)
	traced := runPhase(s, w, calls, half, 0, tr, "traced")
	tr.on.Store(false)
	verr := verify(s, w, calls)
	if s.gw != nil {
		// Probes would allocate inside the replay's allocation counts.
		s.gw.Stop()
	}
	rp := newReplayer(w, s.handlers[0])
	defer rp.close()
	sample := calls[:min(opts.replayCalls, len(calls))]
	rounds := make([]*replayRound, 0, opts.replayRounds)
	for r := 0; r < opts.replayRounds; r++ {
		rr, err := rp.round(sample)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
	}
	tr.mu.Lock()
	loadSpans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	nest(loadSpans)
	m, selfTable := perLayer(s, base, traced, before, after, loadSpans, rounds, rp.tableNs, len(calls))
	if opts.traceFile != "" {
		all := loadSpans
		for _, rr := range rounds {
			// Renumber each round's spans past the ones already listed.
			off := len(all)
			for _, sp := range rr.spans {
				sp.ID += off
				if sp.Parent != 0 {
					sp.Parent += off
				}
				all = append(all, sp)
			}
		}
		if err := writeSpans(opts.traceFile, all); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	merged := &phaseResult{
		attempted: base.attempted + traced.attempted,
		failed:    base.failed + traced.failed,
		truncated: base.truncated || traced.truncated,
		firstErr:  base.firstErr,
	}
	if merged.firstErr == "" {
		merged.firstErr = traced.firstErr
	}
	return report(out, w, opts, merged, nil, verr, m, perLayerSpecs, selfTable), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
