package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/gateway"
	"repro/internal/service"
)

// stack is the serving stack under test, in process: one backend
// (service.NewHandler over service.New) behind a loopback listener, or
// two such backends behind the gateway.
type stack struct {
	svcs     []*service.Service
	handlers []http.Handler // each backend's handler, unwrapped
	backends []*httptest.Server
	gw       *gateway.Gateway
	gwSrv    *httptest.Server
	target   string // base URL the clients call
	client   *http.Client
}

// newStack builds the stack and waits until it can serve: with a gateway,
// until its probes have promoted both backends to serving. tr, when
// non-nil, wraps every server handler in a span recorder.
func newStack(w *workload, tr *tracer) (*stack, error) {
	s := &stack{}
	nBackends := 1
	if w.gateway {
		nBackends = 2
	}
	urls := make([]string, nBackends)
	for i := range urls {
		svc := service.New(service.Config{})
		h := service.NewHandler(svc)
		s.svcs = append(s.svcs, svc)
		s.handlers = append(s.handlers, h)
		srv := httptest.NewServer(tr.wrap("backend", h))
		s.backends = append(s.backends, srv)
		urls[i] = srv.URL
	}
	s.target = urls[0]
	if w.gateway {
		// The probe interval and retry backoff fairrank-soak -fleet uses:
		// the pool converges in a few probe rounds.
		g, err := gateway.New(gateway.Config{
			Backends:      urls,
			ProbeInterval: 25 * time.Millisecond,
			RetryBackoff:  5 * time.Millisecond,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.gw = g
		g.Start()
		s.gwSrv = httptest.NewServer(tr.wrap("gateway", g.Handler()))
		s.target = s.gwSrv.URL
		deadline := time.Now().Add(10 * time.Second)
		for g.Serving() < nBackends {
			if time.Now().After(deadline) {
				s.close()
				return nil, fmt.Errorf("gateway stuck at %d/%d serving backends", g.Serving(), nBackends)
			}
			time.Sleep(time.Millisecond)
		}
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     w.clients,
		MaxIdleConnsPerHost: w.clients,
		DisableCompression:  true,
	}}
	return s, nil
}

// warmUp sends, to every backend the workload reaches, one call of each
// distinct engine shape the workload uses, and checks the responses.
// With a gateway the calls go to each backend directly, so both are warm
// whichever shards they own, and once more through the gateway.
func (s *stack) warmUp(w *workload, calls []*call) error {
	cover := shapeCover(calls)
	targets := []string{s.target}
	if w.gateway {
		targets = nil
		for _, b := range s.backends {
			targets = append(targets, b.URL)
		}
	}
	var buf bytes.Buffer
	for _, base := range targets {
		for _, c := range cover {
			if err := s.checkedPost(w, base, c, "warmup", &buf); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if w.gateway {
		if err := s.checkedPost(w, s.target, cover[0], "warmup", &buf); err != nil {
			return fmt.Errorf("warm-up through the gateway: %w", err)
		}
	}
	return nil
}

// shapeCover picks, in sequence order, the calls that first use each
// distinct engine shape.
func shapeCover(calls []*call) []*call {
	seen := map[shape]bool{}
	var cover []*call
	for _, c := range calls {
		fresh := false
		for _, e := range c.entries {
			if !seen[e.shape] {
				seen[e.shape] = true
				fresh = true
			}
		}
		if fresh {
			cover = append(cover, c)
		}
	}
	return cover
}

func (s *stack) checkedPost(w *workload, base string, c *call, id string, buf *bytes.Buffer) error {
	a, b := c.parts(0)
	status, err := post(s.client, base+w.path(), a, b, id, buf)
	if err != nil {
		return err
	}
	_, err = checkResponse(c, w.batch, status, buf.Bytes())
	return err
}

func (w *workload) path() string {
	if w.batch {
		return "/v1/rank/batch"
	}
	return "/v1/rank"
}

// post sends the body a+b and reads the whole response into buf.
func post(client *http.Client, url string, a, b []byte, id string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, io.MultiReader(bytes.NewReader(a), bytes.NewReader(b)))
	if err != nil {
		return 0, err
	}
	req.ContentLength = int64(len(a) + len(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// close stops the servers, the gateway's probes and the services, and
// waits for their goroutines.
func (s *stack) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.gwSrv != nil {
		s.gwSrv.Close()
	}
	if s.gw != nil {
		s.gw.Stop()
	}
	for _, b := range s.backends {
		b.Close()
	}
	for _, svc := range s.svcs {
		svc.Close()
	}
}
