package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/trace"
)

// The benchmark owns its load generator: open-loop schedules are drawn from
// the seed before the phase starts, every request goes over one of at most
// nproc keep-alive connections, and open-loop latency is timed from each
// request's due time, so a stall also charges the requests queued behind it.

// request is one generated request.
type request struct {
	id, path string
	due      time.Duration // offset from the phase start (open loop)
}

// outcome is what the generator saw for one request.
type outcome struct {
	latency time.Duration // from due time (open loop) or send time (closed loop)
	lag     time.Duration // send time minus due time
	ok      bool
}

// verdict checks one reply to req.
type verdict func(req request, status int, body []byte) bool

// poisson draws a Poisson arrival schedule of rate per second over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var (
		out []time.Duration
		t   float64
	)
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// worker is one load-generator connection.
type worker struct {
	client *http.Client
	body   bytes.Buffer
	spans  *requestSpans
}

func newWorker(spans *requestSpans) *worker {
	return &worker{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		spans: spans,
	}
}

func (w *worker) close() { w.client.CloseIdleConnections() }

// do sends req to base and returns the status and body (valid until the
// next call). Transport errors give status 0.
func (w *worker) do(base string, req request) (int, []byte) {
	var spanID uint64
	start := time.Now()
	if w.spans != nil {
		spanID = w.spans.open(req.id)
	}
	defer func() {
		if w.spans != nil {
			w.spans.close(req.id, spanID, start)
		}
	}()
	hr, err := http.NewRequest(http.MethodGet, base+req.path, nil)
	if err != nil {
		return 0, nil
	}
	hr.Header.Set(trace.HeaderRequestID, req.id)
	resp, err := w.client.Do(hr)
	if err != nil {
		return 0, nil
	}
	w.body.Reset()
	_, err = w.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, w.body.Bytes()
}

// openLoop sends reqs at their due times over conns connections.
func openLoop(base string, reqs []request, conns int, check verdict, spans *requestSpans) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		w := newWorker(spans)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				status, body := w.do(base, reqs[i])
				out[i] = outcome{
					latency: time.Since(due),
					lag:     sent.Sub(due),
					ok:      check(reqs[i], status, body),
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps conns connections busy, each sending its next request
// as soon as the previous reply is read, until the deadline passes or
// total requests were sent (0 means no count limit). gen makes the n-th
// request of a connection.
func closedLoop(base string, conns int, deadline time.Time, total int, gen func(conn, n int) request,
	check verdict, spans *requestSpans) []outcome {

	var (
		mu   sync.Mutex
		out  []outcome
		sent atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		w := newWorker(spans)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.close()
			var local []outcome
			due := time.Now()
			for n := 0; ; n++ {
				if total > 0 && int(sent.Add(1)) > total {
					break
				}
				if total == 0 && !time.Now().Before(deadline) {
					break
				}
				var o outcome
				o, due = w.send(base, gen(c, n), due, check)
				local = append(local, o)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// send sends one closed-loop request, due when the previous reply was
// read, and returns its outcome and completion time.
func (w *worker) send(base string, req request, due time.Time, check verdict) (outcome, time.Time) {
	start := time.Now()
	status, body := w.do(base, req)
	done := time.Now()
	return outcome{
		latency: done.Sub(start),
		lag:     start.Sub(due),
		ok:      check(req, status, body),
	}, done
}

// sequence sends n requests one after another over w.
func (w *worker) sequence(base string, n int, gen func(n int) request, check verdict) []outcome {
	out := make([]outcome, 0, n)
	due := time.Now()
	for i := 0; i < n; i++ {
		var o outcome
		o, due = w.send(base, gen(i), due, check)
		out = append(out, o)
	}
	return out
}

// summary reduces outcomes to the generator's figures.
type summary struct {
	n, failed int
	p50, p99  float64 // ms
	lagP99    float64 // ms
}

func summarize(outs []outcome) summary {
	s := summary{n: len(outs)}
	lat := make([]float64, 0, len(outs))
	lags := make([]float64, 0, len(outs))
	for _, o := range outs {
		lat = append(lat, ms(o.latency))
		lags = append(lags, ms(o.lag))
		if !o.ok {
			s.failed++
		}
	}
	s.p50 = quantile(lat, 0.5)
	s.p99 = quantile(lat, 0.99)
	s.lagP99 = quantile(lags, 0.99)
	return s
}

// requestSpans records one "request" span per generated request and lets
// the traced sink find the request span its records belong to.
type requestSpans struct {
	t    *tracer
	live sync.Map // request ID -> span ID
}

func (r *requestSpans) open(id string) uint64 {
	sid := r.t.newID()
	r.live.Store(id, sid)
	return sid
}

func (r *requestSpans) close(id string, sid uint64, start time.Time) {
	r.t.record(sid, 0, "request", id, start, time.Now())
	r.live.Delete(id)
}

// parent links a record's request ID to its request span.
func (r *requestSpans) parent(id string) uint64 {
	if v, ok := r.live.Load(id); ok {
		return v.(uint64)
	}
	return 0
}
