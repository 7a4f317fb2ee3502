package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/microservice"
	"gremlin/internal/proxy"
	"gremlin/internal/topology"
)

// stream-bulk moves bulk bytes through one agent, with no rule firing:
// phase 1 echoes multi-MiB payloads through the agent's L4 relay to a TCP
// echo backend; phase 2 GETs 1 MiB replies through the agent's HTTP route,
// which takes the streamed fast path. An op is one MiB moved.

const (
	l4Payload = 4 << 20 // bytes echoed per L4 connection
	blobSize  = 1 << 20 // bytes per HTTP reply
	mib       = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// echoServer is the raw-TCP backend: it echoes each connection until the
// client half-closes, then closes.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func newEchoServer() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln}
	e.wg.Add(1)
	go e.serve()
	return e, nil
}

func (e *echoServer) serve() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer c.Close()
			buf := make([]byte, 64<<10)
			if _, err := io.CopyBuffer(c, c, buf); err == nil {
				_ = c.(*net.TCPConn).CloseWrite() // the client sees EOF either way
			}
		}()
	}
}

func (e *echoServer) addr() string { return e.ln.Addr().String() }

func (e *echoServer) Close() error {
	err := e.ln.Close()
	e.wg.Wait()
	return err
}

// echoer is one L4 load connection's state.
type echoer struct {
	payload []byte
	want    uint32
	buf     []byte
}

// echoOnce sends the payload over a fresh connection to addr, half-closes,
// and reads the echo back, checking its length and checksum.
func (e *echoer) echoOnce(addr string) (connect time.Duration, ok bool, err error) {
	start := time.Now()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, false, err
	}
	connect = time.Since(start)
	defer c.Close()
	werr := make(chan error, 1)
	go func() {
		_, err := c.Write(e.payload)
		if err == nil {
			err = c.(*net.TCPConn).CloseWrite()
		}
		werr <- err
	}()
	h := crc32.New(castagnoli)
	n, rerr := io.CopyBuffer(h, c, e.buf)
	if err := errors.Join(<-werr, rerr); err != nil {
		return connect, false, err
	}
	return connect, n == int64(len(e.payload)) && h.Sum32() == e.want, nil
}

// echoPhase keeps conns connections echoing until the deadline.
func echoPhase(addr string, payload []byte, conns int, d time.Duration, spans *tracer) (echoes, failed int, connects []float64) {
	want := crcOf(payload)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	for c := 0; c < conns; c++ {
		e := &echoer{payload: payload, want: want, buf: make([]byte, 64<<10)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n, bad int
			var local []float64
			for time.Now().Before(deadline) {
				t0 := time.Now()
				connect, ok, err := e.echoOnce(addr)
				if spans != nil {
					spans.since(0, "l4.echo", addr, t0)
				}
				n++
				if !ok || err != nil {
					bad++
				}
				local = append(local, us(connect))
			}
			mu.Lock()
			echoes += n
			failed += bad
			connects = append(connects, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return echoes, failed, connects
}

// streamDeployment is one agent with an L4 route to the echo backend and
// an HTTP route to the blob service.
type streamDeployment struct {
	st      *storeStack
	echo    *echoServer
	app     *topology.App
	agent   *proxy.Agent
	blob    []byte
	payload []byte
	relay   string // L4 route address
	route   string // HTTP route URL
	direct  string // blob service URL
	l4Conns atomic.Int64
	gets    atomic.Int64
}

func buildStream(seed int64, tr *tracing) (*streamDeployment, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &streamDeployment{blob: make([]byte, blobSize), payload: make([]byte, l4Payload)}
	rng.Read(d.blob)
	rng.Read(d.payload)
	var err error
	if d.st, err = newStoreStack(4, tr); err != nil {
		return nil, err
	}
	if d.echo, err = newEchoServer(); err != nil {
		d.st.Close()
		return nil, err
	}
	blob := d.blob
	d.app, err = topology.Build(topology.Spec{
		Entry: "client",
		Sink:  d.st.sink,
		RNG:   rand.New(rand.NewSource(seed)),
		Services: []topology.ServiceSpec{
			{Name: "client", DependsOn: []string{"blob"}, TCPBackends: map[string]string{"echo": d.echo.addr()}},
			{Name: "blob", Handler: func(w http.ResponseWriter, _ *http.Request, _ *microservice.Caller) {
				w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
				_, _ = w.Write(blob)
			}},
		},
	})
	if err != nil {
		d.echo.Close()
		d.st.Close()
		return nil, err
	}
	d.agent = d.app.Agent("client")
	if d.relay, err = d.app.L4Addr("client", "echo"); err == nil {
		if d.route, err = d.agent.RouteURL("blob"); err == nil {
			d.direct, err = d.app.ServiceURL("blob")
		}
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	// Warm-up: a few echoes and GETs through the agent.
	n, bad, _ := echoPhase(d.relay, d.payload, 2, 50*time.Millisecond, nil)
	d.l4Conns.Add(int64(n))
	outs := closedLoop(d.route, 2, time.Time{}, 20, getGen("w", seed), d.verdict, nil)
	d.gets.Add(int64(len(outs)))
	if s := summarize(outs); bad > 0 || s.failed > 0 {
		d.Close()
		return nil, fmt.Errorf("warm-up: %d echoes and %d GETs wrong", bad, s.failed)
	}
	return d, nil
}

func getGen(prefix string, seed int64) func(conn, n int) request {
	return func(conn, n int) request {
		return request{id: fmt.Sprintf("%s%d-%x-%d", prefix, conn, seed, n), path: "/blob"}
	}
}

func (d *streamDeployment) verdict(_ request, status int, body []byte) bool {
	return status == http.StatusOK && bytes.Equal(body, d.blob)
}

func (d *streamDeployment) Close() error {
	d.app.Close()
	d.echo.Close()
	return d.st.Close()
}

// verify checks dropped records and the store's record count: a
// connOpen/connClose pair per relayed connection and a request/reply pair
// per GET through the agent.
func (d *streamDeployment) verify(res *result) {
	for i := 0; i < 200 && d.agent.L4Stats().Open > 0; i++ {
		time.Sleep(5 * time.Millisecond) // relays log a connection's close record as it tears down
	}
	if err := d.st.settle(); err != nil {
		res.failf("flush event log: %v", err)
	}
	res.check(d.st.buffer.Dropped() == 0, "buffered sink dropped %d records", d.st.buffer.Dropped())
	want := int(2*d.l4Conns.Load() + 2*d.gets.Load())
	got, err := d.st.count("*")
	if err != nil {
		res.failf("count records: %v", err)
	}
	res.check(got == want, "store holds %d records, want %d", got, want)
}

// streamFigures are the figures of one relay phase and one HTTP phase.
type streamFigures struct {
	echoes, echoFailed int
	connects           []float64
	l4Cost, httpCost   cost
	gets               summary
}

func (f streamFigures) l4MiB() float64   { return float64(f.echoes) * l4Payload / mib }
func (f streamFigures) httpMiB() float64 { return float64(f.gets.n) * blobSize / mib }

// phases runs a relay phase of length l4, then an HTTP phase of length
// httpD, each from a quiesced process.
func (d *streamDeployment) phases(seed int64, conns int, l4, httpD time.Duration, prefix string, t *tracer, spans *requestSpans) streamFigures {
	var f streamFigures
	quiesce()
	u0 := readUsage()
	n, bad, connects := echoPhase(d.relay, d.payload, conns, l4, t)
	f.l4Cost = since(u0)
	d.l4Conns.Add(int64(n))
	f.echoes, f.echoFailed, f.connects = n, bad, connects
	quiesce()
	u1 := readUsage()
	outs := closedLoop(d.route, conns, time.Now().Add(httpD), 0, getGen(prefix, seed), d.verdict, spans)
	f.httpCost = since(u1)
	d.gets.Add(int64(len(outs)))
	f.gets = summarize(outs)
	return f
}

func runStreamBulk(cfg config) (*result, error) {
	if cfg.trace {
		return traceStream(cfg)
	}
	res := newResult()
	d, setup, err := timedSetup(setupRepeats, func() (*streamDeployment, error) { return buildStream(cfg.seed, nil) })
	if err != nil {
		return nil, err
	}
	defer d.Close()
	rss := startRSSSampler()
	defer rss.stop()
	// Rounds of a relay phase and an HTTP phase, reported as medians over
	// rounds (see runHop).
	half := time.Duration(cfg.seconds * float64(time.Second) / measureRounds / 2)
	per := newRounds()
	for r := 0; r < measureRounds; r++ {
		f := d.phases(cfg.seed, cfg.conns, half, half, fmt.Sprintf("b%d", r), nil, nil)
		d.verify(res)
		c := f.l4Cost.add(f.httpCost)
		moved := f.l4MiB() + f.httpMiB()
		res.attempted += f.echoes + f.gets.n
		res.failed += f.echoFailed + f.gets.failed
		per.add("p50_ms", f.gets.p50)
		per.add("p99_ms", f.gets.p99)
		per.add("ops_per_s", moved/c.wall.Seconds())
		per.add("cpu_ms_per_op", c.cpuMsPer(moved))
		per.add("allocs_per_op", c.allocsPer(moved))
		per.add("l4_MBps", f.l4MiB()*mib/1e6/f.l4Cost.wall.Seconds())
		per.add("http_MBps", f.httpMiB()*mib/1e6/f.httpCost.wall.Seconds())
		per.add("samples", float64(f.gets.n))
	}
	res.check(res.failed == 0, "%d of %d transfers wrong", res.failed, res.attempted)
	per.report(res.metrics)
	res.metrics["setup_s"] = setup
	res.metrics["max_rss_MiB"] = rss.peakMiB()
	fmt.Printf("info %d rounds: %.0f MiB/s moved, L4 relay %.0f MB/s, HTTP hop %.0f MB/s over %.0f GETs of 1 MiB a round; GET p50 %.3f ms, p99 %.2f ms\n",
		measureRounds, median(per["ops_per_s"]), median(per["l4_MBps"]), median(per["http_MBps"]), median(per["samples"]), median(per["p50_ms"]), median(per["p99_ms"]))
	return res, nil
}

// traceStream is the traced run: untraced relay and HTTP phases with
// direct references for both, then the same phases traced.
func traceStream(cfg config) (*result, error) {
	res := newResult()
	m := layerMetrics()
	res.metrics = m
	phase := time.Duration(cfg.seconds * float64(time.Second) / 8)

	d, err := buildStream(cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	// A discarded pass first, so the untraced figures are not charged with
	// the process's first growth of heap and buffers (the traced pass
	// runs in a grown process).
	d.phases(cfg.seed, cfg.conns, phase/4, phase/4, "x", nil, nil)
	rs := startRuntimeSampler()
	f := d.phases(cfg.seed, cfg.conns, phase, phase, "b", nil, nil)
	rs.finish(m, f.l4MiB()+f.httpMiB())
	// References: the same transfers straight to the backends.
	u0 := readUsage()
	dEchoes, dBad, _ := echoPhase(d.echo.addr(), d.payload, cfg.conns, phase, nil)
	directL4 := since(u0)
	u1 := readUsage()
	dOuts := closedLoop(d.direct, cfg.conns, time.Now().Add(phase), 0, getGen("r", cfg.seed), d.verdict, nil)
	directHTTP := since(u1)
	dg := summarize(dOuts)
	directMiB := float64(dg.n) * blobSize / mib
	d.verify(res)
	st := d.agent.Stats()
	d.Close()

	t := newTracer()
	spans := &requestSpans{t: t}
	tally := &sinkTally{}
	td, err := buildStream(cfg.seed, &tracing{t: t, parent: spans.parent, tally: tally})
	if err != nil {
		return nil, err
	}
	defer td.Close()
	recsBefore := tally.records.Load()
	tf := td.phases(cfg.seed, cfg.conns, phase, phase, "t", t, spans)
	td.verify(res)
	tracedRecords := tally.records.Load() - recsBefore

	res.attempted = f.echoes + f.gets.n + dEchoes + dg.n + tf.echoes + tf.gets.n
	res.failed = f.echoFailed + f.gets.failed + dBad + dg.failed + tf.echoFailed + tf.gets.failed
	res.check(res.failed == 0, "%d of %d transfers wrong", res.failed, res.attempted)

	l4MBps := f.l4MiB() * mib / 1e6 / f.l4Cost.wall.Seconds()
	directMBps := float64(dEchoes) * l4Payload / 1e6 / directL4.wall.Seconds()
	m["p50_ms"], m["p99_ms"] = f.gets.p50, f.gets.p99
	m["l4_MBps"] = l4MBps
	m["http_MBps"] = f.httpMiB() * mib / 1e6 / f.httpCost.wall.Seconds()
	m["error_ratio"] = float64(res.failed) / float64(res.attempted)
	m["ref.direct_echo_MBps"] = directMBps
	m["streamproxy.overhead_ratio"] = directMBps / l4MBps
	m["streamproxy.cpu_ms_per_MiB"] = f.l4Cost.cpuMsPer(f.l4MiB())
	m["streamproxy.connect_us"] = median(f.connects)
	m["proxy.body_cpu_ms_per_MiB"] = f.httpCost.cpuMsPer(f.httpMiB()) - directHTTP.cpuMsPer(directMiB)
	m["proxy.hop_overhead_us"] = (f.gets.p50 - dg.p50) * 1000
	m["proxy.cpu_us_per_hop"] = (f.httpCost.cpuMsPer(float64(f.gets.n)) - directHTTP.cpuMsPer(float64(dg.n))) * 1000
	m["proxy.allocs_per_hop"] = f.httpCost.allocsPer(float64(f.gets.n)) - directHTTP.allocsPer(float64(dg.n))
	if st.Proxied > 0 {
		m["proxy.streamed_ratio"] = float64(st.Streamed) / float64(st.Proxied)
	}
	m["ref.direct_p50_ms"] = dg.p50
	m["ref.direct_cpu_ms_per_op"] = directHTTP.cpuMsPer(directMiB)
	m["ref.direct_allocs_per_op"] = directHTTP.allocsPer(directMiB)
	m["gen.lag_p99_ms"] = f.gets.lagP99
	m["gen.samples"] = float64(f.gets.n)

	spanList := t.snapshot()
	m["eventlog.log_us"] = mean(byName(spanList, "eventlog.log")) * 1000
	tMiB := tf.l4MiB() + tf.httpMiB()
	m["eventlog.records_per_op"] = float64(tracedRecords) / tMiB
	if fl := td.st.buffer.Flushes(); fl > 0 {
		m["eventlog.batch_records"] = float64(td.st.buffer.BatchRecords()) / float64(fl)
	}
	m["eventlog.dropped"] = float64(td.st.buffer.Dropped())
	m["eventlog.flush_ms"] = mean(byName(spanList, "eventlog.flush"))
	m["rules.decide_ns"], m["rules.fired_ratio"] = replayDecisions(tally.messages(), []*proxy.Agent{td.agent})
	untraced := f.l4Cost.add(f.httpCost).cpuMsPer(f.l4MiB() + f.httpMiB())
	traced := tf.l4Cost.add(tf.httpCost).cpuMsPer(tMiB)
	m["ref.untraced_cpu_ms_per_op"] = untraced
	m["ref.traced_cpu_ms_per_op"] = traced
	m["trace.overhead_ratio"] = traced / untraced
	m["ref.spans"] = float64(len(spanList))
	return res, t.writeFile(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}
