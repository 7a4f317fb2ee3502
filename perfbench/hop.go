package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/topology"
)

// The hop workloads drive the 4-service chain through its edge agent:
// four proxied hops per request, 200 installed rules per agent.
//
// hop-small: no rule fires, tiny bodies — per-request cost dominates.
// hop-faulted: the same chain and rate, plus rules firing on seeded
// shares of the traffic. The draws are made by the benchmark and carried
// in the request ID's second field ("u07-AMD-..." = abort, modify,
// delay; "x" = not drawn), so each
// request's expected reply is known in advance.

const (
	openRate      = 300.0 // open-loop requests per second
	quietPerHop   = 200   // installed rules per agent that never fire
	abortShare    = 0.10  // request-side 503 at the edge hop
	modifyShare   = 0.30  // response-side Modify on svc-0 → svc-1
	delayShare    = 0.20  // response-side 1 ms delay on svc-1 → svc-2
	modSearch     = "ok /"
	modReplace    = "modified /"
	setupRepeats  = 5
	measureRounds = 5
)

var abortBody = http.StatusText(http.StatusServiceUnavailable) + "\n"

// faultRules are hop-faulted's firing rules, selected by the flags in the
// request ID.
func faultRules() []rules.Rule {
	return []rules.Rule{
		{ID: "bench-abort", Src: topology.EdgeService, Dst: chainName(0), On: rules.OnRequest,
			Action: rules.ActionAbort, ErrorCode: http.StatusServiceUnavailable, Pattern: "*-A??-*"},
		{ID: "bench-modify", Src: chainName(0), Dst: chainName(1), On: rules.OnResponse,
			Action: rules.ActionModify, SearchBytes: modSearch, ReplaceBytes: modReplace, Pattern: "*-?M?-*"},
		{ID: "bench-delay", Src: chainName(1), Dst: chainName(2), On: rules.OnResponse,
			Action: rules.ActionDelay, DelayMillis: 1, Pattern: "*-??D-*"},
	}
}

// hopGen draws the hop workloads' requests from the seed.
type hopGen struct {
	rng     *rand.Rand
	seed    int64
	faulted bool
	n       int // requests drawn so far, numbering IDs
}

func (g *hopGen) next(prefix string) request {
	n := g.n
	g.n++
	flags := []byte("xxx")
	if g.faulted {
		if g.rng.Float64() < abortShare {
			flags[0] = 'A'
		}
		if g.rng.Float64() < modifyShare {
			flags[1] = 'M'
		}
		if g.rng.Float64() < delayShare {
			flags[2] = 'D'
		}
	}
	return request{
		id:   fmt.Sprintf("%s%02d-%s-%x-%d", prefix, n%16, flags, g.seed, n),
		path: fmt.Sprintf("/item/%d", g.rng.Intn(1000000)),
	}
}

// schedule draws an open-loop phase: Poisson arrivals and their requests.
func (g *hopGen) schedule(prefix string, d time.Duration) []request {
	dues := poisson(g.rng, openRate, d)
	reqs := make([]request, len(dues))
	for i, due := range dues {
		reqs[i] = g.next(prefix)
		reqs[i].due = due
	}
	return reqs
}

// closed returns a closed-loop request maker with one seeded stream per
// connection.
func (g *hopGen) closed(prefix string, conns int) func(conn, n int) request {
	gens := make([]*hopGen, conns)
	for c := range gens {
		gens[c] = &hopGen{rng: rand.New(rand.NewSource(g.seed*7919 + int64(c) + 1)), seed: g.seed, faulted: g.faulted}
	}
	return func(conn, _ int) request {
		return gens[conn].next(fmt.Sprintf("%s%d", prefix, conn))
	}
}

// flagsOf returns the fault flags carried in a hop request ID.
func flagsOf(id string) (abort, modify, delay bool) {
	parts := strings.SplitN(id, "-", 3)
	if len(parts) < 3 || len(parts[1]) != 3 {
		return false, false, false
	}
	f := parts[1]
	return f[0] == 'A', f[1] == 'M', f[2] == 'D'
}

// hopTally checks each reply against its request's flags and counts what
// the client saw.
type hopTally struct {
	aborted, modified, delayed, nonAborted atomic.Int64
}

func (t *hopTally) verdict(req request, status int, body []byte) bool {
	abort, modify, delay := flagsOf(req.id)
	if abort {
		if status == http.StatusServiceUnavailable {
			t.aborted.Add(1)
		}
		return status == http.StatusServiceUnavailable && string(body) == abortBody
	}
	t.nonAborted.Add(1)
	if delay {
		t.delayed.Add(1)
	}
	want := chainBody(req.path)
	if modify {
		want = strings.Replace(want, modSearch, modReplace, 1)
		if status == http.StatusOK && string(body) == want {
			t.modified.Add(1)
		}
	}
	return status == http.StatusOK && string(body) == want
}

// records is how many event-log records the tallied requests leave: two
// per hop, and two at the edge for a request aborted there.
func (t *hopTally) records() int {
	return int(t.nonAborted.Load())*2*chainHops + int(t.aborted.Load())*2
}

// hopDeployment is the chain on its store stack, with rules installed.
type hopDeployment struct {
	st     *storeStack
	app    *topology.App
	agents []*proxy.Agent
	// seen totals every reply verified so far, for the agents'
	// cumulative fault counters.
	seen struct{ aborted, modified, delayed int64 }
}

func buildHop(seed int64, faulted bool, tr *tracing) (*hopDeployment, error) {
	st, err := newStoreStack(4, tr)
	if err != nil {
		return nil, err
	}
	app, err := topology.Build(chainSpec(seed, st.sink))
	if err != nil {
		st.Close()
		return nil, err
	}
	d := &hopDeployment{st: st, app: app, agents: chainAgents(app)}
	for i, a := range d.agents {
		if err := a.InstallRules(quietRules(a.ServiceName(), chainName(i), quietPerHop)...); err != nil {
			d.Close()
			return nil, err
		}
	}
	if faulted {
		for _, r := range faultRules() {
			if err := app.Agent(r.Src).InstallRules(r); err != nil {
				d.Close()
				return nil, err
			}
		}
	}
	// Warm-up: fill connection pools and lazily built state.
	warm := (&hopGen{rng: rand.New(rand.NewSource(seed)), seed: seed}).closed("w", 2)
	var tally hopTally
	outs := closedLoop(app.EntryURL(), 2, time.Time{}, 200, warm, tally.verdict, nil)
	res := newResult()
	d.verify(res, &tally)
	if s := summarize(outs); s.failed > 0 || len(res.problems) > 0 {
		d.Close()
		return nil, fmt.Errorf("warm-up: %d of %d replies wrong %v", s.failed, s.n, res.problems)
	}
	return d, nil
}

func (d *hopDeployment) Close() error {
	d.app.Close()
	return d.st.Close()
}

// verify checks the deployment against the replies tallied since the
// last verify: the agents' fault counters, dropped records, and the
// store's record count. It then clears the store, so the records of a
// long run do not pile up in memory.
func (d *hopDeployment) verify(res *result, tallies ...*hopTally) {
	if err := d.st.settle(); err != nil {
		res.failf("flush event log: %v", err)
	}
	wantRecords := 0
	for _, t := range tallies {
		d.seen.aborted += t.aborted.Load()
		d.seen.modified += t.modified.Load()
		d.seen.delayed += t.delayed.Load()
		wantRecords += t.records()
	}
	edge, svc0, svc1 := d.app.Agent(topology.EdgeService).Stats(), d.app.Agent(chainName(0)).Stats(), d.app.Agent(chainName(1)).Stats()
	res.check(edge.Aborted == d.seen.aborted, "edge agent aborted %d, client saw %d 503s", edge.Aborted, d.seen.aborted)
	res.check(svc0.Modified == d.seen.modified, "%s agent modified %d, client saw %d modified bodies", chainName(0), svc0.Modified, d.seen.modified)
	res.check(svc1.Delayed == d.seen.delayed, "%s agent delayed %d, client sent %d delay-flagged requests", chainName(1), svc1.Delayed, d.seen.delayed)
	res.check(d.st.buffer.Dropped() == 0, "buffered sink dropped %d records", d.st.buffer.Dropped())
	got, err := d.st.count("*")
	if err != nil {
		res.failf("count records: %v", err)
	}
	res.check(got == wantRecords, "store holds %d records, want %d", got, wantRecords)
	d.st.store.Clear()
}

func runHopSmall(cfg config) (*result, error)   { return runHop(cfg, false) }
func runHopFaulted(cfg config) (*result, error) { return runHop(cfg, true) }

func runHop(cfg config, faulted bool) (*result, error) {
	if cfg.trace {
		return traceHop(cfg, faulted)
	}
	res := newResult()
	d, setup, err := timedSetup(setupRepeats, func() (*hopDeployment, error) { return buildHop(cfg.seed, faulted, nil) })
	if err != nil {
		return nil, err
	}
	defer d.Close()
	rss := startRSSSampler()
	defer rss.stop()

	// The measured time is split into rounds of an open-loop phase and a
	// closed-loop phase; every figure but set-up time and memory is the
	// median over rounds of that round's figure, so a burst of
	// interference from outside the process moves one round, not the
	// result.
	round := time.Duration(cfg.seconds * float64(time.Second) / measureRounds)
	gen := &hopGen{rng: rand.New(rand.NewSource(cfg.seed)), seed: cfg.seed, faulted: faulted}
	closedGen := gen.closed("c", cfg.conns)
	per := newRounds()
	var lags []float64
	for r := 0; r < measureRounds; r++ {
		var open, closed hopTally
		sched := gen.schedule("u", round*3/5)
		quiesce()
		u0 := readUsage()
		outs := openLoop(d.app.EntryURL(), sched, min(2, cfg.conns), open.verdict, nil)
		oc := since(u0)
		quiesce()
		u1 := readUsage()
		couts := closedLoop(d.app.EntryURL(), cfg.conns, time.Now().Add(round*2/5), 0, closedGen, closed.verdict, nil)
		cc := since(u1)
		d.verify(res, &open, &closed)
		so, sc := summarize(outs), summarize(couts)
		res.attempted += so.n + sc.n
		res.failed += so.failed + sc.failed
		lags = append(lags, so.lagP99)
		per.add("p50_ms", so.p50)
		per.add("p99_ms", so.p99)
		per.add("ops_per_s", float64(sc.n)/cc.wall.Seconds())
		per.add("cpu_ms_per_op", oc.cpuMsPer(float64(so.n)))
		per.add("allocs_per_op", oc.allocsPer(float64(so.n)))
		per.add("samples", float64(so.n))
	}
	res.check(res.failed == 0, "%d of %d replies wrong", res.failed, res.attempted)
	per.report(res.metrics)
	res.metrics["setup_s"] = setup
	res.metrics["max_rss_MiB"] = rss.peakMiB()
	fmt.Printf("info %d rounds of %.0f req/s open loop (%.0f samples a round) and %d-connection closed loop at %.0f req/s; generator lag p99 %.2f ms; latency p50 %.3f ms, p99 %.2f ms\n",
		measureRounds, openRate, median(per["samples"]), cfg.conns, median(per["ops_per_s"]), median(lags), median(per["p50_ms"]), median(per["p99_ms"]))
	return res, nil
}

// traceHop is the traced run: an untraced pass, the direct-chain
// reference, and a traced pass, each an open-loop phase of the same
// length and rate.
func traceHop(cfg config, faulted bool) (*result, error) {
	res := newResult()
	m := layerMetrics()
	res.metrics = m
	phase := time.Duration(cfg.seconds * float64(time.Second) / 4)
	conns := min(2, cfg.conns)

	// Untraced pass, plus a closed-loop burst for capacity.
	d, err := buildHop(cfg.seed, faulted, nil)
	if err != nil {
		return nil, err
	}
	gen := &hopGen{rng: rand.New(rand.NewSource(cfg.seed)), seed: cfg.seed, faulted: faulted}
	sched := gen.schedule("u", phase)
	var plain, burst hopTally
	rs := startRuntimeSampler()
	u0 := readUsage()
	plainOut := openLoop(d.app.EntryURL(), sched, conns, plain.verdict, nil)
	plainCost := since(u0)
	sp := summarize(plainOut)
	rs.finish(m, float64(sp.n))
	u1 := readUsage()
	burstOut := closedLoop(d.app.EntryURL(), cfg.conns, time.Now().Add(phase), 0, gen.closed("c", cfg.conns), burst.verdict, nil)
	burstCost := since(u1)
	sb := summarize(burstOut)
	d.verify(res, &plain, &burst)
	var proxied, streamed int64
	for _, a := range d.agents {
		st := a.Stats()
		proxied += st.Proxied
		streamed += st.Streamed
	}
	d.Close()

	// Direct-chain reference over the same schedule.
	dc, err := newDirectChain()
	if err != nil {
		return nil, err
	}
	plainRef := func(req request, status int, body []byte) bool {
		return status == http.StatusOK && string(body) == chainBody(req.path)
	}
	refSched := (&hopGen{rng: rand.New(rand.NewSource(cfg.seed)), seed: cfg.seed}).schedule("u", phase)
	u2 := readUsage()
	refOut := openLoop(dc.url(), refSched, conns, plainRef, nil)
	refCost := since(u2)
	dc.Close()
	sr := summarize(refOut)
	fmt.Printf("info untraced p50 %.2f p99 %.2f lag99 %.2f; direct p50 %.2f p99 %.2f lag99 %.2f\n", sp.p50, sp.p99, sp.lagP99, sr.p50, sr.p99, sr.lagP99)

	// Traced pass.
	t := newTracer()
	spans := &requestSpans{t: t}
	tally := &sinkTally{}
	td, err := buildHop(cfg.seed, faulted, &tracing{t: t, parent: spans.parent, tally: tally})
	if err != nil {
		return nil, err
	}
	defer td.Close()
	tallyBefore := tally.records.Load()
	var traced hopTally
	tsched := (&hopGen{rng: rand.New(rand.NewSource(cfg.seed)), seed: cfg.seed, faulted: faulted}).schedule("t", phase)
	u3 := readUsage()
	tracedOut := openLoop(td.app.EntryURL(), tsched, conns, traced.verdict, spans)
	tracedCost := since(u3)
	st := summarize(tracedOut)
	td.verify(res, &traced)
	tracedRecords := tally.records.Load() - tallyBefore

	res.attempted = sp.n + sb.n + sr.n + st.n
	res.failed = sp.failed + sb.failed + sr.failed + st.failed
	res.check(res.failed == 0, "%d of %d replies wrong", res.failed, res.attempted)

	hops := float64(chainHops)
	m["p50_ms"], m["p99_ms"] = sp.p50, sp.p99
	m["capacity_rps"] = float64(sb.n) / burstCost.wall.Seconds()
	m["error_ratio"] = float64(res.failed) / float64(res.attempted)
	m["proxy.hop_overhead_us"] = (sp.p50 - sr.p50) * 1000 / hops
	m["proxy.allocs_per_hop"] = (plainCost.allocsPer(float64(sp.n)) - refCost.allocsPer(float64(sr.n))) / hops
	m["proxy.cpu_us_per_hop"] = (plainCost.cpuMsPer(float64(sp.n)) - refCost.cpuMsPer(float64(sr.n))) * 1000 / hops
	if proxied > 0 {
		m["proxy.streamed_ratio"] = float64(streamed) / float64(proxied)
	}
	m["ref.direct_p50_ms"] = sr.p50
	m["ref.direct_cpu_ms_per_op"] = refCost.cpuMsPer(float64(sr.n))
	m["ref.direct_allocs_per_op"] = refCost.allocsPer(float64(sr.n))
	m["gen.lag_p99_ms"] = sp.lagP99
	m["gen.samples"] = float64(sp.n)

	spanList := t.snapshot()
	m["eventlog.log_us"] = mean(byName(spanList, "eventlog.log")) * 1000
	m["eventlog.records_per_op"] = float64(tracedRecords) / float64(st.n)
	if f := td.st.buffer.Flushes(); f > 0 {
		m["eventlog.batch_records"] = float64(td.st.buffer.BatchRecords()) / float64(f)
	}
	m["eventlog.dropped"] = float64(td.st.buffer.Dropped())
	m["eventlog.flush_ms"] = mean(byName(spanList, "eventlog.flush"))
	decideNs, fired := replayDecisions(tally.messages(), td.agents)
	m["rules.decide_ns"] = decideNs
	m["rules.fired_ratio"] = fired
	untracedCPU, tracedCPU := plainCost.cpuMsPer(float64(sp.n)), tracedCost.cpuMsPer(float64(st.n))
	m["ref.untraced_cpu_ms_per_op"] = untracedCPU
	m["ref.traced_cpu_ms_per_op"] = tracedCPU
	m["trace.overhead_ratio"] = tracedCPU / untracedCPU
	m["ref.spans"] = float64(len(spanList))
	return res, t.writeFile(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}

// replayDecisions replays recorded matcher messages into the agents whose
// service sent them and returns the mean decision time in ns and the share
// of decisions that fired.
func replayDecisions(msgs []rules.Message, agents []*proxy.Agent) (nsPerDecision, firedRatio float64) {
	bySrc := make(map[string]*rules.Matcher, len(agents))
	for _, a := range agents {
		bySrc[a.ServiceName()] = a.Matcher()
	}
	groups := make(map[*rules.Matcher][]rules.Message)
	for _, msg := range msgs {
		if m, ok := bySrc[msg.Src]; ok {
			groups[m] = append(groups[m], msg)
		}
	}
	var (
		n, fired int
		elapsed  time.Duration
	)
	for m, group := range groups {
		start := time.Now()
		for round := 0; round < 3; round++ {
			for _, msg := range group {
				if m.Decide(msg).Fired {
					fired++
				}
			}
		}
		elapsed += time.Since(start)
		n += 3 * len(group)
	}
	if n == 0 {
		return 0, 0
	}
	return float64(elapsed.Nanoseconds()) / float64(n), float64(fired) / float64(n)
}
