package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/campaign"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/orchestrator"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/topology"
)

// campaign-tree runs whole campaigns over the paper's Figure 7 tree
// (31 services, 16 agents) back to back: the control plane does most of
// the work — translate, reconcile fan-out, flush, store reads against a
// backlog, checks and blast-radius tracing — while the data path carries
// 10 requests per unit. An op is one executed (passed or failed) unit.

const (
	treeDepth       = 4
	unitRequests    = 10
	backlogRecords  = 60000 // several campaigns' worth, in other namespaces
	backlogSpaces   = 16
	warmupRequests  = 40
	goldenVerdicts  = "perfbench/golden/campaign-tree.json"
	recordsPerTreeQ = 2 * 31 // a request through the tree: 31 hops, 2 records each
)

var campaignTemplates = []string{"crash", "sever", "partition"}

// treeDeployment is the tree with its runner, ready for campaigns.
type treeDeployment struct {
	st      *storeStack
	app     *topology.App
	orch    *orchestrator.Orchestrator
	runner  *core.Runner
	units   []campaign.Unit
	workers chan *worker // the load generator's connections
	backlog int
}

// treeTracing is the traced run's campaign-side instrumentation.
type treeTracing struct {
	tracing
	scopes *scopeStack
}

func buildTree(seed int64, conns int, tt *treeTracing) (*treeDeployment, error) {
	var tr *tracing
	if tt != nil {
		tr = &tt.tracing
	}
	st, err := newStoreStack(4, tr)
	if err != nil {
		return nil, err
	}
	d := &treeDeployment{st: st, workers: make(chan *worker, conns)}
	spec := topology.BinaryTree(treeDepth, 0)
	spec.Sink = st.sink
	spec.RNG = rand.New(rand.NewSource(seed))
	if d.app, err = topology.Build(spec); err != nil {
		st.Close()
		return nil, err
	}
	if d.backlog, err = prefill(st.store, d.app, seed); err != nil {
		d.Close()
		return nil, err
	}
	var opts []orchestrator.Option
	var source eventlog.Source = st.client
	if tt != nil {
		t := tt.t
		opts = append(opts, orchestrator.WithDialer(func(url string) orchestrator.AgentControl {
			return tracedControl{inner: agentapi.New(url, nil), t: t, url: url}
		}))
		source = traceSource(st.client, t, tt.scopes.top)
	}
	d.orch = orchestrator.New(d.app.Registry, opts...)
	d.runner = core.NewRunner(d.app.Graph, d.orch, source, core.ClearerFunc(func() int {
		n, _ := st.client.Clear() // campaigns never clear the whole store
		return n
	}))
	if d.units, err = campaign.Enumerate(d.app.Graph, campaign.EnumerateOptions{Templates: campaignTemplates}); err != nil {
		d.Close()
		return nil, err
	}
	if tt != nil {
		for i := range d.units {
			build := d.units[i].Build
			d.units[i].Build = func(pattern string) (core.Recipe, error) {
				r, err := build(pattern)
				if err != nil {
					return r, err
				}
				return traceChecks(r, tt.t, tt.scopes, pattern), nil
			}
		}
	}
	var spans *requestSpans
	if tt != nil {
		spans = &requestSpans{t: tt.t}
	}
	for i := 0; i < conns; i++ {
		d.workers <- newWorker(spans)
	}
	// Warm-up: fill the agents' connection pools through the whole tree.
	w := <-d.workers
	outs := w.sequence(d.app.EntryURL(), warmupRequests, func(n int) request {
		return request{id: fmt.Sprintf("warm-%x-%d", seed, n), path: "/"}
	}, func(_ request, status int, _ []byte) bool { return status == http.StatusOK })
	d.workers <- w
	if s := summarize(outs); s.failed > 0 {
		d.Close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", s.failed, s.n)
	}
	return d, nil
}

// prefill loads the store with a backlog of records from other request-ID
// namespaces, so the campaign's reads run against a store that is not
// empty. It returns the number of records written.
func prefill(store *eventlog.ShardedStore, app *topology.App, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	edges := app.Graph.Edges()
	now := time.Now().Add(-time.Hour)
	batch := make([]eventlog.Record, 0, 1000)
	for i := 0; i < backlogRecords; i += 2 {
		e := edges[rng.Intn(len(edges))]
		id := fmt.Sprintf("bk%02d-%x-%d", i%backlogSpaces, seed, i/2)
		ts := now.Add(time.Duration(i) * time.Millisecond)
		batch = append(batch,
			eventlog.Record{Timestamp: ts, RequestID: id, Src: e.Src, Dst: e.Dst, Kind: eventlog.KindRequest, Method: "GET", URI: "/"},
			eventlog.Record{Timestamp: ts.Add(time.Millisecond), RequestID: id, Src: e.Src, Dst: e.Dst, Kind: eventlog.KindReply,
				Method: "GET", URI: "/", Status: http.StatusOK, LatencyMillis: 1})
		if len(batch) == cap(batch) {
			if err := store.Log(batch...); err != nil {
				return 0, err
			}
			batch = batch[:0]
		}
	}
	if err := store.Log(batch...); err != nil {
		return 0, err
	}
	return backlogRecords, nil
}

func (d *treeDeployment) Close() error {
	close(d.workers)
	for w := range d.workers {
		w.close()
	}
	d.app.Close()
	return d.st.Close()
}

// load returns the campaigns' Load hook: each unit takes one of the
// generator's connections and sends unitRequests requests in closed loop.
func (d *treeDeployment) load(spans *tracer, scopes *scopeStack, lags *[]float64, mu *sync.Mutex) func(ctx context.Context, idPrefix string) error {
	return func(_ context.Context, idPrefix string) error {
		start := time.Now()
		w := <-d.workers
		outs := w.sequence(d.app.EntryURL(), unitRequests, func(n int) request {
			return request{id: fmt.Sprintf("%s%d", idPrefix, n), path: "/"}
		}, func(request, int, []byte) bool { return true }) // units judge their own traffic
		d.workers <- w
		if spans != nil {
			spans.since(scopes.top(idPrefix+"*"), "load", idPrefix, start)
		}
		mu.Lock()
		for _, o := range outs {
			*lags = append(*lags, ms(o.lag))
		}
		mu.Unlock()
		return nil
	}
}

// unitTimer is a campaign.RunObserver timing each executed unit from
// rule installation to settlement, and recording its span when traced.
type unitTimer struct {
	mu     sync.Mutex
	starts map[string]time.Time
	ids    map[string]uint64
	durs   []float64
	t      *tracer
	scopes *scopeStack
}

func newUnitTimer(t *tracer, scopes *scopeStack) *unitTimer {
	return &unitTimer{starts: make(map[string]time.Time), ids: make(map[string]uint64), t: t, scopes: scopes}
}

func runPattern(runID string) string { return "camp-" + runID + "-*" }

func (u *unitTimer) RunStarted(_ campaign.Unit, runID string, _ []rules.Rule) {
	u.mu.Lock()
	u.starts[runID] = time.Now()
	if u.t != nil {
		id := u.t.newID()
		u.ids[runID] = id
		u.scopes.push(runPattern(runID), id)
	}
	u.mu.Unlock()
}

func (u *unitTimer) RunFinished(_ campaign.Unit, runID string, _ campaign.Entry) {
	end := time.Now()
	u.mu.Lock()
	defer u.mu.Unlock()
	start := u.starts[runID]
	delete(u.starts, runID)
	u.durs = append(u.durs, ms(end.Sub(start)))
	if u.t != nil {
		u.t.record(u.ids[runID], 0, "campaign.unit", runID, start, end)
		u.scopes.pop(runPattern(runID))
		delete(u.ids, runID)
	}
}

func (u *unitTimer) count() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.durs)
}

// since returns a copy of the unit times recorded after the first n.
func (u *unitTimer) since(n int) []float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]float64(nil), u.durs[n:]...)
}

// campaignStats are the figures of a series of campaigns.
type campaignStats struct {
	campaigns, units, executed, skipped, mismatched int
	perCampaign                                     []cost // cost of each campaign
	executedEach                                    []int
	p50s, p99s                                      []float64 // unit times per campaign, ms
	total                                           cost
	lags                                            []float64
}

// runCampaigns runs campaigns back to back until d passes, checking each
// scorecard and unit verdict against the golden list.
func (d *treeDeployment) runCampaigns(res *result, cfg config, tag string, dur time.Duration, golden map[string]string,
	obs *unitTimer, t *tracer, scopes *scopeStack) campaignStats {

	var (
		cs   campaignStats
		lmu  sync.Mutex
		load = d.load(t, scopes, &cs.lags, &lmu)
	)
	cleanup := func(pat string) {
		start := time.Now()
		if _, err := d.st.client.ClearMatching(pat); err != nil {
			res.failf("clear %s: %v", pat, err)
		}
		if t != nil {
			t.since(scopes.top(pat), "eventlog.clear", pat, start)
		}
	}
	u0 := readUsage()
	deadline := u0.wall.Add(dur)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		id := fmt.Sprintf("%s%x-%d", tag, cfg.seed, k)
		journal := filepath.Join(cfg.out, fmt.Sprintf("journal-%s.jsonl", id))
		_ = os.Remove(journal) // a leftover journal would resume instead of run
		verdicts := make(map[string]string)
		var vmu sync.Mutex
		n0 := obs.count()
		quiesce()
		c0 := readUsage()
		sc, err := campaign.Run(context.Background(), d.runner, d.units, campaign.Options{
			ID:           id,
			Parallelism:  cfg.conns,
			JournalPath:  journal,
			Load:         load,
			DroppedCount: d.st.buffer.Dropped,
			Cleanup:      cleanup,
			RunObserver:  obs,
			OnEntry: func(e campaign.Entry) {
				vmu.Lock()
				verdicts[e.Unit] = e.Status
				vmu.Unlock()
			},
		})
		c := since(c0)
		_ = os.Remove(journal)
		if err != nil {
			res.failf("campaign %s: %v", id, err)
			break
		}
		cs.campaigns++
		cs.units += sc.Units
		cs.executed += sc.Executed
		cs.skipped += sc.Skipped
		cs.perCampaign = append(cs.perCampaign, c)
		cs.executedEach = append(cs.executedEach, sc.Executed)
		durs := obs.since(n0)
		cs.p50s = append(cs.p50s, quantile(durs, 0.5))
		cs.p99s = append(cs.p99s, quantile(durs, 0.99))
		res.check(sc.Errors == 0, "campaign %s: %d unit errors %v", id, sc.Errors, sc.ErrorUnits)
		res.check(sc.Lossy == 0, "campaign %s: %d lossy units", id, sc.Lossy)
		cs.mismatched += compareVerdicts(res, id, verdicts, golden)
		writeVerdicts(filepath.Join(cfg.out, "verdicts-campaign-tree.json"), verdicts)
	}
	cs.total = since(u0)
	return cs
}

// compareVerdicts checks a campaign's unit verdicts against the golden
// list and returns how many differ.
func compareVerdicts(res *result, id string, got, golden map[string]string) int {
	bad := 0
	for _, k := range sortedKeys(golden) {
		if got[k] != golden[k] {
			bad++
			if bad <= 3 {
				res.failf("campaign %s: unit %s is %q, golden %q", id, k, got[k], golden[k])
			}
		}
	}
	for k := range got {
		if _, ok := golden[k]; !ok {
			bad++
			res.failf("campaign %s: unit %s is not in the golden list", id, k)
		}
	}
	return bad
}

func loadGolden() (map[string]string, error) {
	raw, err := os.ReadFile(goldenVerdicts)
	if err != nil {
		return nil, err
	}
	var g map[string]string
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenVerdicts, err)
	}
	return g, nil
}

// writeVerdicts saves the last campaign's verdicts, the form the golden
// list is kept in.
func writeVerdicts(path string, v map[string]string) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "write verdicts:", err)
	}
}

// verify checks dropped records and that only the backlog and warm-up
// records remain once every run's namespace was reclaimed.
func (d *treeDeployment) verify(res *result) {
	if err := d.st.settle(); err != nil {
		res.failf("flush event log: %v", err)
	}
	res.check(d.st.buffer.Dropped() == 0, "buffered sink dropped %d records", d.st.buffer.Dropped())
	want := d.backlog + warmupRequests*recordsPerTreeQ
	got, err := d.st.count("*")
	if err != nil {
		res.failf("count records: %v", err)
	}
	res.check(got == want, "store holds %d records after cleanup, want %d", got, want)
}

func runCampaignTree(cfg config) (*result, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceTree(cfg, golden)
	}
	res := newResult()
	d, setup, err := timedSetup(setupRepeats, func() (*treeDeployment, error) { return buildTree(cfg.seed, cfg.conns, nil) })
	if err != nil {
		return nil, err
	}
	defer d.Close()
	rss := startRSSSampler()
	defer rss.stop()
	obs := newUnitTimer(nil, nil)
	cs := d.runCampaigns(res, cfg, "c", time.Duration(cfg.seconds*float64(time.Second)), golden, obs, nil, nil)
	d.verify(res)

	// Each campaign is a round (see runHop); a campaign's 99th percentile
	// is its slowest units.
	per := newRounds()
	for i, c := range cs.perCampaign {
		n := float64(cs.executedEach[i])
		per.add("ops_per_s", n/c.wall.Seconds())
		per.add("cpu_ms_per_op", c.cpuMsPer(n))
		per.add("allocs_per_op", c.allocsPer(n))
	}
	per["p50_ms"], per["p99_ms"] = cs.p50s, cs.p99s
	res.attempted = cs.units
	res.failed = cs.mismatched
	per.report(res.metrics)
	res.metrics["setup_s"] = setup
	res.metrics["max_rss_MiB"] = rss.peakMiB()
	fmt.Printf("info %d campaigns, %d units settled, %d executed (%.0f units/min); unit p50 %.1f ms, p99 %.1f ms\n",
		cs.campaigns, cs.units, cs.executed, float64(cs.executed)/cs.total.wall.Minutes(), median(cs.p50s), median(cs.p99s))
	return res, nil
}

// traceTree is the traced run: campaigns on an untraced deployment, then
// on a traced one, then an offline translate probe.
func traceTree(cfg config, golden map[string]string) (*result, error) {
	res := newResult()
	m := layerMetrics()
	res.metrics = m
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)

	d, err := buildTree(cfg.seed, cfg.conns, nil)
	if err != nil {
		return nil, err
	}
	rs := startRuntimeSampler()
	calls0 := d.orch.ControlCalls()
	plain := d.runCampaigns(res, cfg, "p", half, golden, newUnitTimer(nil, nil), nil, nil)
	calls := d.orch.ControlCalls() - calls0
	rs.finish(m, float64(plain.executed))
	d.verify(res)
	d.Close()

	t := newTracer()
	scopes := newScopeStack()
	tally := &sinkTally{}
	tt := &treeTracing{tracing: tracing{t: t, tally: tally, parent: func(id string) uint64 {
		if i := strings.LastIndexByte(id, '-'); i > 0 {
			return scopes.top(id[:i+1] + "*")
		}
		return 0
	}}, scopes: scopes}
	td, err := buildTree(cfg.seed, cfg.conns, tt)
	if err != nil {
		return nil, err
	}
	defer td.Close()
	recs0 := tally.records.Load()
	traced := td.runCampaigns(res, cfg, "t", half, golden, newUnitTimer(t, scopes), t, scopes)
	td.verify(res)
	tracedRecords := tally.records.Load() - recs0

	res.attempted = plain.units + traced.units
	res.failed = plain.mismatched + traced.mismatched
	exec := float64(plain.executed)
	m["p50_ms"], m["p99_ms"] = median(plain.p50s), median(plain.p99s)
	m["units_per_min"] = exec / plain.total.wall.Minutes()
	m["error_ratio"] = float64(res.failed) / float64(res.attempted)
	m["campaign.pruned_ratio"] = float64(plain.skipped) / float64(plain.units)
	m["orchestrator.calls_per_unit"] = float64(calls) / exec
	m["gen.lag_p99_ms"] = quantile(plain.lags, 0.99)
	m["gen.samples"] = float64(len(plain.lags))
	m["core.translate_us"] = translateProbe(td)

	spans := t.snapshot()
	texec := float64(traced.executed)
	sel := byName(spans, "eventlog.select")
	m["eventlog.selects_per_unit"] = float64(len(sel)) / texec
	m["eventlog.select_ms.p50"] = quantile(sel, 0.5)
	m["eventlog.select_ms.p99"] = quantile(sel, 0.99)
	m["eventlog.count_ms"] = mean(byName(spans, "eventlog.count"))
	m["eventlog.clear_ms"] = mean(byName(spans, "eventlog.clear"))
	m["eventlog.flush_ms"] = mean(byName(spans, "eventlog.flush"))
	m["eventlog.log_us"] = mean(byName(spans, "eventlog.log")) * 1000
	m["eventlog.records_per_op"] = float64(tracedRecords) / texec
	if f := td.st.buffer.Flushes(); f > 0 {
		m["eventlog.batch_records"] = float64(td.st.buffer.BatchRecords()) / float64(f)
	}
	m["eventlog.dropped"] = float64(td.st.buffer.Dropped())
	m["agentapi.put_ruleset_ms"] = mean(byName(spans, "agentapi.put_ruleset"))
	m["agentapi.get_ruleset_ms"] = mean(byName(spans, "agentapi.get_ruleset"))
	m["checker.check_ms"], m["checker.self_ms"] = checkerTimes(spans)
	unitMs := byName(spans, "campaign.unit")
	m["campaign.unit_ms.p50"] = quantile(unitMs, 0.5)
	m["campaign.self_ms"] = campaignSelf(spans)
	m["rules.decide_ns"], _ = replayDecisions(tally.messages(), treeAgents(td.app))
	if r := tally.records.Load(); r > 0 {
		m["rules.fired_ratio"] = float64(tally.fired.Load()) / float64(r)
	}
	untracedCPU := plain.total.cpuMsPer(exec)
	tracedCPU := traced.total.cpuMsPer(texec)
	m["ref.untraced_cpu_ms_per_op"] = untracedCPU
	m["ref.traced_cpu_ms_per_op"] = tracedCPU
	m["trace.overhead_ratio"] = tracedCPU / untracedCPU
	m["ref.spans"] = float64(len(spans))
	return res, t.writeFile(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}

func treeAgents(app *topology.App) []*proxy.Agent {
	var out []*proxy.Agent
	for _, s := range append(app.Services(), topology.EdgeService) {
		if a := app.Agent(s); a != nil {
			out = append(out, a)
		}
	}
	return out
}

// translateProbe times Recipe.Translate on every unit's recipe and returns
// the mean in microseconds.
func translateProbe(d *treeDeployment) float64 {
	var (
		n       int
		elapsed time.Duration
	)
	for round := 0; round < 5; round++ {
		for i, u := range d.units {
			r, err := u.Build(fmt.Sprintf("camp-probe-%d-*", i))
			if err != nil {
				continue
			}
			start := time.Now()
			_, err = r.Translate(d.app.Graph)
			elapsed += time.Since(start)
			if err == nil {
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return us(elapsed) / float64(n)
}

// checkerTimes returns the mean check time and the mean check self time
// (check span minus the Source calls nested in it), in ms.
func checkerTimes(spans []span) (checkMs, selfMs float64) {
	children := childIndex(spans)
	reads := map[string]bool{"eventlog.select": true, "eventlog.count": true}
	var all, self []float64
	for _, s := range spans {
		if s.Name != "checker.check" {
			continue
		}
		all = append(all, ms(s.dur()))
		self = append(self, ms(s.dur()-covered(s.Start, s.End, descendants(s.ID, children, reads))))
	}
	return mean(all), mean(self)
}

// campaignSelf returns the mean unit self time in ms: the unit span minus
// its Source, clear and load spans and the agent control calls in flight
// during it. Reconcile passes are serialized across concurrent units, so a
// unit waits on any pass in flight; all of them count as not its own time.
func campaignSelf(spans []span) float64 {
	children := childIndex(spans)
	names := map[string]bool{"eventlog.select": true, "eventlog.count": true, "eventlog.clear": true, "load": true}
	var control [][2]int64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "agentapi.") {
			control = append(control, [2]int64{s.Start, s.End})
		}
	}
	var self []float64
	for _, s := range spans {
		if s.Name != "campaign.unit" {
			continue
		}
		busy := append(descendants(s.ID, children, names), control...)
		self = append(self, ms(s.dur()-covered(s.Start, s.End, busy)))
	}
	return mean(self)
}
