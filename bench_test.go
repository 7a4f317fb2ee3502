// Benchmarks covering the paper's evaluation (§7.2), one group per table
// and figure. The full series (the rows the paper plots) are regenerated
// by `go run ./cmd/gremlin-bench`; the benchmarks here measure the
// underlying operations with testing.B so regressions are visible in
// `go test -bench`.
//
//   - Table 2  (data-plane interface): cost of each fault primitive on the
//     live proxy data path.
//   - Table 3  (checker interface): cost of queries, base assertions, and
//     pattern checks over populated logs.
//   - Figure 5/6 (case study): request cost through the WordPress stack,
//     with and without staged faults.
//   - Figure 7 (orchestration/assertions vs. app size): rule fan-out and
//     per-service assertion cost on binary trees.
//   - Figure 8 (rule matching): matcher scan cost by rule count, and the
//     end-to-end proxied request with 200 non-matching rules installed.
package gremlin_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gremlin"
	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/loadgen"
	"gremlin/internal/orchestrator"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/streamproxy"
	"gremlin/internal/topology"
	"gremlin/internal/trace"
)

// ---- Table 2: fault-injection primitives on the data path ----

func benchAgent(b *testing.B, installed ...rules.Rule) (*proxy.Agent, string) {
	b.Helper()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	b.Cleanup(backend.Close)
	agent, err := proxy.New(proxy.Config{
		ServiceName: "client",
		Routes: []proxy.Route{{
			Dst:        "server",
			ListenAddr: "127.0.0.1:0",
			Targets:    []string{strings.TrimPrefix(backend.URL, "http://")},
		}},
		RNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	agent.Start()
	b.Cleanup(func() {
		if err := agent.Close(); err != nil {
			b.Error(err)
		}
	})
	if err := agent.InstallRules(installed...); err != nil {
		b.Fatal(err)
	}
	u, err := agent.RouteURL("server")
	if err != nil {
		b.Fatal(err)
	}
	return agent, u
}

func doProxied(b *testing.B, client *http.Client, url, id string, wantErr bool) {
	b.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		b.Fatal(err)
	}
	trace.SetRequestID(req, id)
	resp, err := client.Do(req)
	if err != nil {
		if !wantErr {
			b.Fatal(err)
		}
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

func BenchmarkTable2ProxyForwardNoFault(b *testing.B) {
	_, u := benchAgent(b)
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

func BenchmarkTable2AbortPrimitive(b *testing.B) {
	_, u := benchAgent(b, rules.Rule{
		ID: "ab", Src: "client", Dst: "server",
		Action: rules.ActionAbort, Pattern: "test-*", ErrorCode: 503,
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

func BenchmarkTable2DelayPrimitive(b *testing.B) {
	_, u := benchAgent(b, rules.Rule{
		ID: "dl", Src: "client", Dst: "server",
		Action: rules.ActionDelay, Pattern: "test-*", DelayMillis: 1,
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

func BenchmarkTable2ModifyPrimitive(b *testing.B) {
	_, u := benchAgent(b, rules.Rule{
		ID: "md", Src: "client", Dst: "server", On: rules.OnResponse,
		Action: rules.ActionModify, Pattern: "test-*",
		SearchBytes: "ok", ReplaceBytes: "ko",
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

// ---- Table 3: assertion checker operations ----

// populateStore fills a store with n request/reply pairs.
func populateStore(b *testing.B, n int) *eventlog.Store {
	b.Helper()
	store := eventlog.NewStore()
	base := time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		at := base.Add(time.Duration(i) * time.Millisecond)
		status := 200
		if i%4 == 0 {
			status = 503
		}
		err := store.Log(
			eventlog.Record{Timestamp: at, RequestID: fmt.Sprintf("test-%d", i),
				Src: "a", Dst: "b", Kind: eventlog.KindRequest, Method: "GET", URI: "/x"},
			eventlog.Record{Timestamp: at.Add(time.Millisecond), RequestID: fmt.Sprintf("test-%d", i),
				Src: "a", Dst: "b", Kind: eventlog.KindReply, Status: status, LatencyMillis: 1},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
	return store
}

func BenchmarkTable3GetRequests(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetRequests("a", "b", "test-*"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ReplyLatency(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	rl, err := c.GetReplies("a", "b", "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.ReplyLatency(rl, true)
	}
}

func BenchmarkTable3Combine(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	rl, err := c.GetReplies("a", "b", "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.Combine(rl,
			checker.StatusSeen{Status: 503, NumMatch: 5, WithRule: true},
			checker.AtMost{Tdelta: time.Minute, WithRule: true, Num: 1000},
		)
	}
}

func BenchmarkTable3HasBoundedRetries(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HasBoundedRetries("a", "b", 1000, "", checker.BoundedRetriesOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3HasCircuitBreaker(b *testing.B) {
	c := checker.New(populateStore(b, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HasCircuitBreaker("a", "b", 5, time.Millisecond, "", checker.CircuitBreakerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 5/6: the WordPress stack ----

func benchWordPress(b *testing.B, faults ...gremlin.Rule) *topology.App {
	b.Helper()
	spec := topology.WordPress(topology.WordPressOptions{BackendWorkTime: time.Microsecond})
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := app.Close(); err != nil {
			b.Error(err)
		}
	})
	if len(faults) > 0 {
		if err := app.Agent(topology.WordPressService).InstallRules(faults...); err != nil {
			b.Fatal(err)
		}
	}
	return app
}

func BenchmarkFigure5WordPressHealthy(b *testing.B) {
	app := benchWordPress(b)
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, app.EntryURL()+"/search", "test-1", false)
	}
}

func BenchmarkFigure5WordPressDelayedSearch(b *testing.B) {
	app := benchWordPress(b, gremlin.Rule{
		ID: "d", Src: topology.WordPressService, Dst: topology.ElasticsearchService,
		Action: gremlin.ActionDelay, Pattern: "test-*", DelayMillis: 1,
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, app.EntryURL()+"/search", "test-1", false)
	}
}

func BenchmarkFigure6WordPressAbortedSearch(b *testing.B) {
	app := benchWordPress(b, gremlin.Rule{
		ID: "a", Src: topology.WordPressService, Dst: topology.ElasticsearchService,
		Action: gremlin.ActionAbort, Pattern: "test-*", ErrorCode: 503,
	})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, app.EntryURL()+"/search", "test-1", false)
	}
}

// ---- Figure 7: orchestration and assertions vs. application size ----

func benchTree(b *testing.B, depth int) (*topology.App, *core.Runner) {
	b.Helper()
	spec := topology.BinaryTree(depth, 0)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := app.Close(); err != nil {
			b.Error(err)
		}
	})
	runner := core.NewRunner(app.Graph, orchestrator.New(app.Registry), app.Store, app.Store)
	return app, runner
}

func delayAllScenarios(app *topology.App) []core.Scenario {
	var out []core.Scenario
	for _, e := range app.Graph.Edges() {
		out = append(out, core.Delay{Src: e.Src, Dst: e.Dst, Interval: time.Millisecond})
	}
	return out
}

func benchmarkFigure7Orchestration(b *testing.B, depth int) {
	app, _ := benchTree(b, depth)
	orch := orchestrator.New(app.Registry)
	recipe := core.Recipe{Name: "fig7", Scenarios: delayAllScenarios(app)}
	ruleset, err := recipe.Translate(app.Graph)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applied, err := orch.Apply(context.Background(), ruleset)
		if err != nil {
			b.Fatal(err)
		}
		if err := applied.Revert(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7Orchestration1Service(b *testing.B)   { benchmarkFigure7Orchestration(b, 0) }
func BenchmarkFigure7Orchestration7Services(b *testing.B)  { benchmarkFigure7Orchestration(b, 2) }
func BenchmarkFigure7Orchestration31Services(b *testing.B) { benchmarkFigure7Orchestration(b, 4) }

func benchmarkFigure7Assertions(b *testing.B, depth int) {
	app, runner := benchTree(b, depth)
	// One warm pass of traffic so assertions have observations to read.
	if _, err := loadgen.Run(app.EntryURL(), loadgen.Options{N: 100, Concurrency: 8}); err != nil {
		b.Fatal(err)
	}
	c := runner.Checker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, svc := range app.Services() {
			if _, err := c.HasTimeouts(svc, time.Minute, "test-*"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure7Assertions1Service(b *testing.B)   { benchmarkFigure7Assertions(b, 0) }
func BenchmarkFigure7Assertions7Services(b *testing.B)  { benchmarkFigure7Assertions(b, 2) }
func BenchmarkFigure7Assertions31Services(b *testing.B) { benchmarkFigure7Assertions(b, 4) }

// ---- Figure 8: rule-matching overhead ----

func benchmarkFigure8Match(b *testing.B, count int) {
	m := rules.NewMatcher(rand.New(rand.NewSource(1)))
	for i := 0; i < count; i++ {
		if err := m.Install(rules.Rule{
			ID: fmt.Sprintf("r%d", i), Src: "client", Dst: "server",
			Action: rules.ActionDelay, Pattern: fmt.Sprintf("re:^never-%d-[0-9]+$", i),
			DelayMillis: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	msg := rules.Message{Src: "client", Dst: "server", Type: rules.OnRequest, RequestID: "test-12345"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := m.Decide(msg); d.Fired {
			b.Fatal("no rule should match")
		}
	}
}

func BenchmarkFigure8Match1Rule(b *testing.B)    { benchmarkFigure8Match(b, 1) }
func BenchmarkFigure8Match10Rules(b *testing.B)  { benchmarkFigure8Match(b, 10) }
func BenchmarkFigure8Match50Rules(b *testing.B)  { benchmarkFigure8Match(b, 50) }
func BenchmarkFigure8Match200Rules(b *testing.B) { benchmarkFigure8Match(b, 200) }

func BenchmarkFigure8ProxiedRequest200Rules(b *testing.B) {
	batch := make([]rules.Rule, 0, 200)
	for i := 0; i < 200; i++ {
		batch = append(batch, rules.Rule{
			ID: fmt.Sprintf("r%d", i), Src: "client", Dst: "server",
			Action: rules.ActionDelay, Pattern: fmt.Sprintf("re:^never-%d-[0-9]+$", i),
			DelayMillis: 1,
		})
	}
	_, u := benchAgent(b, batch...)
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

// ---- Table 1 / §5: recipe translation for the outage scenarios ----

func BenchmarkTable1RecipeTranslate(b *testing.B) {
	spec := topology.MessageBus(topology.MessageBusOptions{})
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := app.Close(); err != nil {
			b.Error(err)
		}
	})
	recipe := core.Recipe{
		Name:      "cassandra-crash",
		Scenarios: []core.Scenario{core.Crash{Service: topology.CassandraService}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recipe.Translate(app.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Event store throughput (the logging pipeline both planes share) ----

func BenchmarkEventStoreLog(b *testing.B) {
	store := eventlog.NewStore()
	rec := eventlog.Record{Src: "a", Dst: "b", Kind: eventlog.KindReply, Status: 200, RequestID: "test-1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Log(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventStoreSelect(b *testing.B) {
	store := populateStore(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Select(eventlog.Query{Src: "a", Kind: eventlog.KindReply, IDPattern: "test-*"}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Hot-path overhaul: before/after micro-benchmarks ----
//
// Each pair measures one optimized component against its pre-overhaul
// behavior, kept callable through the UseLinearScan ablation switches.

// benchmarkMatcherDecide measures lock-free indexed decisions against the
// pre-overhaul linear scan, under parallel load (the agent decides on every
// concurrently proxied message). Rules are spread across distinct routes —
// the shape a real recipe produces — so the index visits only the probed
// route's bucket while the scan visits every rule.
func benchmarkMatcherDecide(b *testing.B, count int, linear bool) {
	m := rules.NewMatcher(rand.New(rand.NewSource(1)))
	m.UseLinearScan(linear)
	batch := make([]rules.Rule, 0, count)
	for i := 0; i < count; i++ {
		batch = append(batch, rules.Rule{
			ID: fmt.Sprintf("r%d", i), Src: fmt.Sprintf("svc-%d", i), Dst: "server",
			Action: rules.ActionDelay, Pattern: fmt.Sprintf("re:^never-%d-[0-9]+$", i),
			DelayMillis: 1,
		})
	}
	if err := m.Install(batch...); err != nil {
		b.Fatal(err)
	}
	msg := rules.Message{Src: "client", Dst: "server", Type: rules.OnRequest, RequestID: "test-12345"}
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if d := m.Decide(msg); d.Fired {
				b.Fatal("no rule should match")
			}
		}
	})
}

func BenchmarkMatcherDecideIndexed200Rules(b *testing.B) { benchmarkMatcherDecide(b, 200, false) }
func BenchmarkMatcherDecideLinear200Rules(b *testing.B)  { benchmarkMatcherDecide(b, 200, true) }
func BenchmarkMatcherDecideIndexed10Rules(b *testing.B)  { benchmarkMatcherDecide(b, 10, false) }
func BenchmarkMatcherDecideLinear10Rules(b *testing.B)   { benchmarkMatcherDecide(b, 10, true) }

// benchmarkStoreSelect measures an edge-filtered query against a large
// store, with and without the posting-list index — the Assertion Checker's
// access pattern (every base assertion queries one (src, dst) edge).
func benchmarkStoreSelect(b *testing.B, total, routes int, linear bool) {
	store := eventlog.NewStore()
	store.UseLinearScan(linear)
	base := time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	for i := 0; i < total; i++ {
		err := store.Log(eventlog.Record{
			Timestamp: base.Add(time.Duration(i) * time.Millisecond),
			RequestID: fmt.Sprintf("test-%d", i),
			Src:       fmt.Sprintf("svc-%d", i%routes),
			Dst:       fmt.Sprintf("dst-%d", i%routes),
			Kind:      eventlog.KindReply, Status: 200, LatencyMillis: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	q := eventlog.Query{Src: "svc-42", Dst: "dst-42", Kind: eventlog.KindReply, IDPattern: "test-*"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := store.Select(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != total/routes {
			b.Fatalf("got %d records, want %d", len(recs), total/routes)
		}
	}
}

func BenchmarkStoreSelectIndexed100k(b *testing.B) { benchmarkStoreSelect(b, 100_000, 100, false) }
func BenchmarkStoreSelectLinear100k(b *testing.B)  { benchmarkStoreSelect(b, 100_000, 100, true) }
func BenchmarkStoreSelectIndexed10k(b *testing.B)  { benchmarkStoreSelect(b, 10_000, 100, false) }
func BenchmarkStoreSelectLinear10k(b *testing.B)   { benchmarkStoreSelect(b, 10_000, 100, true) }

// benchmarkProxyThroughput pushes a body of the given size through the
// agent. With no Modify rule the body streams through pooled buffers (B/op
// stays flat as size grows); a response Modify rule forces the pre-overhaul
// read-everything path for comparison. A sized backend declares the
// body's Content-Length, so the agent's reply has a declared length too
// and net/http copies it through ReadFrom rather than chunking it.
func benchmarkProxyThroughput(b *testing.B, size int, modify, sized bool) {
	body := strings.Repeat("x", size)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if sized {
			w.Header().Set("Content-Length", strconv.Itoa(size))
		}
		_, _ = io.WriteString(w, body)
	}))
	b.Cleanup(backend.Close)
	var installed []rules.Rule
	if modify {
		installed = append(installed, rules.Rule{
			ID: "md", Src: "client", Dst: "server", On: rules.OnResponse,
			Action: rules.ActionModify, Pattern: "test-*",
			SearchBytes: "never-present", ReplaceBytes: "still-never",
		})
	}
	agent, err := proxy.New(proxy.Config{
		ServiceName: "client",
		Routes: []proxy.Route{{
			Dst:        "server",
			ListenAddr: "127.0.0.1:0",
			Targets:    []string{strings.TrimPrefix(backend.URL, "http://")},
		}},
		RNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	agent.Start()
	b.Cleanup(func() {
		if err := agent.Close(); err != nil {
			b.Error(err)
		}
	})
	if err := agent.InstallRules(installed...); err != nil {
		b.Fatal(err)
	}
	u, err := agent.RouteURL("server")
	if err != nil {
		b.Fatal(err)
	}
	client := &http.Client{}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doProxied(b, client, u, "test-1", false)
	}
}

func BenchmarkProxyThroughputStreamed64KiB(b *testing.B) {
	benchmarkProxyThroughput(b, 64<<10, false, false)
}
func BenchmarkProxyThroughputBuffered64KiB(b *testing.B) {
	benchmarkProxyThroughput(b, 64<<10, true, false)
}
func BenchmarkProxyThroughputStreamed1MiB(b *testing.B) {
	benchmarkProxyThroughput(b, 1<<20, false, false)
}
func BenchmarkProxyThroughputBuffered1MiB(b *testing.B) {
	benchmarkProxyThroughput(b, 1<<20, true, false)
}
func BenchmarkProxyThroughputSized1MiB(b *testing.B) { benchmarkProxyThroughput(b, 1<<20, false, true) }

// ---- L4 relay: throughput against a same-run direct echo, and setup ----
//
// Each echo benchmark moves 4 MiB up and the same 4 MiB back per op over
// one long-lived connection. Direct is the reference without a relay;
// Unfaulted is the relay's kernel (splice) path; Chunked forces both
// directions onto the fault-bearing Read/Write loop with sever rules that
// never reach their threshold, the ablation the kernel path is measured
// against.

const relayEchoSize = 4 << 20

// benchEchoServer starts a TCP echo backend for the relay benchmarks.
func benchEchoServer(b *testing.B) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String()
}

// benchRelay fronts upstream with an L4 relay carrying installed, whose
// records are dropped.
func benchRelay(b *testing.B, upstream string, installed ...rules.Rule) string {
	m := rules.NewMatcher(rand.New(rand.NewSource(1)))
	if err := m.Install(installed...); err != nil {
		b.Fatal(err)
	}
	r, err := streamproxy.New(streamproxy.Config{
		Src: "client", Dst: "db", ListenAddr: "127.0.0.1:0",
		Targets: []string{upstream}, Matcher: m,
		Log: func(eventlog.Record) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	r.Start()
	b.Cleanup(func() { r.Close() })
	return r.Addr()
}

func benchmarkRelayEcho(b *testing.B, addr string) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, relayEchoSize)
	got := make([]byte, relayEchoSize)
	werr := make(chan error, 1)
	b.SetBytes(relayEchoSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		go func() {
			_, err := c.Write(payload)
			werr <- err
		}()
		if _, err := io.ReadFull(c, got); err != nil {
			b.Fatal(err)
		}
		if err := <-werr; err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelayDirectEcho4MiB(b *testing.B) {
	benchmarkRelayEcho(b, benchEchoServer(b))
}

func BenchmarkRelayUnfaultedEcho4MiB(b *testing.B) {
	benchmarkRelayEcho(b, benchRelay(b, benchEchoServer(b)))
}

func BenchmarkRelayChunkedEcho4MiB(b *testing.B) {
	var never []rules.Rule
	for _, on := range []rules.MessageType{rules.OnRequest, rules.OnResponse} {
		never = append(never, rules.Rule{
			ID: "never-" + string(on), Src: "client", Dst: "db", On: on,
			Layer: rules.LayerL4, Action: rules.ActionSever, AbortAfterBytes: 1 << 62,
		})
	}
	benchmarkRelayEcho(b, benchRelay(b, benchEchoServer(b), never...))
}

// BenchmarkRelayConnSetup is one relayed connection's life: accept, two
// decisions, the upstream dial, the conn-open/conn-close records and a
// 1-byte echo.
func BenchmarkRelayConnSetup(b *testing.B) {
	addr := benchRelay(b, benchEchoServer(b))
	one := []byte{'x'}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Write(one); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(c, one); err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// Ablation: the prefix-structured-request-ID optimization the paper
// suggests (§7.2) applied to the 200-rule worst case.
func BenchmarkFigure8Match200RulesFastPath(b *testing.B) {
	m := rules.NewMatcher(rand.New(rand.NewSource(1)))
	m.UseLiteralPrefixFastPath(true)
	for i := 0; i < 200; i++ {
		if err := m.Install(rules.Rule{
			ID: fmt.Sprintf("r%d", i), Src: "client", Dst: "server",
			Action: rules.ActionDelay, Pattern: fmt.Sprintf("never-%d-*", i),
			DelayMillis: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	msg := rules.Message{Src: "client", Dst: "server", Type: rules.OnRequest, RequestID: "test-12345"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := m.Decide(msg); d.Fired {
			b.Fatal("no rule should match")
		}
	}
}

// ---- Sharded store: concurrent append/select scaling ----
//
// The workloads below are the store's production shape: many agents
// batch-appending concurrently while checkers issue namespace-pinned
// queries. Shards=1 is the ablation — a plain single-mutex store behind
// the same API — so the pairs quantify what partitioning buys.

const shardBenchNamespaces = 64

func shardBenchRecord(ns, i int) eventlog.Record {
	return eventlog.Record{
		Timestamp: time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Microsecond),
		RequestID: fmt.Sprintf("ns%d-%d", ns, i),
		Src:       "a", Dst: "b", Kind: eventlog.KindReply, Status: 200, LatencyMillis: 1,
	}
}

func newBenchShardedStore(b *testing.B, shards int) *eventlog.ShardedStore {
	b.Helper()
	ss, err := eventlog.NewShardedStore(eventlog.StoreOptions{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := ss.Close(); err != nil {
			b.Error(err)
		}
	})
	return ss
}

// populateSharded fills the store with total records spread evenly over
// the bench namespaces.
func populateSharded(b *testing.B, ss *eventlog.ShardedStore, total int) {
	b.Helper()
	const chunk = 1000
	for at := 0; at < total; at += chunk {
		recs := make([]eventlog.Record, 0, chunk)
		for i := at; i < at+chunk && i < total; i++ {
			recs = append(recs, shardBenchRecord(i%shardBenchNamespaces, i))
		}
		if err := ss.Log(recs...); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkShardedAppend: parallel writers, each appending 128-record
// batches into its own rotation of namespaces (the shard-aware client's
// flush shape). One op = one batch.
func benchmarkShardedAppend(b *testing.B, shards int) {
	ss := newBenchShardedStore(b, shards)
	var worker atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1))
		i := 0
		for pb.Next() {
			recs := make([]eventlog.Record, 128)
			for j := range recs {
				recs[j] = shardBenchRecord((w*7+i+j)%shardBenchNamespaces, i+j)
			}
			if err := ss.Log(recs...); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkShardedStoreAppend1Shard(b *testing.B)  { benchmarkShardedAppend(b, 1) }
func BenchmarkShardedStoreAppend8Shards(b *testing.B) { benchmarkShardedAppend(b, 8) }

// benchmarkShardedSelect: 100k records resident, parallel namespace-pinned
// queries — the checker's per-run access pattern during a campaign.
func benchmarkShardedSelect(b *testing.B, shards int) {
	ss := newBenchShardedStore(b, shards)
	populateSharded(b, ss, 100_000)
	var worker atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1))
		i := 0
		for pb.Next() {
			ns := (w*13 + i) % shardBenchNamespaces
			// Namespaces below 100k%64 hold one extra record.
			want := 100_000 / shardBenchNamespaces
			if ns < 100_000%shardBenchNamespaces {
				want++
			}
			recs, err := ss.Select(eventlog.Query{IDPattern: fmt.Sprintf("ns%d-*", ns)})
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != want {
				b.Fatalf("ns%d: got %d records, want %d", ns, len(recs), want)
			}
			i++
		}
	})
}

func BenchmarkShardedStoreSelect1Shard(b *testing.B)  { benchmarkShardedSelect(b, 1) }
func BenchmarkShardedStoreSelect8Shards(b *testing.B) { benchmarkShardedSelect(b, 8) }

// benchmarkShardedMixed: appends and pinned selects interleaved across
// workers over a 100k-record store — campaign steady state, where a
// single-mutex store serializes readers behind writers.
func benchmarkShardedMixed(b *testing.B, shards int) {
	ss := newBenchShardedStore(b, shards)
	populateSharded(b, ss, 100_000)
	var worker atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1))
		i := 0
		for pb.Next() {
			ns := (w*13 + i) % shardBenchNamespaces
			if (w+i)%2 == 0 {
				recs := make([]eventlog.Record, 64)
				for j := range recs {
					recs[j] = shardBenchRecord((ns+j)%shardBenchNamespaces, i+j)
				}
				if err := ss.Log(recs...); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := ss.Select(eventlog.Query{IDPattern: fmt.Sprintf("ns%d-*", ns), Limit: 2000}); err != nil {
					b.Fatal(err)
				}
			}
			i++
		}
	})
}

func BenchmarkShardedStoreMixed1Shard(b *testing.B)  { benchmarkShardedMixed(b, 1) }
func BenchmarkShardedStoreMixed8Shards(b *testing.B) { benchmarkShardedMixed(b, 8) }

// benchmarkWALAppend: the durable append path (WAL to the kernel before
// ack, no fsync wait) against the volatile one.
func benchmarkWALAppend(b *testing.B, dataDir bool) {
	opts := eventlog.StoreOptions{Shards: 8, Fsync: eventlog.FsyncNever}
	if dataDir {
		opts.DataDir = b.TempDir()
	}
	ss, err := eventlog.NewShardedStore(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := ss.Close(); err != nil {
			b.Error(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := make([]eventlog.Record, 128)
		for j := range recs {
			recs[j] = shardBenchRecord((i+j)%shardBenchNamespaces, i+j)
		}
		if err := ss.Log(recs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedStoreAppendVolatile(b *testing.B) { benchmarkWALAppend(b, false) }
func BenchmarkShardedStoreAppendWAL(b *testing.B)      { benchmarkWALAppend(b, true) }
