package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/orchestrator"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
)

// The program type-asserts on these surfaces (eventlog.CountRecords,
// BufferedSink's batch path, the agent's flush handler and Stats).
type (
	programFlusher    = interface{ Flush() error }
	programSinkHealth = interface {
		Dropped() int64
		Flushes() int64
		Retries() int64
	}
	programBatchHealth = interface {
		BatchRecords() int64
		MaxBatch() int64
	}
	programBatchSink = interface{ LogBatch([]eventlog.Record) error }
)

func surfaces(s any) (flush, health, batchHealth, batch bool) {
	_, flush = s.(programFlusher)
	_, health = s.(programSinkHealth)
	_, batchHealth = s.(programBatchHealth)
	_, batch = s.(programBatchSink)
	return
}

func noParent(string) uint64 { return 0 }

func TestTraceSinkKeepsBufferedSinkSurface(t *testing.T) {
	buf := eventlog.NewBufferedSink(eventlog.NewStore(), 0)
	defer buf.Close()
	wrapped, err := traceSink(buf, newTracer(), "eventlog.log", noParent, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, h, bh, b := surfaces(wrapped)
	if !f || !h || !bh {
		t.Fatalf("wrapped BufferedSink lost a surface: flush=%v health=%v batchHealth=%v", f, h, bh)
	}
	if b {
		t.Fatal("wrapped BufferedSink gained LogBatch, which BufferedSink does not have")
	}
}

func TestTraceSinkKeepsClientBatchPath(t *testing.T) {
	wrapped, err := traceSink(eventlog.NewClient("http://127.0.0.1:1", nil), newTracer(), "eventlog.client_log", noParent, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, h, bh, b := surfaces(wrapped)
	if !b {
		t.Fatal("wrapped Client lost LogBatch")
	}
	if f || h || bh {
		t.Fatalf("wrapped Client gained surfaces it lacks: flush=%v health=%v batchHealth=%v", f, h, bh)
	}
}

func TestTraceSinkPlainAndPartial(t *testing.T) {
	wrapped, err := traceSink(eventlog.NewStore(), newTracer(), "x", noParent, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, h, bh, b := surfaces(wrapped); f || h || bh || b {
		t.Fatal("wrapped plain sink gained an optional surface")
	}
	if _, err := traceSink(flushOnly{}, newTracer(), "x", noParent, nil); err == nil {
		t.Fatal("a sink with only part of a surface was wrapped silently")
	}
}

type flushOnly struct{}

func (flushOnly) Log(...eventlog.Record) error { return nil }
func (flushOnly) Flush() error                 { return nil }

// batchCounter is a sink with the LogBatch fast path that counts which
// path was used.
type batchCounter struct{ logs, batches atomic.Int64 }

func (c *batchCounter) Log(...eventlog.Record) error     { c.logs.Add(1); return nil }
func (c *batchCounter) LogBatch([]eventlog.Record) error { c.batches.Add(1); return nil }

// BufferedSink must still take the LogBatch path when its sink is traced.
func TestBufferedSinkUsesLogBatchThroughWrapper(t *testing.T) {
	inner := &batchCounter{}
	wrapped, err := traceSink(inner, newTracer(), "eventlog.client_log", noParent, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := eventlog.NewBufferedSink(wrapped, 0)
	defer buf.Close()
	if err := buf.Log(eventlog.Record{RequestID: "a-1"}, eventlog.Record{RequestID: "a-2"}); err != nil {
		t.Fatal(err)
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	if inner.batches.Load() == 0 || inner.logs.Load() != 0 {
		t.Fatalf("flush went through Log %d times and LogBatch %d times, want LogBatch only",
			inner.logs.Load(), inner.batches.Load())
	}
}

// An agent logging through the traced sink still reports the sink's
// shipping health in Stats, and flushes it.
func TestAgentSeesTracedSinkHealth(t *testing.T) {
	st, err := newStoreStack(2, &tracing{t: newTracer(), parent: noParent, tally: &sinkTally{}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dc, err := newDirectChain()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	a, err := proxy.New(proxy.Config{
		ServiceName: "client",
		Routes:      []proxy.Route{{Dst: "svc", ListenAddr: "127.0.0.1:0", Targets: []string{dc.services[len(dc.services)-1].Addr()}}},
		Sink:        st.sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Close()
	url, err := a.RouteURL("svc")
	if err != nil {
		t.Fatal(err)
	}
	w := newWorker(nil)
	defer w.close()
	if status, _ := w.do(url, request{id: "t-1", path: "/x"}); status != 200 {
		t.Fatalf("status %d", status)
	}
	if err := st.sink.(programFlusher).Flush(); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.LogFlushes == 0 || s.LogBatchRecords != 2 {
		t.Fatalf("agent stats through traced sink: flushes %d, batch records %d; want >0 and 2", s.LogFlushes, s.LogBatchRecords)
	}
	if n, _ := st.count("*"); n != 2 {
		t.Fatalf("store holds %d records, want 2", n)
	}
}

// countingSource has both Select and Count and records which ran.
type countingSource struct{ selects, counts atomic.Int64 }

func (c *countingSource) Select(eventlog.Query) ([]eventlog.Record, error) {
	c.selects.Add(1)
	return nil, nil
}

func (c *countingSource) Count(eventlog.Query) (int, error) { c.counts.Add(1); return 7, nil }

func TestTraceSourceKeepsCounter(t *testing.T) {
	inner := &countingSource{}
	tr := newTracer()
	src := traceSource(inner, tr, noParent)
	n, err := eventlog.CountRecords(src, eventlog.Query{IDPattern: "camp-x-*"})
	if err != nil || n != 7 {
		t.Fatalf("CountRecords = %d, %v", n, err)
	}
	if inner.counts.Load() != 1 || inner.selects.Load() != 0 {
		t.Fatalf("CountRecords through the wrapper used Select %d times and Count %d times, want Count only",
			inner.selects.Load(), inner.counts.Load())
	}
	if _, ok := traceSource(selectOnly{}, tr, noParent).(eventlog.Counter); ok {
		t.Fatal("wrapped source without Count gained a Counter")
	}
	if got := byName(tr.snapshot(), "eventlog.count"); len(got) != 1 {
		t.Fatalf("recorded %d count spans, want 1", len(got))
	}
}

type selectOnly struct{}

func (selectOnly) Select(eventlog.Query) ([]eventlog.Record, error) { return nil, nil }

type fakeControl struct{ calls atomic.Int64 }

func (f *fakeControl) GetRuleSet(context.Context) (proxy.RuleSetBody, error) {
	f.calls.Add(1)
	return proxy.RuleSetBody{}, nil
}

func (f *fakeControl) PutRuleSet(context.Context, rules.RuleSet, uint64) (rules.RuleSetStatus, error) {
	f.calls.Add(1)
	return rules.RuleSetStatus{Generation: 3}, nil
}

func (f *fakeControl) ClearRules(context.Context) (int, error) { f.calls.Add(1); return 2, nil }
func (f *fakeControl) Flush(context.Context) error             { f.calls.Add(1); return nil }

func TestTracedControlForwards(t *testing.T) {
	inner := &fakeControl{}
	tr := newTracer()
	var c orchestrator.AgentControl = tracedControl{inner: inner, t: tr, url: "u"}
	ctx := context.Background()
	_, _ = c.GetRuleSet(ctx)
	st, _ := c.PutRuleSet(ctx, rules.RuleSet{}, 0)
	n, _ := c.ClearRules(ctx)
	_ = c.Flush(ctx)
	if inner.calls.Load() != 4 || st.Generation != 3 || n != 2 {
		t.Fatalf("forwarded %d calls (generation %d, cleared %d), want 4 (3, 2)", inner.calls.Load(), st.Generation, n)
	}
	if got := len(tr.snapshot()); got != 4 {
		t.Fatalf("recorded %d spans, want 4", got)
	}
}

func TestTraceChecksNestsSourceCalls(t *testing.T) {
	tr := newTracer()
	scopes := newScopeStack()
	unit := tr.newID()
	scopes.push("camp-r-*", unit)
	src := traceSource(&countingSource{}, tr, scopes.top)
	want := checker.Result{Check: "probe", Passed: true}
	recipe := core.Recipe{Checks: []core.Check{func(c *checker.Checker) (checker.Result, error) {
		_, err := c.Source().Select(eventlog.Query{IDPattern: "camp-r-*"})
		return want, err
	}}}
	traced := traceChecks(recipe, tr, scopes, "camp-r-*")
	got, err := traced.Checks[0](checker.New(src))
	if err != nil || got.Check != want.Check || !got.Passed {
		t.Fatalf("traced check returned %+v, %v", got, err)
	}
	scopes.pop("camp-r-*")
	tr.record(unit, 0, "campaign.unit", "r", tr.epoch, time.Now())
	var check, sel span
	for _, s := range tr.snapshot() {
		switch s.Name {
		case "checker.check":
			check = s
		case "eventlog.select":
			sel = s
		}
	}
	if check.Parent != unit || sel.Parent != check.ID {
		t.Fatalf("check parent %d (want unit %d), select parent %d (want check %d)", check.Parent, unit, sel.Parent, check.ID)
	}
}

func TestCovered(t *testing.T) {
	got := covered(0, 100, [][2]int64{{10, 30}, {20, 40}, {90, 120}, {-5, 2}})
	if got != 42 {
		t.Fatalf("covered = %d, want 42", got)
	}
}
