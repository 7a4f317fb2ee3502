package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/orchestrator"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
)

// The traced run wraps the program's seams — the agents' sink, the
// sink under the BufferedSink, the runner's Source, the orchestrator's
// agent control and each unit's checks — with spans. A wrapper must
// offer exactly the optional interfaces of what it wraps, since the
// program type-asserts on them (eventlog.CountRecords on Counter,
// BufferedSink on LogBatch, the agent on Flush and the health
// accessors); otherwise the traced run would measure a different program.

// linker maps a request ID or pattern to the span that caused the call,
// 0 when unknown.
type linker func(key string) uint64

// Optional sink surfaces the program looks for.
type (
	flusher    interface{ Flush() error }
	sinkHealth interface {
		Dropped() int64
		Flushes() int64
		Retries() int64
	}
	batchHealth interface {
		BatchRecords() int64
		MaxBatch() int64
	}
	batchLogger interface {
		LogBatch(recs []eventlog.Record) error
	}
)

// bufferedSink is the full surface of eventlog.BufferedSink as the agents
// see it.
type bufferedSink interface {
	eventlog.Sink
	flusher
	sinkHealth
	batchHealth
}

// sinkTally counts what passes through a traced sink and keeps a bounded
// sample of the matcher messages the records describe.
type sinkTally struct {
	records atomic.Int64
	fired   atomic.Int64

	mu   sync.Mutex
	msgs []rules.Message
}

const maxMessages = 50000

func (t *sinkTally) observe(recs []eventlog.Record) {
	var fired int64
	for _, r := range recs {
		if r.FaultRuleID != "" {
			fired++
		}
	}
	t.records.Add(int64(len(recs)))
	t.fired.Add(fired)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		if len(t.msgs) >= maxMessages {
			return
		}
		var typ rules.MessageType
		switch r.Kind {
		case eventlog.KindRequest:
			typ = rules.OnRequest
		case eventlog.KindReply:
			typ = rules.OnResponse
		default:
			continue
		}
		t.msgs = append(t.msgs, rules.Message{Src: r.Src, Dst: r.Dst, Type: typ, RequestID: r.RequestID, CallPath: r.EI})
	}
}

func (t *sinkTally) messages() []rules.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]rules.Message(nil), t.msgs...)
}

// tracedSink records a span per Log call.
type tracedSink struct {
	inner  eventlog.Sink
	t      *tracer
	name   string
	parent linker
	tally  *sinkTally
}

func (s *tracedSink) Log(recs ...eventlog.Record) error {
	start := time.Now()
	err := s.inner.Log(recs...)
	var key string
	if len(recs) > 0 {
		key = recs[0].RequestID
	}
	s.t.since(s.parent(key), s.name, key, start)
	if s.tally != nil {
		s.tally.observe(recs)
	}
	return err
}

// tracedBufferedSink adds BufferedSink's flush and health surface.
type tracedBufferedSink struct {
	*tracedSink
	buf bufferedSink
}

func (s tracedBufferedSink) Flush() error {
	start := time.Now()
	err := s.buf.Flush()
	s.t.since(0, "eventlog.flush", "", start)
	return err
}

func (s tracedBufferedSink) Dropped() int64      { return s.buf.Dropped() }
func (s tracedBufferedSink) Flushes() int64      { return s.buf.Flushes() }
func (s tracedBufferedSink) Retries() int64      { return s.buf.Retries() }
func (s tracedBufferedSink) BatchRecords() int64 { return s.buf.BatchRecords() }
func (s tracedBufferedSink) MaxBatch() int64     { return s.buf.MaxBatch() }

// tracedBatchSink adds the LogBatch fast path of eventlog.Client.
type tracedBatchSink struct {
	*tracedSink
	batch batchLogger
}

func (s tracedBatchSink) LogBatch(recs []eventlog.Record) error {
	start := time.Now()
	err := s.batch.LogBatch(recs)
	s.t.since(0, "eventlog.ship", "", start)
	return err
}

// traceSink wraps a sink, keeping its optional surface. It refuses a sink
// with only part of a known surface rather than hide the rest.
func traceSink(inner eventlog.Sink, t *tracer, name string, parent linker, tally *sinkTally) (eventlog.Sink, error) {
	base := &tracedSink{inner: inner, t: t, name: name, parent: parent, tally: tally}
	_, f := inner.(flusher)
	_, h := inner.(sinkHealth)
	_, bh := inner.(batchHealth)
	_, bl := inner.(batchLogger)
	switch {
	case f && h && bh && !bl:
		return tracedBufferedSink{tracedSink: base, buf: inner.(bufferedSink)}, nil
	case bl && !f && !h && !bh:
		return tracedBatchSink{tracedSink: base, batch: inner.(batchLogger)}, nil
	case !f && !h && !bh && !bl:
		return base, nil
	}
	return nil, fmt.Errorf("traceSink: %T has an optional sink surface the wrapper cannot forward", inner)
}

// tracedSource records a span per Select (and Count, when the source can
// count).
type tracedSource struct {
	inner  eventlog.Source
	t      *tracer
	parent linker
}

func (s *tracedSource) Select(q eventlog.Query) ([]eventlog.Record, error) {
	start := time.Now()
	recs, err := s.inner.Select(q)
	s.t.since(s.parent(q.IDPattern), "eventlog.select", q.IDPattern, start)
	return recs, err
}

type tracedCountingSource struct {
	*tracedSource
	counter eventlog.Counter
}

func (s tracedCountingSource) Count(q eventlog.Query) (int, error) {
	start := time.Now()
	n, err := s.counter.Count(q)
	s.t.since(s.parent(q.IDPattern), "eventlog.count", q.IDPattern, start)
	return n, err
}

func traceSource(inner eventlog.Source, t *tracer, parent linker) eventlog.Source {
	base := &tracedSource{inner: inner, t: t, parent: parent}
	if c, ok := inner.(eventlog.Counter); ok {
		return tracedCountingSource{tracedSource: base, counter: c}
	}
	return base
}

// tracedControl records a span per agent control call.
type tracedControl struct {
	inner orchestrator.AgentControl
	t     *tracer
	url   string
}

var _ orchestrator.AgentControl = tracedControl{}

func (c tracedControl) GetRuleSet(ctx context.Context) (proxy.RuleSetBody, error) {
	start := time.Now()
	b, err := c.inner.GetRuleSet(ctx)
	c.t.since(0, "agentapi.get_ruleset", c.url, start)
	return b, err
}

func (c tracedControl) PutRuleSet(ctx context.Context, set rules.RuleSet, ifMatch uint64) (rules.RuleSetStatus, error) {
	start := time.Now()
	st, err := c.inner.PutRuleSet(ctx, set, ifMatch)
	c.t.since(0, "agentapi.put_ruleset", c.url, start)
	return st, err
}

func (c tracedControl) ClearRules(ctx context.Context) (int, error) {
	start := time.Now()
	n, err := c.inner.ClearRules(ctx)
	c.t.since(0, "agentapi.clear_rules", c.url, start)
	return n, err
}

func (c tracedControl) Flush(ctx context.Context) error {
	start := time.Now()
	err := c.inner.Flush(ctx)
	c.t.since(0, "agentapi.flush", c.url, start)
	return err
}

// traceChecks returns a copy of recipe whose checks each record a span
// under the scope for pattern; the check span is the innermost scope while
// it runs, so the Source calls it makes nest under it.
func traceChecks(recipe core.Recipe, t *tracer, scopes *scopeStack, pattern string) core.Recipe {
	checks := make([]core.Check, len(recipe.Checks))
	for i, c := range recipe.Checks {
		checks[i] = func(ck *checker.Checker) (checker.Result, error) {
			id := t.newID()
			parent := scopes.top(pattern)
			scopes.push(pattern, id)
			start := time.Now()
			res, err := c(ck)
			end := time.Now()
			scopes.pop(pattern)
			t.record(id, parent, "checker.check", pattern, start, end)
			return res, err
		}
	}
	recipe.Checks = checks
	return recipe
}

// scopeStack maps a request-ID pattern to the stack of open spans working
// on it (a unit, then a check inside it), so calls carrying the pattern
// nest under the innermost one.
type scopeStack struct {
	mu     sync.Mutex
	stacks map[string][]uint64
}

func newScopeStack() *scopeStack { return &scopeStack{stacks: make(map[string][]uint64)} }

func (s *scopeStack) push(key string, id uint64) {
	s.mu.Lock()
	s.stacks[key] = append(s.stacks[key], id)
	s.mu.Unlock()
}

func (s *scopeStack) pop(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stacks[key]
	if len(st) <= 1 {
		delete(s.stacks, key)
		return
	}
	s.stacks[key] = st[:len(st)-1]
}

func (s *scopeStack) top(key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stacks[key]
	if len(st) == 0 {
		return 0
	}
	return st[len(st)-1]
}
