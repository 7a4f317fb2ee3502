package proxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// severedReply fetches the single reply record an agent logged for a
// severed connection.
func severedReply(t *testing.T, store *eventlog.Store) eventlog.Record {
	t.Helper()
	reps, err := store.Select(eventlog.Query{Kind: eventlog.KindReply})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("got %d reply records, want 1", len(reps))
	}
	return reps[0]
}

func TestSeverConnectionLogsReplyRequestSide(t *testing.T) {
	backend, hits := newEcho(t)
	store := eventlog.NewStore()
	a := newAgent(t, store, hostport(backend.URL))
	if err := a.InstallRules(rules.Rule{
		ID: "crash-req", Src: "client", Dst: "server",
		Action: rules.ActionAbort, Pattern: "test-*",
		ErrorCode: rules.AbortSeverConnection,
	}); err != nil {
		t.Fatal(err)
	}
	u, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, u+"/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-1")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("want transport error for severed connection")
	}
	if hits.Load() != 0 {
		t.Fatal("request-side sever must not reach the backend")
	}
	rec := severedReply(t, store)
	if rec.Status != 0 || !rec.GremlinGenerated || rec.FaultAction != string(rules.ActionAbort) {
		t.Fatalf("severed reply record = %+v, want status 0, gremlin-generated, abort", rec)
	}
}

// TestSeverConnectionLogsReplyResponseSide pins the fix for a hole in the
// event log: a response-side sever used to cut the connection without
// logging any reply, leaving the checker blind to the fault it injected.
func TestSeverConnectionLogsReplyResponseSide(t *testing.T) {
	backend, hits := newEcho(t)
	store := eventlog.NewStore()
	a := newAgent(t, store, hostport(backend.URL))
	if err := a.InstallRules(rules.Rule{
		ID: "crash-resp", Src: "client", Dst: "server", On: rules.OnResponse,
		Action: rules.ActionAbort, Pattern: "test-*",
		ErrorCode: rules.AbortSeverConnection,
	}); err != nil {
		t.Fatal(err)
	}
	u, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, u+"/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-1")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("want transport error for severed connection")
	}
	if hits.Load() != 1 {
		t.Fatal("response-side sever happens after the backend call")
	}
	rec := severedReply(t, store)
	if rec.Status != 0 || !rec.GremlinGenerated || rec.FaultAction != string(rules.ActionAbort) {
		t.Fatalf("severed reply record = %+v, want status 0, gremlin-generated, abort", rec)
	}
	if a.Stats().Severed != 1 {
		t.Fatalf("Severed = %d, want 1", a.Stats().Severed)
	}
}

func TestStreamingFastPathCountsAndForwards(t *testing.T) {
	// A reply body big enough that buffering it would be visible.
	big := strings.Repeat("x", 1<<20)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, big)
	}))
	t.Cleanup(backend.Close)
	store := eventlog.NewStore()
	a := newAgent(t, store, hostport(backend.URL))

	resp := routeGet(t, a, "/x", "test-1")
	if got := readBody(t, resp); got != big {
		t.Fatalf("streamed body: got %d bytes, want %d intact", len(got), len(big))
	}
	if st := a.Stats(); st.Streamed != 1 {
		t.Fatalf("Streamed = %d, want 1", st.Streamed)
	}

	// A response Modify rule forces the buffered slow path.
	if err := a.InstallRules(rules.Rule{
		ID: "m1", Src: "client", Dst: "server", On: rules.OnResponse,
		Action: rules.ActionModify, Pattern: "test-*",
		SearchBytes: "xxx", ReplaceBytes: "yyy",
	}); err != nil {
		t.Fatal(err)
	}
	resp = routeGet(t, a, "/x", "test-2")
	if got := readBody(t, resp); !strings.HasPrefix(got, "yyy") {
		t.Fatalf("modify path: body starts %q, want rewritten", got[:16])
	}
	if st := a.Stats(); st.Streamed != 1 {
		t.Fatalf("Streamed = %d after Modify exchange, want still 1", st.Streamed)
	}
}

func TestStreamingPreservesPostBody(t *testing.T) {
	backend, _ := newEcho(t)
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
	u, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("payload!", 4096)
	req, err := http.NewRequest(http.MethodPost, u+"/submit", bytes.NewReader([]byte(payload)))
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	want := "POST /submit body=" + payload
	if got := readBody(t, resp); got != want {
		t.Fatalf("echoed %d bytes, want %d with body intact", len(got), len(want))
	}
}

// slowStoreSink emulates a distant log store: every shipment costs a long
// round trip.
type slowStoreSink struct {
	delay time.Duration
	inner *eventlog.Store
}

func (s *slowStoreSink) Log(recs ...eventlog.Record) error {
	time.Sleep(s.delay)
	return s.inner.Log(recs...)
}

// TestProxyDataPathNotBlockedBySlowStore wires an agent to a buffered sink
// over an artificially slow store and checks that live requests never wait
// out a store round trip.
func TestProxyDataPathNotBlockedBySlowStore(t *testing.T) {
	backend, _ := newEcho(t)
	slow := &slowStoreSink{delay: 300 * time.Millisecond, inner: eventlog.NewStore()}
	buffered := eventlog.NewBufferedSinkOpts(slow, eventlog.BufferOptions{
		Size: 1, Max: 1 << 16, Interval: 10 * time.Millisecond,
	})
	t.Cleanup(func() {
		if err := buffered.Close(); err != nil {
			t.Error(err)
		}
	})

	a, err := New(Config{
		ServiceName: "client",
		Routes: []Route{{
			Dst:        "server",
			ListenAddr: "127.0.0.1:0",
			Targets:    []string{hostport(backend.URL)},
		}},
		Sink: buffered,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Error(err)
		}
	})

	const n = 10 // each proxied call logs 2 records
	start := time.Now()
	for i := 0; i < n; i++ {
		resp := routeGet(t, a, "/x", fmt.Sprintf("test-%d", i))
		readBody(t, resp)
	}
	elapsed := time.Since(start)
	// Synchronous shipping would cost 2×n round trips (6 s); even one round
	// trip on the data path would push past the 300 ms delay.
	if elapsed >= slow.delay {
		t.Fatalf("%d proxied requests took %v; data path blocked on the store", n, elapsed)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && slow.inner.Len() < 2*n {
		time.Sleep(5 * time.Millisecond)
	}
	if got := slow.inner.Len(); got != 2*n {
		t.Fatalf("store has %d records, want %d", got, 2*n)
	}
}

// TestStreamingWritesThroughSizedReply pins the fast path's write-through
// for a reply of declared length: the backend sends the first 1 KiB of a
// 64 KiB body and waits until the client has read it, so a copy that held
// bytes back until the body ended would deadlock.
func TestStreamingWritesThroughSizedReply(t *testing.T) {
	const size, head = 64 << 10, 1 << 10
	body := strings.Repeat("0123456789abcdef", size/16)
	clientRead := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(size))
		_, _ = io.WriteString(w, body[:head])
		w.(http.Flusher).Flush()
		select {
		case <-clientRead:
		case <-time.After(10 * time.Second):
			return // the client never saw the head; it fails below
		}
		_, _ = io.WriteString(w, body[head:])
	}))
	t.Cleanup(backend.Close)
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))

	resp := routeGet(t, a, "/sized", "test-1")
	defer resp.Body.Close()
	if resp.ContentLength != size {
		t.Fatalf("Content-Length = %d, want %d", resp.ContentLength, size)
	}
	got := make([]byte, size)
	headRead := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(resp.Body, got[:head])
		headRead <- err
	}()
	select {
	case err := <-headRead:
		if err != nil {
			t.Fatalf("read head: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the reply's first 1 KiB never reached the client: the agent holds written bytes back")
	}
	close(clientRead)
	if _, err := io.ReadFull(resp.Body, got[head:]); err != nil {
		t.Fatalf("read rest: %v", err)
	}
	if string(got) != body {
		t.Fatal("sized reply corrupted")
	}
	if st := a.Stats(); st.Streamed != 1 {
		t.Fatalf("Streamed = %d, want 1", st.Streamed)
	}
}
