package eventlog

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", NewStore())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	})
	return srv, NewClient(srv.URL(), nil)
}

func TestServerIngestAndQuery(t *testing.T) {
	_, c := newTestServer(t)

	recs := []Record{
		{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "test-1", Timestamp: t0},
		{Src: "a", Dst: "b", Kind: KindReply, RequestID: "test-1", Status: 200, LatencyMillis: 12.5, Timestamp: t0.Add(time.Millisecond)},
		{Src: "a", Dst: "c", Kind: KindRequest, RequestID: "test-2", Timestamp: t0.Add(2 * time.Millisecond)},
	}
	if err := c.Log(recs...); err != nil {
		t.Fatal(err)
	}

	got, err := c.Select(Query{Src: "a", Dst: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if got[1].Status != 200 || got[1].LatencyMillis != 12.5 {
		t.Fatalf("reply record = %+v", got[1])
	}
	if !got[0].Timestamp.Equal(t0) {
		t.Fatalf("timestamp round trip = %v, want %v", got[0].Timestamp, t0)
	}

	n, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Stats = %d, want 3", n)
	}
}

func TestServerClear(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	dropped, err := c.Clear()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("Clear = %d, want 1", dropped)
	}
	n, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Stats after clear = %d", n)
	}
}

func TestServerHealthz(t *testing.T) {
	_, c := newTestServer(t)
	if !c.Healthy() {
		t.Fatal("server should be healthy")
	}
	down := NewClient("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if down.Healthy() {
		t.Fatal("unreachable server should be unhealthy")
	}
}

func TestServerRejectsBadQuery(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Select(Query{IDPattern: "re:["}); err == nil {
		t.Fatal("want error for bad pattern")
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/query"},
		{http.MethodPut, "/v1/records"},
		{http.MethodPost, "/v1/stats"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL()+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

func TestServerRejectsMalformedBody(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL()+"/v1/records", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestClientErrorsAgainstDownServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if err := c.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err == nil {
		t.Fatal("Log should fail")
	}
	if _, err := c.Select(Query{}); err == nil {
		t.Fatal("Select should fail")
	}
	if _, err := c.Clear(); err == nil {
		t.Fatal("Clear should fail")
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("Stats should fail")
	}
}

func TestClientLogEmptyIsNoop(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if err := c.Log(); err != nil {
		t.Fatalf("empty Log should not touch the network: %v", err)
	}
}

// BufferedSink tests live in buffer_test.go.

func TestServerClearMatchingPattern(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Log(
		Record{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "camp-x-1-1"},
		Record{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "camp-y-1-1"},
	); err != nil {
		t.Fatal(err)
	}
	dropped, err := c.ClearMatching("camp-x-*")
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("ClearMatching = %d, want 1", dropped)
	}
	left, err := c.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].RequestID != "camp-y-1-1" {
		t.Fatalf("survivors = %+v", left)
	}
	if _, err := c.ClearMatching("re:["); err == nil {
		t.Fatal("want error for bad pattern")
	}
}

func newShardedTestServer(t *testing.T, shards int) (*ShardedStore, *Client) {
	t.Helper()
	ss, err := NewShardedStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", ss)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
		ss.Close()
	})
	return ss, NewClient(srv.URL(), nil)
}

func TestClientLogBatchShardAware(t *testing.T) {
	ss, c := newShardedTestServer(t, 4)

	var recs []Record
	for i := 0; i < 120; i++ {
		recs = append(recs, Record{
			Src: "a", Dst: "b", Kind: KindRequest,
			RequestID: fmt.Sprintf("ns%d-%d", i%9, i),
			Timestamp: t0.Add(time.Duration(i) * time.Millisecond),
		})
	}
	if err := c.LogBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := ss.Len(); got != 120 {
		t.Fatalf("server holds %d records, want 120", got)
	}
	// Every record must be findable by its namespace pattern (i.e. it
	// landed on the shard the pattern pins).
	for ns := 0; ns < 9; ns++ {
		got, err := c.Select(Query{IDPattern: fmt.Sprintf("ns%d-*", ns)})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < 120; i++ {
			if i%9 == ns {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("ns%d: %d records via client, want %d", ns, len(got), want)
		}
	}
}

// TestClientLogBatchOnePostPerFlush checks that a flush bound for a
// sharded store travels as one NDJSON POST, however many shards its
// records span.
func TestClientLogBatchOnePostPerFlush(t *testing.T) {
	ss, err := NewShardedStore(StoreOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	srv, err := NewServer("127.0.0.1:0", ss)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	target, err := url.Parse(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	forward := httputil.NewSingleHostReverseProxy(target)
	var posts atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/records" {
			posts.Add(1)
			if r.URL.RawQuery != "" {
				t.Errorf("batch POST carries query %q", r.URL.RawQuery)
			}
		}
		forward.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	var recs []Record
	for i := 0; i < 64; i++ {
		recs = append(recs, Record{Src: "a", Dst: "b", Kind: KindRequest,
			RequestID: fmt.Sprintf("ns%d-%d", i%8, i), Timestamp: t0})
	}
	if err := NewClient(proxy.URL, nil).LogBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("one flush made %d POSTs, want 1", got)
	}
	if got := ss.Len(); got != 64 {
		t.Fatalf("store holds %d records, want 64", got)
	}
}

// TestServerIgnoresLegacyShardHint posts batches the way older clients
// did, tagged ?shard=i&of=n with hints that are wrong, out of range or
// for another topology: every record must still be accepted and land on
// the shard its request ID routes to.
func TestServerIgnoresLegacyShardHint(t *testing.T) {
	ss, c := newShardedTestServer(t, 4)
	body := `{"requestId":"test-1","src":"a","dst":"b","kind":"request"}
{"requestId":"other-1","src":"a","dst":"b","kind":"request"}
`
	wrong := (ss.shardFor("test-1") + 1) % 4
	for _, q := range []string{
		fmt.Sprintf("shard=%d&of=4", wrong), "shard=99&of=4", "shard=0&of=7", "shard=x&of=y",
	} {
		resp, err := http.Post(c.baseURL+"/v1/records?"+q, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d", q, resp.StatusCode)
		}
	}
	if got := ss.Len(); got != 8 {
		t.Fatalf("Len=%d, want 8", got)
	}
	for _, id := range []string{"test-1", "other-1"} {
		recs, err := ss.shards[ss.shardFor(id)].Select(Query{IDPattern: id})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 4 {
			t.Fatalf("%s: %d records on its shard, want 4", id, len(recs))
		}
	}
}

func TestClientCount(t *testing.T) {
	_, c := newShardedTestServer(t, 4)
	var recs []Record
	for i := 0; i < 50; i++ {
		recs = append(recs, Record{
			Src: "a", Dst: "b", Kind: KindRequest,
			RequestID: fmt.Sprintf("test-%d", i),
			Timestamp: t0.Add(time.Duration(i) * time.Millisecond),
		})
	}
	if err := c.LogBatch(recs); err != nil {
		t.Fatal(err)
	}
	n, err := c.Count(Query{IDPattern: "test-*"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("Count=%d, want 50", n)
	}
	n, err = c.Count(Query{IDPattern: "other-*"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Count=%d, want 0", n)
	}
}

func TestServerNDJSONIngest(t *testing.T) {
	srv, c := newTestServer(t)
	body := `{"requestId":"test-1","src":"a","dst":"b","kind":"request"}
{"requestId":"test-2","src":"a","dst":"b","kind":"request"}
`
	resp, err := http.Post(srv.URL()+"/v1/records", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	n, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("stats=%d, want 2", n)
	}
}

func TestServerInfoVolatileStore(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Log(Record{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "test-1", Timestamp: t0}); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 || info.Shards != 1 || info.Persistent {
		t.Fatalf("info = %+v", info)
	}
	if info.Fsync != "" || info.DataDir != "" || info.FsyncIntervalMillis != 0 {
		t.Fatalf("volatile store leaked durability fields: %+v", info)
	}
}

func TestServerInfoShardedWAL(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{
		Shards:        4,
		DataDir:       dir,
		Fsync:         FsyncInterval,
		FsyncInterval: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", ss)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
		if err := ss.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	})
	c := NewClient(srv.URL(), nil)
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 4 || !info.Persistent || info.Fsync != string(FsyncInterval) ||
		info.FsyncIntervalMillis != 250 || info.DataDir != dir {
		t.Fatalf("info = %+v", info)
	}
}

func TestServerInfoMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL()+"/v1/info", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
