package streamproxy

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/rules"
)

// serveTCP runs handle on every accepted connection until the returned
// stop func closes the listener and waits for the handlers.
func serveTCP(t *testing.T, handle func(net.Conn)) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				handle(c)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// echoServer accepts connections and echoes everything back until the
// peer closes. Returned closer stops it.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	return serveTCP(t, func(c net.Conn) { io.Copy(c, c) })
}

// recordSink collects emitted records thread-safely.
type recordSink struct {
	mu   sync.Mutex
	recs []eventlog.Record
}

func (s *recordSink) log(r eventlog.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

func (s *recordSink) byKind(k eventlog.Kind) []eventlog.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []eventlog.Record
	for _, r := range s.recs {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

func newRelay(t *testing.T, m *rules.Matcher, sink *recordSink, upstream string) *Relay {
	t.Helper()
	r, err := New(Config{
		Src:        "client",
		Dst:        "db",
		ListenAddr: "127.0.0.1:0",
		Targets:    []string{upstream},
		Matcher:    m,
		Log:        sink.log,
		Agent:      "client-agent",
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(func() { r.Close() })
	return r
}

func l4Rule(id string, action rules.Action) rules.Rule {
	return rules.Rule{ID: id, Src: "client", Dst: "db", Layer: rules.LayerL4, Action: action}
}

// roundTrip writes payload and reads until len(payload) bytes or error.
func roundTrip(t *testing.T, addr string, payload []byte) ([]byte, error) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Write(payload); err != nil {
		return nil, err
	}
	got := make([]byte, len(payload))
	n, err := io.ReadFull(c, got)
	return got[:n], err
}

func TestRelayPassThrough(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, up)

	payload := bytes.Repeat([]byte("hello stream "), 1000)
	got, err := roundTrip(t, r.Addr(), payload)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("echoed payload differs")
	}
	r.Close()

	opens := sink.byKind(eventlog.KindConnOpen)
	closes := sink.byKind(eventlog.KindConnClose)
	if len(opens) != 1 || len(closes) != 1 {
		t.Fatalf("want 1 open + 1 close record, got %d + %d", len(opens), len(closes))
	}
	cl := closes[0]
	if cl.RequestID != opens[0].RequestID {
		t.Fatal("open/close records not paired by connection ID")
	}
	if cl.BytesUp != int64(len(payload)) || cl.BytesDown != int64(len(payload)) {
		t.Fatalf("bytes up/down = %d/%d, want %d each", cl.BytesUp, cl.BytesDown, len(payload))
	}
	if cl.FaultAction != "" || cl.GremlinGenerated {
		t.Fatalf("fault recorded on clean connection: %+v", cl)
	}
	st := r.Stats()
	if st.Conns != 1 || st.Open != 0 || st.Faults() != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestConnectRefuse(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	rule := l4Rule("refuse-1", rules.ActionAbort)
	if err := m.Install(rule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, up)

	// The RST can land while the client is still inside connect() (the
	// kernel completed the handshake from the listen backlog), so either
	// the dial or the first round trip must fail.
	if c, err := net.Dial("tcp", r.Addr()); err == nil {
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, werr := c.Write([]byte("ping")); werr == nil {
			buf := make([]byte, 4)
			if _, rerr := io.ReadFull(c, buf); rerr == nil {
				t.Fatal("want connection error on refused connect")
			}
		}
		c.Close()
	}
	r.Close()
	closes := sink.byKind(eventlog.KindConnClose)
	if len(closes) != 1 || closes[0].FaultAction != "abort" || closes[0].FaultRuleID != "refuse-1" {
		t.Fatalf("close record = %+v", closes)
	}
	if !closes[0].GremlinGenerated {
		t.Fatal("refused close not marked gremlin-generated")
	}
	if r.Stats().Refused != 1 {
		t.Fatalf("refused counter = %d", r.Stats().Refused)
	}
}

func TestConnectDelay(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	rule := l4Rule("cdelay-1", rules.ActionDelay)
	rule.DelayMillis = 150
	if err := m.Install(rule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, up)

	start := time.Now()
	got, err := roundTrip(t, r.Addr(), []byte("ping"))
	if err != nil || string(got) != "ping" {
		t.Fatalf("round trip: %q %v", got, err)
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("connect-delay not applied: %v", d)
	}
	r.Close()
	closes := sink.byKind(eventlog.KindConnClose)
	if len(closes) != 1 || closes[0].FaultAction != "delay" || closes[0].InjectedDelayMillis != 150 {
		t.Fatalf("close record = %+v", closes)
	}
	if r.Stats().ConnectDelayed != 1 {
		t.Fatalf("connectDelayed counter = %d", r.Stats().ConnectDelayed)
	}
}

func TestSeverAfterBytes(t *testing.T) {
	for _, mode := range []string{rules.SeverRST, rules.SeverFIN} {
		t.Run(mode, func(t *testing.T) {
			up, stop := echoServer(t)
			defer stop()
			sink := &recordSink{}
			m := rules.NewMatcher(nil)
			rule := l4Rule("sever-1", rules.ActionSever)
			rule.AbortAfterBytes = 1024
			rule.SeverMode = mode
			if err := m.Install(rule); err != nil {
				t.Fatal(err)
			}
			r := newRelay(t, m, sink, up)

			payload := bytes.Repeat([]byte("x"), 64*1024)
			_, err := roundTrip(t, r.Addr(), payload)
			if err == nil {
				t.Fatal("want mid-stream failure from sever")
			}
			r.Close()
			closes := sink.byKind(eventlog.KindConnClose)
			if len(closes) != 1 {
				t.Fatalf("want 1 close record, got %d", len(closes))
			}
			cl := closes[0]
			if cl.FaultAction != "sever" || cl.FaultRuleID != "sever-1" {
				t.Fatalf("close record = %+v", cl)
			}
			if cl.BytesUp != 1024 {
				t.Fatalf("bytesUp = %d, want exactly 1024 (clipped at threshold)", cl.BytesUp)
			}
			if r.Stats().Severed != 1 {
				t.Fatalf("severed counter = %d", r.Stats().Severed)
			}
		})
	}
}

func TestThrottlePacesTransfer(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	rule := l4Rule("throttle-1", rules.ActionThrottle)
	rule.On = rules.OnResponse // pace the echoed bytes coming back
	rule.RateBytesPerSec = 64 * 1024
	if err := m.Install(rule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, up)

	payload := bytes.Repeat([]byte("y"), 64*1024)
	start := time.Now()
	got, err := roundTrip(t, r.Addr(), payload)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by throttle")
	}
	// 64 KiB at 64 KiB/s with a 16 KiB burst: at least ~700ms.
	if d := time.Since(start); d < 500*time.Millisecond {
		t.Fatalf("transfer too fast for throttle: %v", d)
	}
	r.Close()
	closes := sink.byKind(eventlog.KindConnClose)
	if len(closes) != 1 || closes[0].FaultAction != "throttle" {
		t.Fatalf("close record = %+v", closes)
	}
	if r.Stats().Throttled != 1 {
		t.Fatalf("throttled counter = %d", r.Stats().Throttled)
	}
}

func TestJitterDelaysChunks(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	rule := l4Rule("jitter-1", rules.ActionJitter)
	rule.DelayMillis = 100
	if err := m.Install(rule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, up)

	start := time.Now()
	got, err := roundTrip(t, r.Addr(), []byte("ping"))
	if err != nil || string(got) != "ping" {
		t.Fatalf("round trip: %q %v", got, err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("jitter not applied: %v", d)
	}
	r.Close()
	closes := sink.byKind(eventlog.KindConnClose)
	if len(closes) != 1 || closes[0].FaultAction != "jitter" || closes[0].InjectedDelayMillis < 100 {
		t.Fatalf("close record = %+v", closes)
	}
}

func TestHalfOpenGoesSilent(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	rule := l4Rule("half-1", rules.ActionHalfOpen)
	rule.On = rules.OnResponse // upstream's reply never comes back
	if err := m.Install(rule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, up)

	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	// The reply direction is half-open: the read must time out rather
	// than error — the socket is alive but silent.
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 16)
	_, err = c.Read(buf)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("want read timeout on half-open connection, got %v", err)
	}
	c.Close()
	r.Close()

	closes := sink.byKind(eventlog.KindConnClose)
	if len(closes) != 1 || closes[0].FaultAction != "halfopen" {
		t.Fatalf("close record = %+v", closes)
	}
	if closes[0].BytesUp != 4 || closes[0].BytesDown != 0 {
		t.Fatalf("bytes = %d/%d, want 4/0", closes[0].BytesUp, closes[0].BytesDown)
	}
	if r.Stats().HalfOpened != 1 {
		t.Fatalf("halfOpened counter = %d", r.Stats().HalfOpened)
	}
}

// TestTornConnectionEmitsClose is the torn-connection guarantee: a
// downstream that resets mid-stream still produces the paired close
// record with the bytes relayed so far.
func TestTornConnectionEmitsClose(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, up)

	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("partial payload")); err != nil {
		t.Fatal(err)
	}
	// Read the echo so the write definitely crossed the relay.
	buf := make([]byte, 15)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	// Tear the connection: linger 0 turns Close into a RST.
	c.(*net.TCPConn).SetLinger(0)
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if closes := sink.byKind(eventlog.KindConnClose); len(closes) == 1 {
			if closes[0].BytesUp != 15 || closes[0].BytesDown != 15 {
				t.Fatalf("bytes = %d/%d, want 15/15", closes[0].BytesUp, closes[0].BytesDown)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("close record never emitted for torn connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.Close()
}

// TestRelayCloseEmitsCloseForLiveConns asserts Close tears down live
// sessions and their close records are still emitted.
func TestRelayCloseEmitsCloseForLiveConns(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, up)

	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	closes := sink.byKind(eventlog.KindConnClose)
	if len(closes) != 1 {
		t.Fatalf("want close record after relay Close, got %d", len(closes))
	}
}

// TestProbabilityZeroNeverFires wires a 0.0001-probability sever and
// checks most connections pass; mainly it exercises per-connection
// sampling rather than per-chunk.
func TestProbabilitySampledPerConnection(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	rule := l4Rule("sever-p", rules.ActionSever)
	rule.Probability = 0.0001
	if err := m.Install(rule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, up)
	for i := 0; i < 20; i++ {
		if _, err := roundTrip(t, r.Addr(), []byte("ok")); err != nil {
			t.Fatalf("conn %d unexpectedly faulted: %v", i, err)
		}
	}
}

// TestHTTPRulesNeverMatchL4 installs an HTTP-layer abort for the same
// edge and asserts the relay ignores it: the planes are disjoint.
func TestHTTPRulesNeverMatchL4(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	httpRule := rules.Rule{ID: "h1", Src: "client", Dst: "db", Action: rules.ActionAbort, ErrorCode: 503}
	if err := m.Install(httpRule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, up)
	got, err := roundTrip(t, r.Addr(), []byte("ping"))
	if err != nil || string(got) != "ping" {
		t.Fatalf("http-layer rule leaked onto the L4 plane: %q %v", got, err)
	}
}

// TestConcurrentConnsWithRuleSwaps is the -race workhorse: many
// concurrent connections while the rule set is swapped via versioned
// CAS applies, cycling sever/throttle/half-open faults. The invariant
// is structural: no data race, and every connection ends with a paired
// open/close record.
func TestConcurrentConnsWithRuleSwaps(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	r := newRelay(t, m, sink, up)

	stopSwaps := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		sever := l4Rule("swap-sever", rules.ActionSever)
		sever.AbortAfterBytes = 512
		throttle := l4Rule("swap-throttle", rules.ActionThrottle)
		throttle.RateBytesPerSec = 1 << 20
		half := l4Rule("swap-half", rules.ActionHalfOpen)
		half.On = rules.OnResponse
		sets := [][]rules.Rule{{sever}, {throttle}, {half}, nil}
		for i := 0; ; i++ {
			select {
			case <-stopSwaps:
				return
			default:
			}
			st := m.Status()
			_, err := m.ApplyRuleSet(rules.RuleSet{
				Generation: st.Generation + 1,
				Rules:      sets[i%len(sets)],
			}, st.Generation)
			if err != nil {
				t.Errorf("ApplyRuleSet: %v", err)
				return
			}
		}
	}()

	const conns = 40
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("tcp", r.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(2 * time.Second))
			payload := bytes.Repeat([]byte(fmt.Sprintf("c%d-", i)), 300)
			c.Write(payload)
			io.Copy(io.Discard, c) // until echo done, fault, or deadline
		}(i)
	}
	wg.Wait()
	close(stopSwaps)
	swapper.Wait()
	r.Close()

	opens := sink.byKind(eventlog.KindConnOpen)
	closes := sink.byKind(eventlog.KindConnClose)
	if len(opens) != conns || len(closes) != conns {
		t.Fatalf("open/close records = %d/%d, want %d each", len(opens), len(closes), conns)
	}
	paired := map[string]bool{}
	for _, o := range opens {
		paired[o.RequestID] = true
	}
	for _, cl := range closes {
		if !paired[cl.RequestID] {
			t.Fatalf("close record %q without matching open", cl.RequestID)
		}
	}
	if got := r.Stats().Conns; got != conns {
		t.Fatalf("conns counter = %d, want %d", got, conns)
	}
}
