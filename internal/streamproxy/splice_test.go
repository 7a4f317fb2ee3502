package streamproxy

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/rules"
)

// Tests of the kernel path: directions no fault touches are relayed by
// splice in spliceChunk copies, and must keep the chunked loop's byte
// accounting and EOF/teardown semantics.

// pattern returns n bytes that are not periodic at any chunk size, so a
// dropped or repeated chunk cannot go unnoticed.
func pattern(n int) []byte {
	p := make([]byte, n)
	var x uint32 = 2463534242
	for i := range p {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p[i] = byte(x)
	}
	return p
}

// waitClose waits for the relay's single conn-close record.
func waitClose(t *testing.T, sink *recordSink) eventlog.Record {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if closes := sink.byKind(eventlog.KindConnClose); len(closes) > 0 {
			if len(closes) != 1 {
				t.Fatalf("want 1 conn-close record, got %d", len(closes))
			}
			return closes[0]
		}
		if time.Now().After(deadline) {
			t.Fatal("conn-close record never emitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func dialRelay(t *testing.T, r *Relay) *net.TCPConn {
	t.Helper()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(20 * time.Second))
	t.Cleanup(func() { c.Close() })
	return c.(*net.TCPConn)
}

// TestSpliceEchoExact relays an echo that crosses the chunk boundary
// with an odd tail: the payload, the conn-close counts and the relay
// counters must all be exact.
func TestSpliceEchoExact(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, up)

	payload := pattern(3*spliceChunk + 7)
	c := dialRelay(t, r)
	werr := make(chan error, 1)
	go func() {
		_, err := c.Write(payload)
		if err == nil {
			err = c.CloseWrite()
		}
		werr <- err
	}()
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo differs: got %d bytes, want %d", len(got), len(payload))
	}

	cl := waitClose(t, sink)
	want := int64(len(payload))
	if cl.BytesUp != want || cl.BytesDown != want {
		t.Fatalf("conn-close bytes = %d/%d, want %d each", cl.BytesUp, cl.BytesDown, want)
	}
	if cl.FaultAction != "" {
		t.Fatalf("fault recorded on unfaulted connection: %+v", cl)
	}
	if st := r.Stats(); st.BytesUp != want || st.BytesDown != want || st.Open != 0 {
		t.Fatalf("stats = %+v, want %d bytes each way and none open", st, want)
	}
}

// TestSpliceHalfCloseReplyFlows: the client half-closes after its
// request, and the upstream's reply, sent only after it read that EOF,
// still flows back to EOF.
func TestSpliceHalfCloseReplyFlows(t *testing.T) {
	request := pattern(100 * 1024)
	reply := pattern(spliceChunk + spliceChunk/2 + 3)
	up, stop := serveTCP(t, func(c net.Conn) {
		got, err := io.ReadAll(c)
		if err != nil || !bytes.Equal(got, request) {
			t.Errorf("upstream read %d bytes (err %v), want the %d-byte request", len(got), err, len(request))
			return
		}
		c.Write(reply)
	})
	defer stop()
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, up)

	c := dialRelay(t, r)
	if _, err := c.Write(request); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if !bytes.Equal(got, reply) {
		t.Fatalf("reply differs: got %d bytes, want %d", len(got), len(reply))
	}
	cl := waitClose(t, sink)
	if cl.BytesUp != int64(len(request)) || cl.BytesDown != int64(len(reply)) {
		t.Fatalf("conn-close bytes = %d/%d, want %d/%d", cl.BytesUp, cl.BytesDown, len(request), len(reply))
	}
}

// TestRelayCloseDuringSplice closes the relay while an unfaulted
// transfer is in flight both ways: Close must unblock both splices
// promptly and the connection must get exactly one conn-close.
func TestRelayCloseDuringSplice(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, up)

	c := dialRelay(t, r)
	chunk := pattern(64 * 1024)
	go func() {
		for {
			if _, err := c.Write(chunk); err != nil {
				return
			}
		}
	}()
	var read atomic.Int64
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, err := c.Read(buf)
			read.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	for read.Load() < 2*spliceChunk {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with a splice in flight", d)
	}
	closes := sink.byKind(eventlog.KindConnClose)
	if len(closes) != 1 {
		t.Fatalf("want exactly 1 conn-close, got %d", len(closes))
	}
	if closes[0].BytesDown < 2*spliceChunk || closes[0].BytesUp < closes[0].BytesDown {
		t.Fatalf("conn-close bytes = %d/%d after the client read %d", closes[0].BytesUp, closes[0].BytesDown, read.Load())
	}
}

// TestSeverBesideSplice severs the reply direction after 1.5 MiB (the
// chunked loop) while the request direction is spliced: both counts
// are byte-exact and the fault is attributed.
func TestSeverBesideSplice(t *testing.T) {
	request := pattern(2*spliceChunk + 11)
	var upstreamGot atomic.Int64
	up, stop := serveTCP(t, func(c net.Conn) {
		// Read the whole request before replying, so the spliced
		// direction's count is known when the sever fires.
		buf := make([]byte, len(request))
		n, err := io.ReadFull(c, buf)
		upstreamGot.Store(int64(n))
		if err != nil {
			return
		}
		c.Write(pattern(3 * spliceChunk))
	})
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	rule := l4Rule("sever-down", rules.ActionSever)
	rule.On = rules.OnResponse
	rule.AbortAfterBytes = spliceChunk + spliceChunk/2
	rule.SeverMode = rules.SeverFIN
	if err := m.Install(rule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, up)

	c := dialRelay(t, r)
	if _, err := c.Write(request); err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(c) // ends in EOF or a reset, either is the sever
	if want := pattern(3 * spliceChunk)[:rule.AbortAfterBytes]; !bytes.Equal(got, want) {
		t.Fatalf("client got %d bytes before the sever, want exactly %d", len(got), len(want))
	}
	cl := waitClose(t, sink)
	if cl.FaultAction != string(rules.ActionSever) || cl.FaultRuleID != "sever-down" {
		t.Fatalf("conn-close fault = %q/%q, want sever/sever-down", cl.FaultAction, cl.FaultRuleID)
	}
	if cl.BytesUp != int64(len(request)) || cl.BytesDown != rule.AbortAfterBytes {
		t.Fatalf("conn-close bytes = %d/%d, want %d/%d", cl.BytesUp, cl.BytesDown, len(request), rule.AbortAfterBytes)
	}
	if got := upstreamGot.Load(); got != int64(len(request)) {
		t.Fatalf("upstream received %d bytes, want %d", got, len(request))
	}
	if st := r.Stats(); st.Severed != 1 || st.BytesUp != cl.BytesUp || st.BytesDown != cl.BytesDown {
		t.Fatalf("stats = %+v, want 1 sever and the record's byte counts", st)
	}
}

// TestConnectDelayThenSplice: a connect-delayed connection is relayed
// on the kernel path once the delay is served.
func TestConnectDelayThenSplice(t *testing.T) {
	up, stop := echoServer(t)
	defer stop()
	sink := &recordSink{}
	m := rules.NewMatcher(nil)
	rule := l4Rule("cdelay-splice", rules.ActionDelay)
	rule.DelayMillis = 50
	if err := m.Install(rule); err != nil {
		t.Fatal(err)
	}
	r := newRelay(t, m, sink, up)

	payload := pattern(spliceChunk + 5)
	c := dialRelay(t, r)
	start := time.Now()
	go func() {
		if _, err := c.Write(payload); err == nil {
			c.CloseWrite()
		}
	}()
	got, err := io.ReadAll(c)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("echo: %d bytes, err %v; want %d bytes", len(got), err, len(payload))
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("connect-delay not applied: %v", d)
	}
	cl := waitClose(t, sink)
	if cl.FaultAction != string(rules.ActionDelay) || cl.InjectedDelayMillis != 50 {
		t.Fatalf("conn-close = %+v, want the 50ms connect-delay", cl)
	}
	want := int64(len(payload))
	if cl.BytesUp != want || cl.BytesDown != want {
		t.Fatalf("conn-close bytes = %d/%d, want %d each", cl.BytesUp, cl.BytesDown, want)
	}
}

// TestSpliceStatsLagBounded: mid-transfer, the relay-wide counter trails
// the bytes the upstream has received by less than one spliceChunk.
func TestSpliceStatsLagBounded(t *testing.T) {
	var received atomic.Int64
	up, stop := serveTCP(t, func(c net.Conn) {
		buf := make([]byte, 64*1024)
		for {
			n, err := c.Read(buf)
			received.Add(int64(n))
			if err != nil {
				return
			}
		}
	})
	defer stop()
	sink := &recordSink{}
	r := newRelay(t, rules.NewMatcher(nil), sink, up)

	c := dialRelay(t, r)
	const written = 3*spliceChunk + spliceChunk/3
	if _, err := c.Write(pattern(written)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < written {
		if time.Now().After(deadline) {
			t.Fatalf("upstream received %d of %d bytes", received.Load(), written)
		}
		time.Sleep(time.Millisecond)
	}
	if got := r.Stats().BytesUp; got < written-spliceChunk || got > written {
		t.Fatalf("mid-transfer Stats().BytesUp = %d, want within (%d, %d]", got, written-spliceChunk, written)
	}
	c.CloseWrite()
	cl := waitClose(t, sink)
	if cl.BytesUp != written || r.Stats().BytesUp != written {
		t.Fatalf("after EOF: record %d, stats %d, want %d", cl.BytesUp, r.Stats().BytesUp, written)
	}
}
