package proxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/httpx"
	"gremlin/internal/metrics"
	"gremlin/internal/pattern"
	"gremlin/internal/rules"
	"gremlin/internal/streamproxy"
	"gremlin/internal/trace"
)

// maxLoggedBody bounds how much of a message body the agent will buffer for
// Modify rules and forwarding.
const maxBodyBytes = 32 << 20 // 32 MiB

// Agent is a running Gremlin agent: one data-path listener per route plus
// an optional control API server.
type Agent struct {
	cfg     Config
	id      string // cfg.agentID(), computed once and stamped on every record
	matcher *rules.Matcher
	sink    eventlog.Sink

	// spanGen mints one span ID per proxied hop; the agent identity in the
	// prefix keeps span namespaces disjoint across agents sharing a store.
	spanGen *trace.Generator

	routes  map[string]*routeProxy        // by Dst
	relays  map[string]*streamproxy.Relay // L4 plane, by Dst
	control *httpx.Server
	started bool

	// leaseMu guards the rule-set lease timer. A rule set shipped with a
	// TTL self-expires: if no PUT renews it in time, the agent clears all
	// rules itself, so a dead control plane cannot leak faults into the
	// fleet. Control-path only; the data path never touches it.
	leaseMu    sync.Mutex
	leaseTimer *time.Timer
	nExpired   atomic.Int64

	// Data-path counters, exposed via GET /v1/info.
	nProxied  atomic.Int64
	nAborted  atomic.Int64
	nDelayed  atomic.Int64
	nModified atomic.Int64
	nSevered  atomic.Int64
	nStreamed atomic.Int64
	nSpans    atomic.Int64
	nEITrunc  atomic.Int64

	// ordMu guards ordinals, the bounded call-ordinal state used to build
	// execution indices: how many calls with the same (parent span,
	// destination) this agent has already proxied.
	ordMu    sync.Mutex
	ordinals map[string]int

	// latency observes each proxied exchange's wall time in seconds
	// (including injected delays), exposed via GET /metrics.
	latency *metrics.Histogram
}

// replyCopier carries a reply body into net/http's ResponseWriter through
// a pooled 32 KiB buffer. The ResponseWriter implements io.ReaderFrom,
// so io.CopyBuffer would hand it the body and never touch its buffer;
// net/http's ReadFrom reads the sniffing prefix through Read and then,
// for a reply of declared length, copies the rest straight to the
// connection with io.Copy, which takes WriteTo when the source has one
// and allocates a fresh buffer when it does not. WriteTo writes each read
// through at once, so a slow body's bytes reach the client as they come.
type replyCopier struct {
	body io.Reader
	buf  []byte
}

func (c *replyCopier) Read(p []byte) (int, error) { return c.body.Read(p) }

func (c *replyCopier) WriteTo(w io.Writer) (int64, error) {
	return io.CopyBuffer(w, c.body, c.buf)
}

// replyCopiers pools the streaming fast path's copiers, so a proxied body
// costs no per-request allocation.
var replyCopiers = sync.Pool{
	New: func() any { return &replyCopier{buf: make([]byte, 32<<10)} },
}

// streamReply copies body to w through a pooled replyCopier.
func streamReply(w http.ResponseWriter, body io.Reader) {
	c := replyCopiers.Get().(*replyCopier)
	c.body = body
	if rf, ok := w.(io.ReaderFrom); ok {
		_, _ = rf.ReadFrom(c)
	} else {
		_, _ = c.WriteTo(w)
	}
	c.body = nil
	replyCopiers.Put(c)
}

// Stats is a snapshot of the agent's data-path counters.
type Stats struct {
	// Proxied counts messages handled on the data path.
	Proxied int64 `json:"proxied"`
	// Aborted counts messages terminated by an Abort rule with an HTTP
	// error code.
	Aborted int64 `json:"aborted"`
	// Severed counts connections cut by Abort rules with
	// AbortSeverConnection.
	Severed int64 `json:"severed"`
	// Delayed counts messages held back by Delay rules.
	Delayed int64 `json:"delayed"`
	// Modified counts messages rewritten by Modify rules.
	Modified int64 `json:"modified"`
	// Streamed counts replies whose bodies passed through the proxy
	// without being buffered (the fast path: no Modify rule applied).
	Streamed int64 `json:"streamed"`

	// SpansMinted counts the span IDs this agent minted — one per proxied
	// hop — so scrapers can confirm causal tracing is live on the data
	// path.
	SpansMinted int64 `json:"spansMinted"`

	// EITruncated counts hops whose execution index hit the depth or byte
	// bound and was terminated with the truncation marker instead of
	// growing — nonzero means the topology is deeper (or more cyclic)
	// than X-Gremlin-EI can name, and explore-plane coverage of those
	// hops is necessarily coarse.
	EITruncated int64 `json:"eiTruncated,omitempty"`

	// RulesetExpirations counts rule sets the agent cleared itself because
	// their lease TTL lapsed without a renewing PUT — each one is a
	// control plane that died holding faults.
	RulesetExpirations int64 `json:"rulesetExpirations"`

	// LogDropped, LogFlushes, and LogRetries report event-log shipping
	// health when the agent's sink exposes it (eventlog.BufferedSink does).
	// A run with LogDropped > 0 evaluated its assertions on partial data —
	// campaigns flag such runs as lossy rather than trusting a pass.
	LogDropped int64 `json:"logDropped"`
	LogFlushes int64 `json:"logFlushes"`
	LogRetries int64 `json:"logRetries"`

	// LogBatchRecords and LogMaxBatch describe the sink's batching:
	// total records shipped in successful flushes (divide by LogFlushes
	// for the mean batch size — how well HTTP and encode overhead are
	// being amortized) and the largest single batch.
	LogBatchRecords int64 `json:"logBatchRecords,omitempty"`
	LogMaxBatch     int64 `json:"logMaxBatch,omitempty"`

	// L4 aggregates the agent's stream relays (connections, bytes, and
	// actuated stream faults). Nil when the agent has no L4 routes.
	L4 *streamproxy.Stats `json:"l4,omitempty"`
}

// sinkHealth is the optional shipping-health surface of a sink.
type sinkHealth interface {
	Dropped() int64
	Flushes() int64
	Retries() int64
}

// sinkBatchHealth is the optional batching surface of a sink
// (eventlog.BufferedSink has it).
type sinkBatchHealth interface {
	BatchRecords() int64
	MaxBatch() int64
}

// Stats returns a snapshot of the agent's counters.
func (a *Agent) Stats() Stats {
	s := Stats{
		Proxied:            a.nProxied.Load(),
		Aborted:            a.nAborted.Load(),
		Severed:            a.nSevered.Load(),
		Delayed:            a.nDelayed.Load(),
		Modified:           a.nModified.Load(),
		Streamed:           a.nStreamed.Load(),
		SpansMinted:        a.nSpans.Load(),
		EITruncated:        a.nEITrunc.Load(),
		RulesetExpirations: a.nExpired.Load(),
	}
	if h, ok := a.sink.(sinkHealth); ok {
		s.LogDropped = h.Dropped()
		s.LogFlushes = h.Flushes()
		s.LogRetries = h.Retries()
	}
	if h, ok := a.sink.(sinkBatchHealth); ok {
		s.LogBatchRecords = h.BatchRecords()
		s.LogMaxBatch = h.MaxBatch()
	}
	if len(a.relays) > 0 {
		l4 := a.L4Stats()
		s.L4 = &l4
	}
	return s
}

// L4Stats aggregates the agent's stream relays' counters (zero-valued
// when the agent has no L4 routes).
func (a *Agent) L4Stats() streamproxy.Stats {
	var total streamproxy.Stats
	for _, relay := range a.relays {
		total.Add(relay.Stats())
	}
	return total
}

// countFault bumps the counter matching a fired decision.
func (a *Agent) countFault(d rules.Decision) {
	if !d.Fired {
		return
	}
	switch d.Rule.Action {
	case rules.ActionAbort:
		if d.Rule.ErrorCode == rules.AbortSeverConnection {
			a.nSevered.Add(1)
		} else {
			a.nAborted.Add(1)
		}
	case rules.ActionDelay:
		a.nDelayed.Add(1)
	case rules.ActionModify:
		a.nModified.Add(1)
	}
}

// flow carries one exchange's identity down the data path: the flat
// request ID, the span this hop minted, its parent span, the hop's
// execution index, and the start time every latency is measured from.
type flow struct {
	reqID      string
	spanID     string
	parentSpan string
	ei         string
	start      time.Time
}

// maxOrdinalKeys bounds the ordinal map. When the cap is reached the
// whole map is dropped: a coarse reset that keeps agent memory bounded on
// long-lived processes at the cost of restarting ordinal counts for
// (rare) flows still in flight across the reset. Execution indices stay
// well-formed either way — at worst two sibling calls straddling a reset
// share an ordinal and collapse into one explore point.
const maxOrdinalKeys = 8192

// nextOrdinal returns the 0-based ordinal of this call among its
// siblings: calls from the same parent execution (identified by the
// inbound span, which is minted fresh per request) to the same
// destination. Sequential retries and repeated fan-out calls to one
// dependency get 0, 1, 2, … so their execution indices differ.
//
// An entry hop — no parent span — is always ordinal 0: every request at
// the application edge roots a fresh execution, even when a load
// generator replays the same request ID across runs. Keying entry hops on
// the request ID would make replayed IDs count up forever and drift every
// downstream execution index between sessions.
func (a *Agent) nextOrdinal(parentSpan, dst string) int {
	if parentSpan == "" {
		return 0
	}
	key := parentSpan + "\x00" + dst
	a.ordMu.Lock()
	defer a.ordMu.Unlock()
	if a.ordinals == nil || len(a.ordinals) >= maxOrdinalKeys {
		a.ordinals = make(map[string]int, 64)
	}
	n := a.ordinals[key]
	a.ordinals[key] = n + 1
	return n
}

type routeProxy struct {
	agent  *Agent
	route  Route
	server *httpx.Server
	client *http.Client
	// recProto carries the parts of an eventlog.Record that are constant
	// for this route, so the data path only fills in per-message fields.
	recProto eventlog.Record
	// pool is the live, health-aware target set (seeded from
	// route.Targets; swapped at runtime via Agent.SetRouteTargets).
	pool       *targetPool
	canaryPat  pattern.Pattern
	mirrorPat  pattern.Pattern
	canaryNext atomic.Uint64 // round-robin canary index
	mirrorNext atomic.Uint64 // round-robin mirror index
	mirrors    sync.WaitGroup
}

// New creates an agent. Listeners for all routes and the control API are
// bound immediately (so ephemeral addresses are known), but no traffic is
// served until Start.
func New(cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:     cfg,
		id:      cfg.agentID(),
		matcher: rules.NewMatcher(cfg.RNG),
		sink:    cfg.Sink,
		// The span generator deliberately does not consume cfg.RNG: the
		// matcher's probability sampling stream must not shift when span
		// minting is added. Agent-identity prefix plus process-global salt
		// keep span IDs unique across the deployment.
		spanGen: trace.NewGenerator("sp-"+cfg.agentID()+"-", nil),
		routes:  make(map[string]*routeProxy, len(cfg.Routes)),
		latency: metrics.NewHistogram(metrics.DefaultLatencyBounds),
	}
	for _, r := range cfg.Routes {
		canaryPat, err := pattern.Compile(r.CanaryPattern)
		if err != nil {
			// Unreachable after Validate, kept as a guard.
			a.closeBound()
			return nil, err
		}
		mirrorPat, err := pattern.Compile(r.MirrorPattern)
		if err != nil {
			a.closeBound()
			return nil, err
		}
		rp := &routeProxy{
			agent:     a,
			route:     r,
			recProto:  eventlog.Record{Src: cfg.ServiceName, Dst: r.Dst},
			pool:      newTargetPool(r.Targets),
			canaryPat: canaryPat,
			mirrorPat: mirrorPat,
			// The data-path client must be transparent: no timeout, since
			// detecting slow dependencies is the application's job, not
			// the proxy's.
			client: &http.Client{
				Transport: &http.Transport{
					MaxIdleConnsPerHost: 64,
					IdleConnTimeout:     90 * time.Second,
				},
				CheckRedirect: func(req *http.Request, via []*http.Request) error {
					// Pass redirects through to the caller untouched.
					return http.ErrUseLastResponse
				},
			},
		}
		srv, err := httpx.NewServer(r.ListenAddr, rp)
		if err != nil {
			a.closeBound()
			return nil, fmt.Errorf("proxy: bind route %s->%s: %w", cfg.ServiceName, r.Dst, err)
		}
		rp.server = srv
		a.routes[r.Dst] = rp
	}
	a.relays = make(map[string]*streamproxy.Relay, len(cfg.L4Routes))
	// Connection IDs share the span generator's collision-free scheme;
	// the "l4-" prefix keeps them recognizable in rule patterns and logs.
	connIDs := trace.NewGenerator("l4-"+a.id+"-", nil)
	for _, r := range cfg.L4Routes {
		relay, err := streamproxy.New(streamproxy.Config{
			Src:        cfg.ServiceName,
			Dst:        r.Dst,
			ListenAddr: r.ListenAddr,
			Targets:    r.Targets,
			Matcher:    a.matcher,
			Log:        a.log,
			ConnID:     connIDs.Next,
			Agent:      a.id,
		})
		if err != nil {
			a.closeBound()
			return nil, fmt.Errorf("proxy: bind l4 route %s->%s: %w", cfg.ServiceName, r.Dst, err)
		}
		a.relays[r.Dst] = relay
	}
	if cfg.ControlAddr != "" {
		srv, err := httpx.NewServer(cfg.ControlAddr, a.controlHandler())
		if err != nil {
			a.closeBound()
			return nil, fmt.Errorf("proxy: bind control API: %w", err)
		}
		a.control = srv
	}
	return a, nil
}

func (a *Agent) closeBound() {
	for _, rp := range a.routes {
		_ = rp.server.Close()
	}
	for _, relay := range a.relays {
		_ = relay.Close()
	}
	if a.control != nil {
		_ = a.control.Close()
	}
}

// Start begins serving all routes and the control API.
func (a *Agent) Start() {
	if a.started {
		return
	}
	a.started = true
	for _, rp := range a.routes {
		rp.server.Start()
	}
	for _, relay := range a.relays {
		relay.Start()
	}
	if a.control != nil {
		a.control.Start()
	}
}

// Close shuts down all listeners and waits for their goroutines,
// including any in-flight mirror copies.
func (a *Agent) Close() error {
	a.leaseMu.Lock()
	if a.leaseTimer != nil {
		a.leaseTimer.Stop()
		a.leaseTimer = nil
	}
	a.leaseMu.Unlock()
	var firstErr error
	for _, rp := range a.routes {
		if err := rp.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		rp.mirrors.Wait()
		rp.client.CloseIdleConnections()
	}
	for _, relay := range a.relays {
		if err := relay.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if a.control != nil {
		if err := a.control.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ServiceName returns the logical name of the co-located microservice.
func (a *Agent) ServiceName() string { return a.cfg.ServiceName }

// RouteAddr returns the bound local address for the route to dst, or an
// error if the agent has no such route. Microservices use this address as
// the base URL for the dependency.
func (a *Agent) RouteAddr(dst string) (string, error) {
	rp, ok := a.routes[dst]
	if !ok {
		return "", fmt.Errorf("proxy: agent for %q has no route to %q", a.cfg.ServiceName, dst)
	}
	return rp.server.Addr(), nil
}

// L4RouteAddr returns the bound local address of the stream relay to
// dst, or an error if the agent has no such L4 route. The co-located
// microservice dials this address to reach the raw-TCP dependency.
func (a *Agent) L4RouteAddr(dst string) (string, error) {
	relay, ok := a.relays[dst]
	if !ok {
		return "", fmt.Errorf("proxy: agent for %q has no l4 route to %q", a.cfg.ServiceName, dst)
	}
	return relay.Addr(), nil
}

// RouteURL returns the base http URL for the route to dst.
func (a *Agent) RouteURL(dst string) (string, error) {
	addr, err := a.RouteAddr(dst)
	if err != nil {
		return "", err
	}
	return "http://" + addr, nil
}

// ControlURL returns the base URL of the control API ("" if disabled).
func (a *Agent) ControlURL() string {
	if a.control == nil {
		return ""
	}
	return a.control.URL()
}

// Matcher exposes the agent's rule matcher for in-process rule management
// (tests and embedded deployments). Remote control uses the REST API.
func (a *Agent) Matcher() *rules.Matcher { return a.matcher }

// log sends a record to the sink, tagging the agent identity.
func (a *Agent) log(rec eventlog.Record) {
	if a.sink == nil {
		return
	}
	rec.Agent = a.id
	// A full or unreachable store must not break the data path; the paper's
	// agents ship logs asynchronously via logstash with the same property.
	_ = a.sink.Log(rec)
}

// ServeHTTP is the data path for one route: log, match rules, inject
// faults, forward, and log the reply.
//
// Bodies are buffered only when something needs the bytes — a Modify
// rewrite or a mirror copy. Every other exchange streams request and reply
// bodies straight between the two connections through pooled buffers, so
// the proxy's memory cost is independent of body size.
func (rp *routeProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var (
		a = rp.agent
		// The inbound span — minted by the agent of the hop that delivered
		// this request to our service — becomes the parent of the span this
		// hop mints; at the application edge it is empty and the minted
		// span is a trace root.
		reqID      = trace.FromRequest(r)
		parentSpan = trace.SpanFromRequest(r)
		spanID     = a.spanGen.Next()
		start      = time.Now()
	)

	a.nProxied.Add(1)
	a.nSpans.Add(1)
	// This hop's execution index extends the caller's (relayed in
	// X-Gremlin-EI) with one (destination, call-ordinal) frame. AppendEI
	// bounds depth and bytes; a hop past the bound is counted and its
	// index marker-terminated rather than grown.
	hopEI, eiTruncated := trace.AppendEI(trace.EIFromRequest(r),
		rp.route.Dst, a.nextOrdinal(parentSpan, rp.route.Dst))
	if eiTruncated {
		a.nEITrunc.Add(1)
	}
	f := flow{reqID: reqID, spanID: spanID, parentSpan: parentSpan, ei: hopEI, start: start}
	// Deferred so severed connections (which unwind via ErrAbortHandler)
	// still observe their duration.
	defer func() { a.latency.Observe(time.Since(start).Seconds()) }()
	reqMsg := rules.Message{
		Src:       a.cfg.ServiceName,
		Dst:       rp.route.Dst,
		Type:      rules.OnRequest,
		RequestID: reqID,
		CallPath:  hopEI,
	}
	reqDecision := a.matcher.Decide(reqMsg)
	a.countFault(reqDecision)

	reqRec := rp.recProto
	reqRec.Timestamp = start
	reqRec.RequestID = reqID
	reqRec.SpanID = spanID
	reqRec.ParentSpanID = parentSpan
	reqRec.EI = hopEI
	reqRec.Kind = eventlog.KindRequest
	reqRec.Method = r.Method
	reqRec.URI = r.URL.RequestURI()
	reqRec.FaultAction = firedAction(reqDecision)
	reqRec.FaultRuleID = firedRuleID(reqDecision)
	a.log(reqRec)

	var (
		injected     time.Duration
		faultActions []string
		faultRules   []string
	)
	if reqDecision.Fired {
		faultActions = append(faultActions, string(reqDecision.Rule.Action))
		faultRules = append(faultRules, reqDecision.Rule.ID)
	}

	// Request-side faults.
	bufferReq := rp.wantsMirror(reqID)
	if reqDecision.Fired {
		switch reqDecision.Rule.Action {
		case rules.ActionAbort:
			rp.abort(w, r, reqDecision, f, injected, faultActions, faultRules)
			return
		case rules.ActionDelay:
			d := reqDecision.Rule.Delay()
			injected += d
			sleepOrDisconnect(r, d)
		case rules.ActionModify:
			bufferReq = true
		}
	}
	var reqBody []byte
	if bufferReq {
		var err error
		reqBody, err = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
		if err != nil {
			httpx.WriteError(w, http.StatusBadGateway, "proxy: read request body: %v", err)
			return
		}
		if reqDecision.Fired && reqDecision.Rule.Action == rules.ActionModify {
			reqBody = bytes.ReplaceAll(reqBody,
				[]byte(reqDecision.Rule.SearchBytes),
				[]byte(reqDecision.Rule.ReplaceBytes))
		}
	}

	// Forward upstream.
	resp, err := rp.forward(r, f, reqBody, bufferReq)
	if err != nil {
		a.log(rp.replyRecord(r, f, http.StatusBadGateway, injected,
			faultActions, faultRules, false))
		httpx.WriteError(w, http.StatusBadGateway, "proxy: forward to %s: %v", rp.route.Dst, err)
		return
	}

	// Response-side faults. The decision depends only on message metadata,
	// so it is made before deciding how to handle the reply body.
	respMsg := reqMsg
	respMsg.Type = rules.OnResponse
	respDecision := a.matcher.Decide(respMsg)
	a.countFault(respDecision)
	if respDecision.Fired {
		faultActions = append(faultActions, string(respDecision.Rule.Action))
		faultRules = append(faultRules, respDecision.Rule.ID)
	}
	status := resp.StatusCode

	if respDecision.Fired && respDecision.Rule.Action == rules.ActionAbort {
		discardBody(resp.Body)
		if respDecision.Rule.ErrorCode == rules.AbortSeverConnection {
			// The severed reply must still reach the event log: the checker
			// cannot reason about a connection cut it never saw.
			a.log(rp.replyRecord(r, f, 0, injected, faultActions, faultRules, true))
			rp.sever(w)
			return
		}
		status = respDecision.Rule.ErrorCode
		a.log(rp.replyRecord(r, f, status, injected, faultActions, faultRules, true))
		body := http.StatusText(status) + "\n"
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		_, _ = io.WriteString(w, body)
		return
	}
	if respDecision.Fired && respDecision.Rule.Action == rules.ActionDelay {
		d := respDecision.Rule.Delay()
		injected += d
		sleepOrDisconnect(r, d)
	}

	if respDecision.Fired && respDecision.Rule.Action == rules.ActionModify {
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		closeErr := resp.Body.Close()
		if err == nil {
			err = closeErr
		}
		if err != nil {
			httpx.WriteError(w, http.StatusBadGateway, "proxy: read response from %s: %v", rp.route.Dst, err)
			return
		}
		respBody = bytes.ReplaceAll(respBody,
			[]byte(respDecision.Rule.SearchBytes),
			[]byte(respDecision.Rule.ReplaceBytes))
		a.log(rp.replyRecord(r, f, status, injected, faultActions, faultRules, false))
		copyHeaders(w.Header(), resp.Header)
		// The body was rewritten; the upstream framing headers no longer
		// apply.
		w.Header().Del("Transfer-Encoding")
		w.Header().Set("Content-Length", strconv.Itoa(len(respBody)))
		w.WriteHeader(status)
		_, _ = w.Write(respBody)
		return
	}

	// Streaming fast path: the reply body flows upstream→client through a
	// pooled buffer without ever being held whole in memory.
	a.log(rp.replyRecord(r, f, status, injected, faultActions, faultRules, false))
	a.nStreamed.Add(1)
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(status)
	streamReply(w, resp.Body)
	_ = resp.Body.Close()
}

// replyRecord builds the reply-side record for this exchange from the
// route's prototype.
func (rp *routeProxy) replyRecord(r *http.Request, f flow, status int,
	injected time.Duration, actions, ruleIDs []string, gremlin bool) eventlog.Record {

	rec := rp.recProto
	rec.Timestamp = time.Now()
	rec.RequestID = f.reqID
	rec.SpanID = f.spanID
	rec.ParentSpanID = f.parentSpan
	rec.EI = f.ei
	rec.Kind = eventlog.KindReply
	rec.Method = r.Method
	rec.URI = r.URL.RequestURI()
	rec.Status = status
	rec.LatencyMillis = float64(time.Since(f.start)) / float64(time.Millisecond)
	rec.FaultAction = strings.Join(actions, ",")
	rec.FaultRuleID = strings.Join(ruleIDs, ",")
	rec.InjectedDelayMillis = float64(injected) / float64(time.Millisecond)
	rec.GremlinGenerated = gremlin
	return rec
}

// abort terminates a request without forwarding it: either by returning the
// rule's HTTP error code or, for AbortSeverConnection, by severing the TCP
// connection to emulate a crashed process. Either way the reply is logged,
// severed connections as status 0.
func (rp *routeProxy) abort(w http.ResponseWriter, r *http.Request, d rules.Decision,
	f flow, injected time.Duration, actions, ruleIDs []string) {

	severed := d.Rule.ErrorCode == rules.AbortSeverConnection
	status := d.Rule.ErrorCode
	if severed {
		status = 0
	}
	rp.agent.log(rp.replyRecord(r, f, status, injected, actions, ruleIDs, true))
	if severed {
		rp.sever(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	_, _ = io.WriteString(w, http.StatusText(status)+"\n")
}

// sever closes the client connection without writing an HTTP response,
// emulating an abrupt TCP-level failure (Error=-1 in the paper's recipes).
func (rp *routeProxy) sever(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		conn, _, err := hj.Hijack()
		if err == nil {
			_ = conn.Close()
			return
		}
	}
	// Fallback: abort the handler, which closes the connection mid-stream.
	panic(http.ErrAbortHandler)
}

// forward sends the (possibly modified) request to the next upstream
// target — or, when the route has a canary and the request ID matches the
// canary pattern, to the next canary instance, keeping test traffic's side
// effects away from production state (§9).
//
// When buffered is false (no Modify rewrite, no mirror), the inbound body
// is handed straight to the outbound connection instead of being read into
// memory; body must then be nil.
func (rp *routeProxy) forward(r *http.Request, f flow, body []byte, buffered bool) (*http.Response, error) {
	var target string
	if len(rp.route.CanaryTargets) > 0 && rp.canaryPat.Match(trace.FromRequest(r)) {
		target = rp.route.CanaryTargets[int(rp.canaryNext.Add(1)-1)%len(rp.route.CanaryTargets)]
	} else {
		// Live pool: least-pending replica wins, round-robin among equals.
		// A fully drained pool (every replica unhealthy) fails the exchange,
		// which the caller reports as 502.
		addr, release, ok := rp.pool.pick()
		if !ok {
			return nil, fmt.Errorf("no live targets (all replicas of %s drained)", rp.route.Dst)
		}
		defer release()
		target = addr
	}
	url := "http://" + target + r.URL.RequestURI()
	var (
		out *http.Request
		err error
	)
	if buffered {
		rp.mirror(r, body)
		out, err = http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		out.ContentLength = int64(len(body))
	} else {
		src := io.Reader(r.Body)
		if r.ContentLength == 0 {
			// Bodyless request: NoBody keeps the outbound call from being
			// framed as chunked.
			src = http.NoBody
		}
		out, err = http.NewRequestWithContext(r.Context(), r.Method, url, src)
		if err != nil {
			return nil, err
		}
		out.ContentLength = r.ContentLength
	}
	cloneHeaders(out, r.Header)
	// The outbound request carries this hop's span so the callee's agent
	// (and any microservice relaying headers via trace.Propagate) links its
	// own span to ours, and this hop's execution index so the callee's
	// outbound calls extend the causal path.
	trace.SetSpan(out, f.spanID, f.parentSpan)
	trace.SetEI(out, f.ei)
	out.Header.Del("Connection")
	return rp.client.Do(out)
}

// wantsMirror reports whether this request would be mirrored to a shadow
// deployment — in which case the body must be buffered for the copy.
func (rp *routeProxy) wantsMirror(reqID string) bool {
	return len(rp.route.MirrorTargets) > 0 && rp.mirrorPat.Match(reqID)
}

// discardBody drains (bounded) and closes an upstream reply body that the
// data path will not relay, so the connection can be reused.
func discardBody(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, maxBodyBytes))
	_ = rc.Close()
}

// mirror asynchronously copies the request to the next mirror target
// (shadow deployment); the copy's outcome never affects the live call.
func (rp *routeProxy) mirror(r *http.Request, body []byte) {
	if len(rp.route.MirrorTargets) == 0 || !rp.mirrorPat.Match(trace.FromRequest(r)) {
		return
	}
	target := rp.route.MirrorTargets[int(rp.mirrorNext.Add(1)-1)%len(rp.route.MirrorTargets)]
	url := "http://" + target + r.URL.RequestURI()
	// Detach from the live request's context: the shadow call must not be
	// cancelled when the live one completes first.
	out, err := http.NewRequest(r.Method, url, bytes.NewReader(body))
	if err != nil {
		return
	}
	cloneHeaders(out, r.Header)
	out.Header.Del("Connection")
	out.ContentLength = int64(len(body))
	rp.mirrors.Add(1)
	go func() {
		defer rp.mirrors.Done()
		resp, err := rp.client.Do(out)
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		_ = resp.Body.Close()
	}()
}

// sleepOrDisconnect sleeps for d but returns early if the caller goes away,
// so huge Hang delays do not pin goroutines after the client disconnects.
func sleepOrDisconnect(r *http.Request, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
	}
}

// cloneHeaders gives an outbound request a copy of the inbound headers,
// all values in one allocation.
func cloneHeaders(out *http.Request, h http.Header) {
	if h != nil {
		out.Header = h.Clone()
	}
}

// copyHeaders relays an upstream reply's headers to the client. The
// reply is not read again, so its value slices are shared rather than
// copied; the full slice expression keeps a later append from writing
// into them.
func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		vs = vs[:len(vs):len(vs)]
		if prev, ok := dst[k]; ok {
			vs = append(prev, vs...)
		}
		dst[k] = vs
	}
}

func firedAction(d rules.Decision) string {
	if !d.Fired {
		return ""
	}
	return string(d.Rule.Action)
}

func firedRuleID(d rules.Decision) string {
	if !d.Fired {
		return ""
	}
	return d.Rule.ID
}
