// Package trace provides request-ID generation and propagation helpers,
// plus the per-hop span headers that turn flat request IDs into causal
// trees.
//
// Microservice applications commonly assign a globally unique ID to every
// user request and propagate it to downstream services via a message header
// (the paper cites Dapper and Zipkin). Gremlin agents use this ID to confine
// fault injection and observation logging to specific request flows, e.g.
// synthetic test traffic carrying IDs that match the pattern "test-*".
//
// On top of the flat request ID, every Gremlin agent mints a span ID per
// proxied hop and forwards it downstream (HeaderSpan); the receiving
// service relays it on its own outbound calls (Propagate), where the next
// agent reads it as the parent of the span it mints. The resulting
// parent/child links let internal/tracing reassemble each request flow into
// a Dapper-style trace tree instead of an unordered record bag.
package trace

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/textproto"
	"strconv"
	"sync/atomic"
)

// HeaderRequestID is the header used to propagate the request ID between
// microservices and through Gremlin agents.
const HeaderRequestID = "X-Gremlin-ID"

// HeaderSpan carries the span ID of the hop that delivered a request: the
// agent proxying a hop mints a fresh span ID, stamps it on the outbound
// request, and the callee's own outbound calls relay it (Propagate) so the
// next agent can use it as the parent span.
const HeaderSpan = "X-Gremlin-Span"

// HeaderParentSpan carries the parent span of the hop named by HeaderSpan.
// It is informational for downstream debugging; trace assembly links spans
// through the (SpanID, ParentSpanID) pairs each agent logs.
const HeaderParentSpan = "X-Gremlin-Parent-Span"

// Canonical MIME forms of the header names. HeaderRequestID and HeaderEI
// are not canonical, so handing them to Header.Get or Header.Set would
// canonicalise (and allocate) again on every call; indexing the map by
// the canonical key is equivalent, because header names are
// case-insensitive on the wire and net/http canonicalises inbound keys.
var (
	keyRequestID  = textproto.CanonicalMIMEHeaderKey(HeaderRequestID)
	keySpan       = textproto.CanonicalMIMEHeaderKey(HeaderSpan)
	keyParentSpan = textproto.CanonicalMIMEHeaderKey(HeaderParentSpan)
	keyEI         = textproto.CanonicalMIMEHeaderKey(HeaderEI)
)

// TestIDPrefix is the conventional prefix for synthetic test traffic. Rules
// installed by recipes default to matching the pattern "test-*" so that
// production requests pass through untouched.
const TestIDPrefix = "test-"

// globalSalt derives process-unique salts for generators constructed
// without an rng, so that two nil-rng generators never share a salt.
var globalSalt atomic.Uint64

// Generator produces unique request (or span) IDs with a fixed prefix. The
// zero value is not usable; construct with NewGenerator. Generator is safe
// for concurrent use.
//
// Every ID has the shape
//
//	<prefix><6 hex salt chars>-<decimal counter>
//
// Because the salt is always exactly six hex characters (no dashes) and
// the counter is decimal digits only, two generators with distinct
// prefixes can never emit the same ID, even when one prefix extends the
// other (e.g. "camp-" and "camp-1-"): aligning the two shapes would
// require a dash inside the salt or a non-digit inside the counter.
// Campaigns rely on this to keep per-run ID namespaces disjoint in a
// shared event store. Two generators sharing a prefix are disjoint as
// long as their salts differ — guaranteed for nil-rng generators in one
// process, probabilistic for seeded ones.
type Generator struct {
	base string // prefix plus salt plus '-': every ID's constant head
	ctr  atomic.Uint64
}

// NewGenerator returns a Generator whose IDs carry the given prefix
// (typically TestIDPrefix). The prefix must be non-empty — an unprefixed
// generator would defeat the pattern-based namespace isolation every
// consumer of these IDs depends on — and an empty prefix panics.
//
// The rng seeds the generator's salt; pass a deterministic rand.Rand in
// tests for reproducible IDs. A nil rng draws the salt from a
// process-global sequence instead, so distinct generators in one process
// still never collide; cross-process uniqueness requires a seeded rng.
func NewGenerator(prefix string, rng *rand.Rand) *Generator {
	if prefix == "" {
		panic("trace: NewGenerator requires a non-empty prefix")
	}
	var salt uint64
	if rng != nil {
		salt = rng.Uint64() % 0xffffff
	} else {
		salt = globalSalt.Add(1) % 0xffffff
	}
	return &Generator{base: fmt.Sprintf("%s%06x-", prefix, salt)}
}

// Next returns a fresh unique ID.
func (g *Generator) Next() string {
	var digits [20]byte
	// The conversion is an operand of the concatenation, so it borrows
	// digits instead of copying: the result is the only allocation.
	return g.base + string(strconv.AppendUint(digits[:0], g.ctr.Add(1), 10))
}

// headerValue returns the first value of h under the canonical key
// ("" if none), without re-canonicalising the key.
func headerValue(h http.Header, key string) string {
	if vs := h[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// FromRequest extracts the request ID from an HTTP request, returning the
// empty string if none is present.
func FromRequest(r *http.Request) string {
	return headerValue(r.Header, keyRequestID)
}

// SetRequestID stamps the request ID onto an outgoing HTTP request.
func SetRequestID(r *http.Request, id string) {
	if id != "" {
		r.Header[keyRequestID] = []string{id}
	}
}

// SpanFromRequest extracts the span ID of the hop that delivered the
// request ("" if none). For a Gremlin agent this is the parent of the span
// it is about to mint.
func SpanFromRequest(r *http.Request) string {
	return headerValue(r.Header, keySpan)
}

// SetSpan stamps span identity onto an outgoing request: spanID becomes
// HeaderSpan and parentID becomes HeaderParentSpan. Empty values delete
// the corresponding header rather than leaving a stale inherited value —
// agents rewrite both on every hop.
func SetSpan(r *http.Request, spanID, parentID string) {
	setOrDelete(r.Header, keySpan, spanID)
	setOrDelete(r.Header, keyParentSpan, parentID)
}

// setOrDelete sets h's canonical key to v, or deletes it when v is empty.
func setOrDelete(h http.Header, key, v string) {
	if v == "" {
		delete(h, key)
	} else {
		h[key] = []string{v}
	}
}

// Propagate copies the flow identity — the request ID, the span headers,
// and the execution index — from an inbound request to an outbound
// request, preserving both the flat flow ID and the causal chain across a
// microservice hop. It returns the propagated request ID ("" when the
// inbound request carried none).
func Propagate(in *http.Request, out *http.Request) string {
	id := FromRequest(in)
	SetRequestID(out, id)
	SetSpan(out, headerValue(in.Header, keySpan), headerValue(in.Header, keyParentSpan))
	SetEI(out, headerValue(in.Header, keyEI))
	return id
}
