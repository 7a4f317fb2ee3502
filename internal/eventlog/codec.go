package eventlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// The record codec reads and writes the JSON Lines form of a Record —
// the ingest body a BufferedSink flush ships and the WAL segment format —
// without encoding/json's reflection. appendRecord writes exactly the
// bytes json.Encoder.Encode writes, and decodeRecordLine yields exactly
// the Record json.Unmarshal yields; anything outside the shapes they
// handle falls back to encoding/json, so the accepted inputs and every
// error stay encoding/json's. FuzzRecordCodec checks both claims.

// appendRecord appends r's JSON encoding and a newline to dst, byte for
// byte what json.Encoder.Encode(r) writes. It allocates nothing beyond
// growing dst, except for records encoding/json rejects (a non-finite
// float, a timestamp outside years 0-9999), which it hands to
// encoding/json for the error.
func appendRecord(dst []byte, r *Record) ([]byte, error) {
	if !fastEncodable(r) {
		b, err := json.Marshal(r)
		if err != nil {
			return dst, err
		}
		return append(append(dst, b...), '\n'), nil
	}
	dst = append(dst, '{')
	if r.Seq != 0 {
		dst = append(dst, `"seq":`...)
		dst = strconv.AppendUint(dst, r.Seq, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"ts":"`...)
	dst = r.Timestamp.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, '"')
	dst = appendStringField(dst, `,"requestId":`, r.RequestID, true)
	dst = appendStringField(dst, `,"spanId":`, r.SpanID, true)
	dst = appendStringField(dst, `,"parentSpanId":`, r.ParentSpanID, true)
	dst = appendStringField(dst, `,"ei":`, r.EI, true)
	dst = appendStringField(dst, `,"src":`, r.Src, false)
	dst = appendStringField(dst, `,"dst":`, r.Dst, false)
	dst = appendStringField(dst, `,"kind":`, string(r.Kind), false)
	dst = appendStringField(dst, `,"method":`, r.Method, true)
	dst = appendStringField(dst, `,"uri":`, r.URI, true)
	if r.Status != 0 {
		dst = append(dst, `,"status":`...)
		dst = strconv.AppendInt(dst, int64(r.Status), 10)
	}
	if r.LatencyMillis != 0 {
		dst = append(dst, `,"latencyMillis":`...)
		dst = appendFloat(dst, r.LatencyMillis)
	}
	dst = appendStringField(dst, `,"faultAction":`, r.FaultAction, true)
	dst = appendStringField(dst, `,"faultRuleId":`, r.FaultRuleID, true)
	if r.InjectedDelayMillis != 0 {
		dst = append(dst, `,"injectedDelayMillis":`...)
		dst = appendFloat(dst, r.InjectedDelayMillis)
	}
	if r.GremlinGenerated {
		dst = append(dst, `,"gremlinGenerated":true`...)
	}
	dst = appendStringField(dst, `,"agent":`, r.Agent, true)
	if r.BytesUp != 0 {
		dst = append(dst, `,"bytesUp":`...)
		dst = strconv.AppendInt(dst, r.BytesUp, 10)
	}
	if r.BytesDown != 0 {
		dst = append(dst, `,"bytesDown":`...)
		dst = strconv.AppendInt(dst, r.BytesDown, 10)
	}
	return append(dst, '}', '\n'), nil
}

// fastEncodable reports whether appendRecord can encode r itself:
// encoding/json rejects non-finite floats, and time.Time.MarshalJSON
// rejects years outside 0-9999 and zone offsets of 24 hours or more.
func fastEncodable(r *Record) bool {
	for _, f := range [2]float64{r.LatencyMillis, r.InjectedDelayMillis} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return false
		}
	}
	if y := r.Timestamp.Year(); y < 0 || y > 9999 {
		return false
	}
	_, offset := r.Timestamp.Zone()
	return offset > -24*3600 && offset < 24*3600
}

// appendStringField appends key and s's JSON string, or nothing when s is
// empty and the field is omitempty.
func appendStringField(dst []byte, key, s string, omitEmpty bool) []byte {
	if omitEmpty && s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped exactly as
// encoding/json escapes it by default: HTML-safe, so <, > and & become
// \u003c, \u003e and \u0026, and invalid UTF-8 becomes \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are line terminators in JavaScript.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends a finite f as encoding/json formats a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21 up,
// with the exponent's leading zero dropped (1e-07 → 1e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// Record fields in the order Record declares them; a field's index is its
// bit in decodeRecordLine's seen-set.
const (
	fSeq = iota
	fTS
	fRequestID
	fSpanID
	fParentSpanID
	fEI
	fSrc
	fDst
	fKind
	fMethod
	fURI
	fStatus
	fLatencyMillis
	fFaultAction
	fFaultRuleID
	fInjectedDelayMillis
	fGremlinGenerated
	fAgent
	fBytesUp
	fBytesDown
	numFields
)

var fieldNames = [numFields]string{
	"seq", "ts", "requestId", "spanId", "parentSpanId", "ei", "src", "dst",
	"kind", "method", "uri", "status", "latencyMillis", "faultAction",
	"faultRuleId", "injectedDelayMillis", "gremlinGenerated", "agent",
	"bytesUp", "bytesDown",
}

// fieldIndex returns key's field, or -1 for a key decodeRecordLine leaves
// to encoding/json (unknown, or a case-insensitive match).
func fieldIndex(key []byte) int {
	for i, name := range fieldNames {
		if string(key) == name {
			return i
		}
	}
	return -1
}

// stringFields lists the string-typed fields in Record order, so their
// values can be laid out in one shared allocation.
var stringFields = [...]int{
	fRequestID, fSpanID, fParentSpanID, fEI, fSrc, fDst, fKind, fMethod,
	fURI, fFaultAction, fFaultRuleID, fAgent,
}

// decodeRecordLine decodes one JSON Lines record into *r, as
// json.Unmarshal(line, r) would on a zero Record. It reports false,
// leaving *r unspecified, for any line outside the shape it handles —
// exactly the known keys, each at most once, no nulls, strings without
// surrogate escapes — and the caller then decodes the line with
// encoding/json. Every string field of the record shares one allocation,
// and a Kind naming a known kind points at the package constant.
func decodeRecordLine(line []byte, r *Record) bool {
	var (
		vals [numFields][]byte // raw value literals, strings still quoted
		seen uint32
	)
	i := skipSpace(line, 0)
	if i >= len(line) || line[i] != '{' {
		return false
	}
	i = skipSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		i++
	} else {
		for {
			// Key: a plain string naming a Record field.
			end, plain := scanString(line, i)
			if end < 0 || !plain {
				return false
			}
			f := fieldIndex(line[i+1 : end-1])
			if f < 0 || seen&(1<<f) != 0 {
				return false
			}
			seen |= 1 << f
			i = skipSpace(line, end)
			if i >= len(line) || line[i] != ':' {
				return false
			}
			i = skipSpace(line, i+1)
			if end = scanValue(line, i); end < 0 {
				return false
			}
			vals[f] = line[i:end]
			i = skipSpace(line, end)
			if i >= len(line) {
				return false
			}
			if line[i] == '}' {
				i++
				break
			}
			if line[i] != ',' {
				return false
			}
			i = skipSpace(line, i+1)
		}
	}
	if skipSpace(line, i) != len(line) {
		return false
	}

	*r = Record{}
	if !decodeScalars(&vals, r) {
		return false
	}
	return decodeStrings(&vals, r)
}

// decodeScalars sets r's non-string fields from their raw literals.
func decodeScalars(vals *[numFields][]byte, r *Record) bool {
	var ok bool
	if v := vals[fSeq]; v != nil {
		if r.Seq, ok = parseUint(v); !ok {
			return false
		}
	}
	if v := vals[fTS]; v != nil {
		// encoding/json hands a time.Time its raw literal, quotes and all.
		if v[0] != '"' || r.Timestamp.UnmarshalJSON(v) != nil {
			return false
		}
	}
	if v := vals[fStatus]; v != nil {
		n, ok := parseInt(v)
		if !ok || int64(int(n)) != n {
			return false
		}
		r.Status = int(n)
	}
	if v := vals[fBytesUp]; v != nil {
		if r.BytesUp, ok = parseInt(v); !ok {
			return false
		}
	}
	if v := vals[fBytesDown]; v != nil {
		if r.BytesDown, ok = parseInt(v); !ok {
			return false
		}
	}
	if v := vals[fLatencyMillis]; v != nil {
		if r.LatencyMillis, ok = parseFloat(v); !ok {
			return false
		}
	}
	if v := vals[fInjectedDelayMillis]; v != nil {
		if r.InjectedDelayMillis, ok = parseFloat(v); !ok {
			return false
		}
	}
	if v := vals[fGremlinGenerated]; v != nil {
		switch string(v) {
		case "true":
			r.GremlinGenerated = true
		case "false":
		default:
			return false
		}
	}
	return true
}

// decodeStrings unquotes r's string fields into one shared allocation.
func decodeStrings(vals *[numFields][]byte, r *Record) bool {
	var (
		lens  [numFields]int
		total int
	)
	kind := Kind("")
	for _, f := range stringFields {
		v := vals[f]
		if v == nil {
			continue
		}
		if v[0] != '"' {
			return false
		}
		if f == fKind {
			if k, ok := knownKind(v[1 : len(v)-1]); ok {
				kind = k
				vals[f] = nil
				continue
			}
		}
		n, ok := unquotedLen(v[1 : len(v)-1])
		if !ok {
			return false
		}
		lens[f] = n
		total += n
	}
	var b strings.Builder
	b.Grow(total)
	for _, f := range stringFields {
		if v := vals[f]; v != nil {
			writeUnquoted(&b, v[1:len(v)-1])
		}
	}
	all := b.String()
	next := func(f int) string {
		s := all[:lens[f]]
		all = all[lens[f]:]
		return s
	}
	r.RequestID = next(fRequestID)
	r.SpanID = next(fSpanID)
	r.ParentSpanID = next(fParentSpanID)
	r.EI = next(fEI)
	r.Src = next(fSrc)
	r.Dst = next(fDst)
	if k := next(fKind); kind == "" {
		kind = Kind(k)
	}
	r.Kind = kind
	r.Method = next(fMethod)
	r.URI = next(fURI)
	r.FaultAction = next(fFaultAction)
	r.FaultRuleID = next(fFaultRuleID)
	r.Agent = next(fAgent)
	return true
}

// knownKind returns the package constant spelled by a raw (unescaped)
// string body.
func knownKind(raw []byte) (Kind, bool) {
	for _, k := range [...]Kind{KindRequest, KindReply, KindConnOpen, KindConnClose} {
		if string(raw) == string(k) {
			return k, true
		}
	}
	return "", false
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString scans the JSON string starting at b[i] (which must be '"')
// and returns the index just past its closing quote, or -1 if it is not a
// valid JSON string. plain reports that it holds no escape and no
// non-ASCII byte.
func scanString(b []byte, i int) (end int, plain bool) {
	if i >= len(b) || b[i] != '"' {
		return -1, false
	}
	plain = true
	for i++; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			return i + 1, plain
		case c < ' ':
			return -1, false
		case c == '\\':
			plain = false
			if i+1 >= len(b) {
				return -1, false
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(b) {
					return -1, false
				}
				for _, h := range b[i+2 : i+6] {
					if _, ok := unhex(h); !ok {
						return -1, false
					}
				}
				i += 6
			default:
				return -1, false
			}
		case c >= utf8.RuneSelf:
			plain = false
			i++
		default:
			i++
		}
	}
	return -1, false
}

// scanValue returns the index just past the scalar JSON value starting at
// b[i] — a string, number, true or false — or -1 for anything else
// (objects, arrays and null go to encoding/json).
func scanValue(b []byte, i int) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; {
	case c == '"':
		end, _ := scanString(b, i)
		return end
	case c == '-' || (c >= '0' && c <= '9'):
		return scanNumber(b, i)
	case bytes.HasPrefix(b[i:], []byte("true")):
		return i + 4
	case bytes.HasPrefix(b[i:], []byte("false")):
		return i + 5
	}
	return -1
}

// scanNumber returns the index just past the JSON number at b[i], or -1
// if the bytes there do not form one.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = scanDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if j := scanDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := scanDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func scanDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// parseUint parses a JSON integer literal into a uint64, failing (as
// encoding/json does) on signs, fractions, exponents and overflow.
func parseUint(v []byte) (uint64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseInt parses a JSON integer literal into an int64, failing on
// fractions, exponents and overflow.
func parseInt(v []byte) (int64, bool) {
	neg := len(v) > 0 && v[0] == '-'
	if neg {
		v = v[1:]
	}
	u, ok := parseUint(v)
	switch {
	case !ok:
		return 0, false
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// parseFloat parses a JSON number literal as encoding/json does for a
// float64 field, failing on out-of-range values.
func parseFloat(v []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(v), 64)
	return f, err == nil
}

func unhex(c byte) (rune, bool) {
	switch {
	case c >= '0' && c <= '9':
		return rune(c - '0'), true
	case c >= 'a' && c <= 'f':
		return rune(c - 'a' + 10), true
	case c >= 'A' && c <= 'F':
		return rune(c - 'A' + 10), true
	}
	return 0, false
}

// decodeU4 decodes the four hex digits of a validated \uXXXX escape.
func decodeU4(h []byte) rune {
	var r rune
	for _, c := range h[:4] {
		d, _ := unhex(c)
		r = r<<4 | d
	}
	return r
}

// unquotedLen returns the byte length of a scanned JSON string body once
// unescaped. It reports false for bodies encoding/json would rewrite in
// ways left to it: invalid UTF-8 and surrogate escapes.
func unquotedLen(body []byte) (int, bool) {
	n := 0
	for i := 0; i < len(body); {
		switch c := body[i]; {
		case c == '\\':
			if body[i+1] != 'u' {
				n++
				i += 2
				continue
			}
			r := decodeU4(body[i+2:])
			if r >= 0xD800 && r < 0xE000 {
				return 0, false
			}
			n += utf8.RuneLen(r)
			i += 6
		case c < utf8.RuneSelf:
			n++
			i++
		default:
			r, size := utf8.DecodeRune(body[i:])
			if r == utf8.RuneError && size == 1 {
				return 0, false
			}
			n += size
			i += size
		}
	}
	return n, true
}

// writeUnquoted writes a body unquotedLen accepted, unescaped.
func writeUnquoted(b *strings.Builder, body []byte) {
	start := 0
	for i := 0; i < len(body); {
		if body[i] != '\\' {
			i++
			continue
		}
		b.Write(body[start:i])
		switch e := body[i+1]; e {
		case 'u':
			b.WriteRune(decodeU4(body[i+2:]))
			i += 6
		default:
			b.WriteByte(unescapeByte(e))
			i += 2
		}
		start = i
	}
	b.Write(body[start:])
}

func unescapeByte(e byte) byte {
	switch e {
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return e // '"', '\\' and '/' stand for themselves
}

// decodeRecordLines decodes a JSON Lines body. Lines the codec handles
// are decoded by it; from the first line it does not, the rest of the
// body goes through a json.Decoder, exactly as the whole body would have,
// so errors and accepted inputs are encoding/json's. The returned slice
// is sized from the body's line count.
func decodeRecordLines(body []byte) ([]Record, error) {
	recs := make([]Record, 0, bytes.Count(body, []byte{'\n'})+1)
	for off := 0; off < len(body); {
		line := body[off:]
		next := len(body)
		if j := bytes.IndexByte(line, '\n'); j >= 0 {
			line, next = line[:j], off+j+1
		}
		if skipSpace(line, 0) == len(line) {
			off = next
			continue
		}
		var rec Record
		if !decodeRecordLine(line, &rec) {
			return decodeRecordStream(body[off:], recs)
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, nil
}

// decodeRecordStream decodes a stream of JSON records with encoding/json,
// appending to recs.
func decodeRecordStream(body []byte, recs []Record) ([]Record, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var rec Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("decode record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
	}
}
