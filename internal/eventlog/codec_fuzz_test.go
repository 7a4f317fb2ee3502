package eventlog

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzRecordCodec is a differential test of the record codec against
// encoding/json. For any input line, decodeRecordLine must either
// decline it or produce exactly the Record json.Unmarshal produces, and
// decodeRecordLines must return what a json.Decoder over the same body
// returns, records or error. For any Record built from the remaining
// arguments, appendRecord must write exactly json.Encoder's bytes, or
// fail where it fails.
func FuzzRecordCodec(f *testing.F) {
	for _, r := range codecRecords() {
		line, _ := jsonEncode(&r)
		f.Add(line, r.Seq, r.Timestamp.Unix(), int64(r.Timestamp.Nanosecond()), int32(0),
			r.RequestID, r.EI, r.URI, string(r.Kind), r.Status, r.LatencyMillis,
			r.InjectedDelayMillis, r.GremlinGenerated, r.BytesUp)
	}
	f.Add([]byte(`{"src":"a","dst":"b","kind":"request"} {"seq":1}`), uint64(0), int64(-62135596800),
		int64(0), int32(86400), "", "…/a#0", "\xff<&>", "", -1, -0.0, 1e-7, false, int64(-1))
	f.Fuzz(func(t *testing.T, line []byte, seq uint64, sec, nsec int64, offset int32,
		id, ei, uri, kind string, status int, lat, inj float64, gen bool, bytesUp int64) {

		var got, want Record
		if decodeRecordLine(line, &got) {
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("codec decoded %q, encoding/json failed: %v", line, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("line %q:\n codec %+v\n  json %+v", line, got, want)
			}
		}
		recs, err := decodeRecordLines(line)
		ref, refErr := jsonDecodeStream(line)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("body %q: codec error %v, encoding/json error %v", line, err, refErr)
		}
		if err == nil && len(recs)+len(ref) > 0 && !reflect.DeepEqual(recs, ref) {
			t.Fatalf("body %q:\n codec %+v\n  json %+v", line, recs, ref)
		}

		rec := Record{
			Seq:       seq,
			Timestamp: time.Unix(sec, nsec).In(time.FixedZone("", int(offset))),
			RequestID: id, SpanID: id, ParentSpanID: uri, EI: ei,
			Src: id, Dst: ei, Kind: Kind(kind), Method: kind, URI: uri,
			Status: status, LatencyMillis: lat, FaultAction: kind, FaultRuleID: ei,
			InjectedDelayMillis: inj, GremlinGenerated: gen, Agent: uri,
			BytesUp: bytesUp, BytesDown: -bytesUp,
		}
		enc, encErr := appendRecord(nil, &rec)
		wantEnc, wantErr := jsonEncode(&rec)
		if (encErr != nil) != (wantErr != nil) {
			t.Fatalf("record %+v: codec error %v, encoding/json error %v", rec, encErr, wantErr)
		}
		if encErr != nil {
			return
		}
		if !bytes.Equal(enc, wantEnc) {
			t.Fatalf("record %+v:\n codec %s\n  json %s", rec, enc, wantEnc)
		}
		// What the codec writes it reads back as encoding/json does.
		back, err := decodeRecordLines(enc)
		ref, refErr = jsonDecodeStream(enc)
		if err != nil || refErr != nil || !reflect.DeepEqual(back, ref) {
			t.Fatalf("round trip of %s: codec %+v (%v), json %+v (%v)", enc, back, err, ref, refErr)
		}
	})
}
