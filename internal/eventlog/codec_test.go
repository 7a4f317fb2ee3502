package eventlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
)

// raceEnabled is set under -race, whose instrumentation allocates and
// would make allocation budgets meaningless.
var raceEnabled = false

// codecRecords extends walCompatRecords with a sequence number, a zone
// offset, negative counts, control bytes, invalid UTF-8 and a kind that
// is not a package constant.
func codecRecords() []Record {
	recs := walCompatRecords()
	recs[0].Seq = 1
	return append(recs,
		Record{Timestamp: recs[0].Timestamp.In(time.FixedZone("", -7*3600)), RequestID: "l4-x-2",
			Src: "app", Dst: "db", Kind: KindConnOpen, BytesDown: -3},
		Record{Src: "a\b\f\x01>", Dst: "b\xff\u2029", Kind: "custom-kind"})
}

func jsonEncode(r *Record) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// jsonDecodeStream is how an NDJSON ingest body was decoded before the
// codec: a json.Decoder over the whole body.
func jsonDecodeStream(body []byte) ([]Record, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var recs []Record
	for {
		var rec Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

func TestRecordCodecMatchesEncodingJSON(t *testing.T) {
	var body []byte
	for i, r := range codecRecords() {
		want, err := jsonEncode(&r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendRecord(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d:\n got %s\nwant %s", i, got, want)
		}
		var dec Record
		if !decodeRecordLine(got[:len(got)-1], &dec) {
			t.Fatalf("record %d: codec declined its own line %s", i, got)
		}
		var ref Record
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, ref) {
			t.Fatalf("record %d: decoded %+v, encoding/json %+v", i, dec, ref)
		}
		body = append(body, got...)
	}
	recs, err := decodeRecordLines(body)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := jsonDecodeStream(body)
	if !reflect.DeepEqual(recs, ref) {
		t.Fatalf("body decoded to %+v, encoding/json %+v", recs, ref)
	}
	if recs[0].Kind != KindRequest || recs[5].Kind != "custom-kind" {
		t.Fatalf("kinds %q %q", recs[0].Kind, recs[5].Kind)
	}
}

// TestRecordCodecFallsBack feeds lines outside the codec's shape: the
// result must be encoding/json's, records and errors alike.
func TestRecordCodecFallsBack(t *testing.T) {
	for _, body := range []string{
		`{"Src":"a","dst":"b","kind":"request"}`, // case-insensitive key
		`{"src":"a","src":"b"}`,                  // duplicate key
		`{"src":"a","extra":{"x":[1,2]}}`,        // unknown key
		`{"src":null,"seq":null}`,                // nulls
		`{"src":"\ud83d\ude00","dst":"\ud800"}`,  // surrogate escapes
		"{\"src\":\"\xff\"}",                     // invalid UTF-8
		`{"seq":-1}`,                             // negative uint
		`{"status":1.5}`,                         // fraction into int
		`{"latencyMillis":1e400}`,                // float out of range
		`{"ts":"not a time"}`,                    // bad timestamp
		`{"src":"a"} {"src":"b"}`,                // two values on a line
		"{\"src\":\n\"a\"}",                      // value spans lines
		`null`,                                   // zero record
		`{"src":"a"`,                             // truncated
		`{"seq":01}`,                             // leading zero
		"{\"src\":\"a\"}\n\n  \n{\"src\":\"b\",\"kind\":\"reply\"}\r\n", // blank and CRLF lines
	} {
		got, gotErr := decodeRecordLines([]byte(body))
		want, wantErr := jsonDecodeStream([]byte(body))
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%q: error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", body, got, want)
		}
	}
}

// TestRecordCodecEncodeErrors checks that records encoding/json cannot
// encode fail the same way.
func TestRecordCodecEncodeErrors(t *testing.T) {
	nan := 0.0
	nan /= nan
	for _, r := range []Record{
		{LatencyMillis: nan},
		{Timestamp: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Timestamp: time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 25*3600))},
	} {
		if _, err := jsonEncode(&r); err == nil {
			t.Fatalf("encoding/json encoded %+v", r)
		}
		if _, err := appendRecord(nil, &r); err == nil {
			t.Fatalf("codec encoded %+v", r)
		}
	}
}

func TestRecordCodecAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	recs := codecRecords()[:2]
	buf := make([]byte, 0, 4096)
	if got := testing.AllocsPerRun(100, func() {
		buf, _ = appendRecord(buf[:0], &recs[1])
	}); got > 0 {
		t.Errorf("encoding a record into a warm buffer: %.1f allocations, budget 0", got)
	}

	const n = 100
	var body []byte
	for i := 0; i < n; i++ {
		r := recs[i%2]
		r.RequestID = fmt.Sprintf("test-abc123-%d", i)
		body, _ = appendRecord(body, &r)
	}
	// One allocation per record for its strings, one for the slice.
	if got := testing.AllocsPerRun(20, func() {
		if _, err := decodeRecordLines(body); err != nil {
			t.Fatal(err)
		}
	}); got > n+1 {
		t.Errorf("decoding a %d-record body: %.1f allocations, budget %d", n, got, n+1)
	}
}
