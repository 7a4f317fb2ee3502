package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gremlin/internal/eventlog"
)

// Each output check must reject a deliberately corrupted output.

func TestHopVerdictRejectsCorruption(t *testing.T) {
	body := chainBody("/item/7")
	modified := strings.Replace(body, modSearch, modReplace, 1)
	cases := []struct {
		name   string
		id     string
		status int
		body   string
		want   bool
	}{
		{"plain ok", "u01-xxx-1-1", 200, body, true},
		{"plain body corrupted", "u01-xxx-1-1", 200, body[:len(body)-1] + "?", false},
		{"plain wrong status", "u01-xxx-1-1", 500, body, false},
		{"abort ok", "u01-Axx-1-1", 503, abortBody, true},
		{"abort not applied", "u01-Axx-1-1", 200, body, false},
		{"modify ok", "u01-xMx-1-1", 200, modified, true},
		{"modify not applied", "u01-xMx-1-1", 200, body, false},
		{"modify applied unasked", "u01-xxx-1-1", 200, modified, false},
		{"delay ok", "u01-xxD-1-1", 200, body, true},
	}
	for _, c := range cases {
		var tally hopTally
		got := tally.verdict(request{id: c.id, path: "/item/7"}, c.status, []byte(c.body))
		if got != c.want {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.want)
		}
	}
}

func TestHopVerifyRejectsCountMismatch(t *testing.T) {
	d, err := buildHop(1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res := newResult()
	d.verify(res)
	if len(res.problems) != 0 {
		t.Fatalf("clean deployment failed verification: %v", res.problems)
	}

	// A 503 the edge agent never produced.
	var phantom hopTally
	phantom.aborted.Add(1)
	res = newResult()
	d.verify(res, &phantom)
	if !hasProblem(res, "edge agent aborted") {
		t.Fatalf("a client-side 503 the agent did not count passed verification: %v", res.problems)
	}

	// A record the chain never logged.
	if err := d.st.store.Log(eventlog.Record{RequestID: "stray-1", Src: "user", Dst: "svc-0", Kind: eventlog.KindRequest}); err != nil {
		t.Fatal(err)
	}
	res = newResult()
	d.verify(res)
	if !hasProblem(res, "store holds") {
		t.Fatalf("an extra store record passed verification: %v", res.problems)
	}
}

func TestStreamChecksRejectCorruption(t *testing.T) {
	d := &streamDeployment{blob: []byte("0123456789")}
	if !d.verdict(request{}, 200, []byte("0123456789")) {
		t.Fatal("exact body rejected")
	}
	for _, bad := range []string{"0123456780", "012345678", "01234567890"} {
		if d.verdict(request{}, 200, []byte(bad)) {
			t.Errorf("corrupted body %q accepted", bad)
		}
	}
	if d.verdict(request{}, http.StatusBadGateway, []byte("0123456789")) {
		t.Error("non-200 reply accepted")
	}
}

// corruptingEcho echoes everything but flips the first byte.
func corruptingEcho(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				b, _ := io.ReadAll(c)
				if len(b) > 0 {
					b[0] ^= 0xff
				}
				_, _ = c.Write(b)
			}()
		}
	}()
	return ln.Addr().String()
}

func TestEchoCheckRejectsCorruption(t *testing.T) {
	payload := []byte(strings.Repeat("gremlin", 10000))
	e := &echoer{payload: payload, buf: make([]byte, 4096)}
	e.want = crcOf(payload)

	good, err := newEchoServer()
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, ok, err := e.echoOnce(good.addr()); !ok || err != nil {
		t.Fatalf("exact echo rejected: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := e.echoOnce(corruptingEcho(t)); ok {
		t.Fatal("corrupted echo accepted")
	}
}

func TestCompareVerdictsRejectsMismatch(t *testing.T) {
	golden := map[string]string{"a": "failed", "b": "skipped"}
	if bad := compareVerdicts(newResult(), "c", map[string]string{"a": "failed", "b": "skipped"}, golden); bad != 0 {
		t.Fatalf("matching verdicts counted %d mismatches", bad)
	}
	cases := []map[string]string{
		{"a": "passed", "b": "skipped"},                // flipped verdict
		{"a": "failed"},                                // missing unit
		{"a": "failed", "b": "skipped", "c": "failed"}, // unknown unit
	}
	for i, got := range cases {
		res := newResult()
		if bad := compareVerdicts(res, "c", got, golden); bad == 0 || len(res.problems) == 0 {
			t.Errorf("case %d: corrupted verdicts passed", i)
		}
	}
}

func TestTreeVerifyRejectsLeftoverRecords(t *testing.T) {
	d, err := buildTree(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res := newResult()
	d.verify(res)
	if len(res.problems) != 0 {
		t.Fatalf("clean deployment failed verification: %v", res.problems)
	}
	// A run namespace that cleanup failed to reclaim.
	if err := d.st.store.Log(eventlog.Record{Timestamp: time.Now(), RequestID: "camp-x-1-0", Src: "user", Dst: "tree-0", Kind: eventlog.KindRequest}); err != nil {
		t.Fatal(err)
	}
	res = newResult()
	d.verify(res)
	if !hasProblem(res, "store holds") {
		t.Fatalf("a leftover run record passed verification: %v", res.problems)
	}
}

func hasProblem(res *result, substr string) bool {
	for _, p := range res.problems {
		if strings.Contains(p, substr) {
			return true
		}
	}
	return false
}
