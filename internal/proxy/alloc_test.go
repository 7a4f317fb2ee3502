package proxy

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"gremlin/internal/eventlog"
	"gremlin/internal/trace"
)

// raceEnabled is set under -race, whose instrumentation allocates and
// would make the budget meaningless.
var raceEnabled = false

// discardSink drops records, so the budget covers the agent's own work
// and not a store's.
type discardSink struct{}

func (discardSink) Log(...eventlog.Record) error { return nil }

// hopAllocBudget is the allocation budget of one unfaulted proxied hop
// measured end to end in one process: the client's request, the agent's
// inbound and outbound net/http legs, the backend's handler and the
// agent's own work (span, execution index, two records, headers).
// Lowering it is always fine; raising it needs a stated reason.
const hopAllocBudget = 150

func TestUnfaultedHopAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	a, err := New(Config{
		ServiceName: "client",
		Routes:      []Route{{Dst: "server", ListenAddr: "127.0.0.1:0", Targets: []string{hostport(srv.URL)}}},
		Sink:        discardSink{},
		RNG:         rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Close()
	u, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	req, err := http.NewRequest(http.MethodGet, u+"/item/7", nil)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-1")
	trace.SetEI(req, "edge#0")
	hop := func() {
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	hop() // warm the connections
	got := testing.AllocsPerRun(200, hop)
	t.Logf("%.0f allocations per proxied hop", got)
	if got > hopAllocBudget {
		t.Errorf("one unfaulted proxied hop: %.0f allocations, budget %d", got, hopAllocBudget)
	}
}
