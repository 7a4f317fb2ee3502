package trace

import (
	"net/http"
	"testing"
)

// raceEnabled is set under -race, whose instrumentation allocates and
// would make the budgets below meaningless.
var raceEnabled = false

// checkAllocs fails when f allocates more than budget times per run.
// Lowering a budget is always fine; raising one needs a stated reason.
func checkAllocs(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	if got := testing.AllocsPerRun(200, f); got > budget {
		t.Errorf("%s: %.1f allocations per run, budget %.0f", name, got, budget)
	}
}

func TestAllocBudgets(t *testing.T) {
	r, _ := http.NewRequest("GET", "http://svc/", nil)
	SetRequestID(r, "test-1")
	SetSpan(r, "sp-1", "sp-0")
	SetEI(r, "edge#0/svc-0#0/svc-1#2")
	var sink string

	checkAllocs(t, "AppendEI on a canonical index", 1, func() {
		sink, _ = AppendEI("edge#0/svc-0#0/svc-1#2", "svc-2", 3)
	})
	g := NewGenerator("sp-agent-", nil)
	checkAllocs(t, "Generator.Next", 1, func() { sink = g.Next() })
	checkAllocs(t, "FromRequest", 0, func() { sink = FromRequest(r) })
	checkAllocs(t, "SpanFromRequest", 0, func() { sink = SpanFromRequest(r) })
	checkAllocs(t, "EIFromRequest", 0, func() { sink = EIFromRequest(r) })
	_ = sink
}
