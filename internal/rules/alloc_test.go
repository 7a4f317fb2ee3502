package rules

import (
	"fmt"
	"math/rand"
	"testing"
)

// raceEnabled is set under -race, whose instrumentation allocates and
// would make the budget meaningless.
var raceEnabled = false

// TestDecideAllocatesNothing pins Matcher.Decide, run on every proxied
// message and every relayed connection, at zero allocations: for a
// message no rule matches (200 indexed glob rules, 200 regex rules on
// its route) and for a firing abort. Lowering a budget is always fine;
// raising this one needs a stated reason.
func TestDecideAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	rulesFor := func(pattern string) []Rule {
		rs := make([]Rule, 200)
		for i := range rs {
			rs[i] = Rule{
				ID: fmt.Sprintf("r%d", i), Src: "client", Dst: "server",
				Action: ActionDelay, Pattern: fmt.Sprintf(pattern, i), DelayMillis: 1,
			}
		}
		return rs
	}
	abort := []Rule{{ID: "a", Src: "client", Dst: "server", Action: ActionAbort, Pattern: "test-*", ErrorCode: 503}}
	cases := []struct {
		name  string
		rules []Rule
		fired bool
	}{
		{"unfired-200-glob", rulesFor("never-%d-*"), false},
		{"unfired-200-regex", rulesFor("re:^never-%d-[0-9]+$"), false},
		{"firing-abort", abort, true},
	}
	m := msg("client", "server", OnRequest, "test-12345")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mt := NewMatcher(rand.New(rand.NewSource(1)))
			if err := mt.Install(tc.rules...); err != nil {
				t.Fatal(err)
			}
			if d := mt.Decide(m); d.Fired != tc.fired {
				t.Fatalf("Fired = %v, want %v", d.Fired, tc.fired)
			}
			if got := testing.AllocsPerRun(1000, func() { mt.Decide(m) }); got != 0 {
				t.Errorf("Decide: %.0f allocations, budget 0", got)
			}
		})
	}
}
