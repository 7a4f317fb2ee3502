package trace

import "testing"

var eiSeeds = []string{
	"", "a#0", "a#0/b#1", "svc#1#2", "a#0/…", "…", "a#0/garbage/b#1",
	"a#0/#3/b#1", "a#0/b#x", "a#0/b#-2", "a#0/b#007", "a#+1", "a#0//b#1",
	"a#0/", "/a#0", "a#99999999999999999999",
}

// referenceAppendEI is AppendEI spelled out through the frame API:
// parse the inbound index, append one frame, format, and clamp at the
// bounds.
func referenceAppendEI(ei, service string, ordinal int) (string, bool) {
	frames, truncated := ParseEI(ei)
	if truncated {
		return FormatEI(clampEI(frames), true), true
	}
	next := append(frames, EIFrame{Service: service, Ordinal: ordinal})
	out := FormatEI(next, false)
	if len(next) > MaxEIFrames || len(out) > MaxEIBytes {
		return FormatEI(clampEI(frames), true), true
	}
	return out, false
}

// FuzzAppendEI checks that for any inbound string AppendEI returns the
// same index and truncation flag as ParseEI → append → FormatEI, whether
// it takes the canonical fast path or not.
func FuzzAppendEI(f *testing.F) {
	for _, s := range eiSeeds {
		f.Add(s, "svc", 0)
	}
	f.Add("a#0", "b/c", 7)
	f.Add("a#0", "b", -3)
	f.Fuzz(func(t *testing.T, ei, service string, ordinal int) {
		got, gotTrunc := AppendEI(ei, service, ordinal)
		want, wantTrunc := referenceAppendEI(ei, service, ordinal)
		if got != want || gotTrunc != wantTrunc {
			t.Fatalf("AppendEI(%q, %q, %d) = %q/%v, want %q/%v",
				ei, service, ordinal, got, gotTrunc, want, wantTrunc)
		}
	})
}

// FuzzParseEI checks that CanonicalEI is idempotent on any input, and
// that canonicalFrames recognises exactly the strings CanonicalEI leaves
// unchanged (marker-free ones, since the fast path never truncates).
func FuzzParseEI(f *testing.F) {
	for _, s := range eiSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ei string) {
		c := CanonicalEI(ei)
		if again := CanonicalEI(c); again != c {
			t.Fatalf("CanonicalEI not idempotent: %q -> %q -> %q", ei, c, again)
		}
		frames, truncated := ParseEI(ei)
		n, ok := canonicalFrames(ei)
		if ok && (c != ei || truncated || n != len(frames)) {
			t.Fatalf("canonicalFrames(%q) = %d/true, but CanonicalEI = %q (%d frames, truncated %v)",
				ei, n, c, len(frames), truncated)
		}
	})
}
