package trace

import (
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestGeneratorUnique(t *testing.T) {
	g := NewGenerator(TestIDPrefix, rand.New(rand.NewSource(1)))
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := g.Next()
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, TestIDPrefix) {
			t.Fatalf("id %q missing prefix %q", id, TestIDPrefix)
		}
	}
}

func TestGeneratorNilRNG(t *testing.T) {
	g := NewGenerator("p-", nil)
	a, b := g.Next(), g.Next()
	if a == b {
		t.Fatalf("consecutive ids collide: %q", a)
	}
	for _, id := range []string{a, b} {
		if !strings.HasPrefix(id, "p-") {
			t.Fatalf("id %q missing prefix", id)
		}
	}
	// Two nil-rng generators with the same prefix draw distinct salts from
	// the process-global sequence, so their ID spaces stay disjoint.
	g2 := NewGenerator("p-", nil)
	if got := g2.Next(); got == a || got == b {
		t.Fatalf("second generator repeated id %q", got)
	}
}

func TestGeneratorRejectsEmptyPrefix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGenerator(\"\", nil) should panic")
		}
	}()
	NewGenerator("", nil)
}

// TestGeneratorDistinctPrefixesNeverCollide pins the namespace-isolation
// contract campaigns depend on: generators with distinct prefixes sharing
// one event store never produce the same ID, even when one prefix extends
// the other (the "camp-" vs "camp-1-" shape) and regardless of rng.
func TestGeneratorDistinctPrefixesNeverCollide(t *testing.T) {
	prefixes := []string{"camp-", "camp-1-", "camp-", "camp-1-", "camp-11-"}
	gens := []*Generator{
		NewGenerator(prefixes[0], nil),
		NewGenerator(prefixes[1], nil),
		NewGenerator(prefixes[2], rand.New(rand.NewSource(3))),
		NewGenerator(prefixes[3], rand.New(rand.NewSource(3))),
		NewGenerator(prefixes[4], rand.New(rand.NewSource(4))),
	}
	seen := make(map[string]int)
	for gi, g := range gens {
		for i := 0; i < 500; i++ {
			id := g.Next()
			if prev, dup := seen[id]; dup && prefixes[prev] != prefixes[gi] {
				t.Fatalf("generators %d and %d (distinct prefixes) both produced %q", prev, gi, id)
			}
			seen[id] = gi
		}
	}
}

func TestGeneratorDeterministicWithSeed(t *testing.T) {
	g1 := NewGenerator("test-", rand.New(rand.NewSource(42)))
	g2 := NewGenerator("test-", rand.New(rand.NewSource(42)))
	for i := 0; i < 10; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("same seed produced different ids: %q vs %q", a, b)
		}
	}
}

func TestGeneratorConcurrent(t *testing.T) {
	g := NewGenerator(TestIDPrefix, rand.New(rand.NewSource(7)))
	const (
		workers = 8
		perW    = 200
	)
	var (
		mu   sync.Mutex
		seen = make(map[string]bool, workers*perW)
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := g.Next()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate id %q", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*perW {
		t.Fatalf("got %d unique ids, want %d", len(seen), workers*perW)
	}
}

func TestPropagate(t *testing.T) {
	in, err := http.NewRequest(http.MethodGet, "http://a/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := http.NewRequest(http.MethodGet, "http://b/y", nil)
	if err != nil {
		t.Fatal(err)
	}

	if id := Propagate(in, out); id != "" {
		t.Fatalf("Propagate with no id = %q, want empty", id)
	}
	if got := FromRequest(out); got != "" {
		t.Fatalf("outbound id = %q, want empty", got)
	}

	SetRequestID(in, "test-123")
	if id := Propagate(in, out); id != "test-123" {
		t.Fatalf("Propagate = %q, want test-123", id)
	}
	if got := FromRequest(out); got != "test-123" {
		t.Fatalf("outbound id = %q, want test-123", got)
	}
}

func TestPropagateCopiesSpanHeaders(t *testing.T) {
	in, _ := http.NewRequest(http.MethodGet, "http://a/x", nil)
	out, _ := http.NewRequest(http.MethodGet, "http://b/y", nil)
	SetRequestID(in, "test-9")
	SetSpan(in, "sp-1", "sp-0")

	if id := Propagate(in, out); id != "test-9" {
		t.Fatalf("Propagate = %q, want test-9", id)
	}
	if got := SpanFromRequest(out); got != "sp-1" {
		t.Fatalf("outbound span = %q, want sp-1", got)
	}
	if got := out.Header.Get(HeaderParentSpan); got != "sp-0" {
		t.Fatalf("outbound parent span = %q, want sp-0", got)
	}
}

func TestSetSpanClearsStaleHeaders(t *testing.T) {
	r, _ := http.NewRequest(http.MethodGet, "http://a/", nil)
	SetSpan(r, "sp-new", "sp-old")
	SetSpan(r, "", "")
	if _, ok := r.Header[http.CanonicalHeaderKey(HeaderSpan)]; ok {
		t.Fatal("empty span should delete header")
	}
	if _, ok := r.Header[http.CanonicalHeaderKey(HeaderParentSpan)]; ok {
		t.Fatal("empty parent should delete header")
	}
}

func TestSetRequestIDEmptyIsNoop(t *testing.T) {
	r, err := http.NewRequest(http.MethodGet, "http://a/", nil)
	if err != nil {
		t.Fatal(err)
	}
	SetRequestID(r, "")
	if _, ok := r.Header[http.CanonicalHeaderKey(HeaderRequestID)]; ok {
		t.Fatal("empty id should not set header")
	}
}
