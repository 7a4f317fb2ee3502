package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Key is the request ID, unit run ID or request-ID pattern the call
	// served.
	Key   string `json:"key,omitempty"`
	Start int64  `json:"startNs"` // since the tracer's epoch
	End   int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, for a span whose children start before it
// ends.
func (t *tracer) newID() uint64 { return t.next.Add(1) }

// record stores a finished span; id 0 allocates one.
func (t *tracer) record(id, parent uint64, name, key string, start, end time.Time) uint64 {
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// since records a span from start to now.
func (t *tracer) since(parent uint64, name, key string, start time.Time) uint64 {
	return t.record(0, parent, name, key, start, time.Now())
}

// snapshot returns the spans recorded so far, sorted by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName returns the durations of spans named name, in milliseconds.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, intervals [][2]int64) time.Duration {
	var clipped [][2]int64
	for _, iv := range intervals {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return time.Duration(total)
}

// descendants returns the spans below root whose names are in names,
// using children as the parent index.
func descendants(root uint64, children map[uint64][]span, names map[string]bool) [][2]int64 {
	var out [][2]int64
	stack := []uint64{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range children[id] {
			if names[c.Name] {
				out = append(out, [2]int64{c.Start, c.End})
			}
			stack = append(stack, c.ID)
		}
	}
	return out
}

func childIndex(spans []span) map[uint64][]span {
	idx := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			idx[s.Parent] = append(idx[s.Parent], s)
		}
	}
	return idx
}
