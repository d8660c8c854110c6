package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the id
// of the span that caused it (0 for a root); times are offsets from the
// tracer's start.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was observed after the fact, such as
// the queue wait between a job's creation and start timestamps.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans)
}

// selfTime sums, per span name, each span's duration minus the part of its
// interval that its children cover. Children that overlap each other (such
// as oracle calls from parallel restarts) are merged before subtracting.
func selfTime(spans []span) map[string]time.Duration {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]time.Duration(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, iv := range s {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// printSelfTimes writes the per-name self-time table, largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	t.mu.Lock()
	self := selfTime(t.spans)
	n := make(map[string]int)
	for _, s := range t.spans {
		n[s.Name]++
	}
	t.mu.Unlock()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "# span self time (span minus its children)\n")
	for _, k := range names {
		fmt.Fprintf(w, "#   %-22s %6d spans %10.3f s\n", k, n[k], self[k].Seconds())
	}
}
