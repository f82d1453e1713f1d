package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer started; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// do runs f inside a span and returns its duration.
func (t *tracer) do(name string, parent int, f func(id int)) time.Duration {
	id := t.begin(name, parent)
	f(id)
	return t.end(id)
}

// selfTimes returns, per span name, the summed time not covered by the
// span's children (the union of their intervals, so overlapping
// children are not counted twice), and the summed total time.
func (t *tracer) selfTimes() (self, total map[string]time.Duration, count map[string]int) {
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, total, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, hi int64 = 0, s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
			}
			hi = max(hi, end)
		}
		total[s.Name] += time.Duration(s.End - s.Start)
		self[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	return self, total, count
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// report renders the per-name totals and self times, largest self time
// first.
func (t *tracer) report() []string {
	self, total, count := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	lines := []string{fmt.Sprintf("%-28s %8s %12s %12s", "span", "count", "total s", "self s")}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("%-28s %8d %12.6f %12.6f", n, count[n], total[n].Seconds(), self[n].Seconds()))
	}
	return lines
}
