package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into an exported function of a layer, recorded by
// the harness from outside the program. Spans of one operation share Op;
// Parent is the ID of the span whose call caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method just runs the call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID, which child spans name as Parent.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(r.epoch).Nanoseconds()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = time.Since(r.epoch).Nanoseconds()
}

// timed runs fn inside a span and returns how long fn took.
func (r *recorder) timed(name string, parent, op int, fn func()) time.Duration {
	id := r.begin(name, parent, op)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return d
}

// add records a span measured elsewhere: the per-stage wall times the runtime
// reports in its snapshot are laid end to end under their Execute span.
func (r *recorder) add(name string, parent, op int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := start.Sub(r.epoch).Nanoseconds()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: s, End: s + d.Nanoseconds()})
}

// selfSeconds returns, per span name, each span's self time: its duration
// minus the part of its interval that its child spans cover.
func (r *recorder) selfSeconds() map[string][]float64 {
	out := map[string][]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e9)
	}
	return out
}

// write dumps the spans as one JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	body, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}
