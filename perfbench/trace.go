package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer. Spans of one request share
// Req; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps spans in memory and writes them out when the run ends.
// A nil *recorder records nothing, so untraced runs execute the same
// code with no bookkeeping.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// do runs fn inside a span.
func (r *recorder) do(name string, parent int, req int64, fn func() error) error {
	id := r.begin(name, parent, req)
	err := fn()
	r.end(id)
	return err
}

// timed runs fn inside a root span and returns how long it took.
func (r *recorder) timed(name string, req int64, fn func()) time.Duration {
	id := r.begin(name, -1, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// medianMS returns the median duration of the spans named name, in
// milliseconds, or NaN if there is none.
func (r *recorder) medianMS(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var xs []float64
	for _, s := range r.spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return median(xs)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals.
func covered(kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, lo, hi int64
	open := false
	for _, k := range kids {
		if open && k.Start <= hi {
			hi = max(hi, k.End)
			continue
		}
		if open {
			total += hi - lo
		}
		lo, hi, open = k.Start, k.End, true
	}
	if open {
		total += hi - lo
	}
	return total
}

// write stores every span as JSON at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
