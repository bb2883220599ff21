// Package span records the traced benchmark's spans: one per call the
// benchmark makes into a layer, with its parent and the id of the request
// or campaign it serves. Spans stay in memory and are written out once,
// when the run ends.
package span

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one recorded call. Start and End are nanoseconds since the
// recorder was created; Parent is 0 for a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"` // request or campaign id the span serves
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder collects spans. A nil *Recorder records nothing, so untraced
// code paths call the same methods at the cost of a nil check.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// New starts a recorder whose clock origin is now.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent int, op string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op, Start: now, End: -1})
	return len(r.spans)
}

// Finish closes span id.
func (r *Recorder) Finish(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose bounds were measured elsewhere (for example
// from engine phase events) and returns its id.
func (r *Recorder) Add(name string, parent int, op string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return len(r.spans)
}

// Len reports the number of spans recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Self is the aggregate of one span name: how many spans, their total
// duration, and their self time (duration minus the part of the interval
// that child spans cover).
type Self struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// SelfTimes aggregates closed spans by name, sorted by name.
func (r *Recorder) SelfTimes() []Self {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]Span)
	for _, s := range r.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*Self)
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		a := agg[s.Name]
		if a == nil {
			a = &Self{Name: s.Name}
			agg[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.TotalNs += d
		a.SelfNs += d - covered(s, children[s.ID])
	}
	out := make([]Self, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers (children of concurrent work may overlap).
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// WriteJSON writes every span and the per-name self-time table.
func (r *Recorder) WriteJSON(w io.Writer) error {
	self := r.SelfTimes()
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Self  []Self `json:"self"`
		Spans []Span `json:"spans"`
	}{self, r.spans})
}
