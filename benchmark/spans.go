package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Parent is the enclosing span's ID, -1 for a
// root; Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a run in memory; spans nest by the order in
// which they are opened and closed on the single calling goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// layerTime aggregates the spans of one name: how many calls, their summed
// duration, and their summed self time (duration minus the part covered by
// child spans).
type layerTime struct {
	Calls int
	Total int64
	Self  int64
}

func (l layerTime) meanMS() float64 { return ratio(float64(l.Total), float64(l.Calls)) / 1e6 }

// selfTimes folds spans by name. A span's self time is its duration minus
// the union of its children's intervals clipped to it, so overlapping or
// out-of-bounds children are never subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.Calls++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []span) int64 {
	type interval struct{ lo, hi int64 }
	var ivs []interval
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var sum int64
	for i := 0; i < len(ivs); {
		lo, hi := ivs[i].lo, ivs[i].hi
		for i++; i < len(ivs) && ivs[i].lo <= hi; i++ {
			hi = max(hi, ivs[i].hi)
		}
		sum += hi - lo
	}
	return sum
}

// writeSpans writes the spans as JSON lines, once, at the end of a run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
