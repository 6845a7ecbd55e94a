package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer keeps the spans of one workload run in memory until the run
// ends. Spans are opened and closed around calls into the program from
// the benchmark's own code, on one goroutine, so an open-span stack
// gives every span its parent. A nil *tracer records nothing.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
	open  []int
}

// span is one timed call into a layer. Times are seconds since the run
// started; Parent is -1 for a root span.
type span struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Run: t.runID, ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("e2ebench: span %d closed out of order", id))
	}
	t.open = t.open[:n-1]
	t.spans[id].End = time.Since(t.t0).Seconds()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// layers sums each span name's total and self time. A span's self time
// is its duration minus the part of it its child spans cover.
func (t *tracer) layers() []layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, reach := 0.0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// write stores the run's spans, layer table and provenance as JSON in
// dir and returns the file's path.
func (t *tracer) write(dir string, prov provenance) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.runID+".json")
	data, err := json.MarshalIndent(struct {
		Run        string      `json:"run"`
		Provenance provenance  `json:"provenance"`
		Layers     []layerTime `json:"layers"`
		Spans      []span      `json:"spans"`
	}{t.runID, prov, t.layers(), t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
