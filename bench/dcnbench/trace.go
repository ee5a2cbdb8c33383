package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the enclosing span's ID (0 for a root).
// Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Req    int            `json:"req"`
	Name   string         `json:"name"`
	Start  int64          `json:"start"`
	End    int64          `json:"end"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; writeJSONL writes them out when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil check
// per span site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records one finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(parent, req int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

// named returns the recorded spans called name, in recording order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in milliseconds of the spans called
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.ms())
	}
	return out
}

// attrs returns the float64 attribute key of the spans called name that
// carry it.
func (t *tracer) attrs(name, key string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		if v, ok := s.Attrs[key].(float64); ok {
			out = append(out, v)
		}
	}
	return out
}

func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per span name, the median self time in milliseconds
// (the span's duration minus the part of it its children cover) and the
// span count.
func selfTimes(spans []span) map[string][2]float64 {
	kids := children(spans)
	self := map[string][]float64{}
	for _, s := range spans {
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-covered(s, kids[s.ID]))/1e6)
	}
	out := make(map[string][2]float64, len(self))
	for name, xs := range self {
		out[name] = [2]float64{median(xs), float64(len(xs))}
	}
	return out
}

// children maps each span ID to the spans whose parent it is.
func children(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// covered returns how many nanoseconds of parent the union of children
// covers.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// coverage returns, for each timed root span called root, the share (in
// percent) of it that its children cover.
func (t *tracer) coverage(root string) []float64 {
	t.mu.Lock()
	kids := children(t.spans)
	t.mu.Unlock()
	var out []float64
	for _, s := range t.named(root) {
		if s.Attrs["phase"] != "timed" || s.End <= s.Start {
			continue
		}
		out = append(out, 100*float64(covered(s, kids[s.ID]))/float64(s.End-s.Start))
	}
	return out
}

// selfTimeLines formats the self-time table of a traced run.
func (t *tracer) selfTimeLines() []string {
	t.mu.Lock()
	st := selfTimes(t.spans)
	t.mu.Unlock()
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := []string{"self time per span (median ms, count):"}
	for _, name := range names {
		lines = append(lines, fmt.Sprintf("  %-22s %12.4f %6.0f", name, st[name][0], st[name][1]))
	}
	return lines
}
