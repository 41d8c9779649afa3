//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the
// simulator's layers. Spans stay in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	name       string
	start, end time.Duration // since t0
	parent     int           // index into spans; -1 for a root
	op         int64         // spans of one operation share it
	lane       int           // connection or caller the operation ran on
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is a handle on an open span. The zero value (and any span of a
// nil tracer) is inert.
type span struct {
	t    *tracer
	id   int
	op   int64
	lane int
}

// root opens a span with no parent.
func (t *tracer) root(name string, op int64, lane int) span {
	if t == nil {
		return span{}
	}
	return span{t: t, id: t.open(name, -1, op, lane), op: op, lane: lane}
}

// child opens a span nested in s, for the same operation and lane.
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	return span{t: s.t, id: s.t.open(name, s.id, s.op, s.lane), op: s.op, lane: s.lane}
}

func (t *tracer) open(name string, parent int, op int64, lane int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, start: now, end: -1, parent: parent, op: op, lane: lane})
	return len(t.spans) - 1
}

// end closes the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0)
	s.t.mu.Lock()
	s.t.spans[s.id].end = now
	s.t.mu.Unlock()
}

// layerOf maps a span name to its layer: the text before the first dot
// ("core.FigureCSV fig7" -> "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// copySpans copies the recorded spans. Spans still open (a call that
// failed before its end) keep end < 0 and are skipped by every reader.
func (t *tracer) copySpans() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// layerRow is one line of the self-time table.
type layerRow struct {
	layer string
	count int
	self  time.Duration
}

// selfTimes returns each layer's self time — its spans' durations minus
// the part their child spans cover — over the operations keep selects,
// and the summed duration of their root spans, which the self times add
// up to.
func (t *tracer) selfTimes(keep func(op int64) bool) (rows []layerRow, rootTotal time.Duration) {
	spans := t.copySpans()
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.end >= 0 && s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	byLayer := map[string]*layerRow{}
	for i, s := range spans {
		if s.end < 0 || !keep(s.op) {
			continue
		}
		l := layerOf(s.name)
		r := byLayer[l]
		if r == nil {
			r = &layerRow{layer: l}
			byLayer[l] = r
		}
		r.count++
		r.self += s.end - s.start - covered[i]
		if s.parent < 0 {
			rootTotal += s.end - s.start
		}
	}
	for _, r := range byLayer {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows, rootTotal
}

// printSelfTimes writes the per-layer self-time table of the operations
// keep selects.
func (t *tracer) printSelfTimes(w io.Writer, title string, wall time.Duration, keep func(op int64) bool) {
	rows, rootTotal := t.selfTimes(keep)
	fmt.Fprintf(w, "%s: wall %.3f s, root spans %.3f s\n", title, wall.Seconds(), rootTotal.Seconds())
	fmt.Fprintf(w, "  %-10s %9s %12s %7s\n", "layer", "spans", "self_ms", "share")
	for _, r := range rows {
		share := 0.0
		if rootTotal > 0 {
			share = float64(r.self) / float64(rootTotal)
		}
		fmt.Fprintf(w, "  %-10s %9d %12.3f %6.1f%%\n", r.layer, r.count, float64(r.self)/1e6, 100*share)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file: one
// thread row per lane, the op id and parent span name in args.
func (t *tracer) writeChrome(path string) error {
	spans := t.copySpans()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		args := map[string]any{"op": s.op}
		if s.parent >= 0 {
			args["parent"] = spans[s.parent].name
		}
		ev := chromeEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.lane, Args: args,
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
