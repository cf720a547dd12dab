package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"mcsm/internal/obs"
)

// Span is one timed call of the traced run: a public call the benchmark
// made (or a phase the engine's own obs span tree reported inside it).
// Times are nanoseconds since the recorder started. Op is the id of the
// workload operation (request or analysis) the span belongs to.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = an operation root
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Evaluated carries the stage count the engine labeled a
	// propagation with.
	Evaluated int64 `json:"evaluated,omitempty"`
}

// Dur is the span's duration in milliseconds.
func (s Span) Dur() float64 { return float64(s.End-s.Start) / 1e6 }

// Recorder keeps the traced run's spans in memory; they are written out
// once at exit. A nil *Recorder is the untraced run: every method is a
// no-op returning zero ids, so instrumented code calls unconditionally.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

func (r *Recorder) offset(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// Add records a completed span and returns its id.
func (r *Recorder) Add(name string, parent, op int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	return r.push(Span{Parent: parent, Op: op, Name: name, Start: r.offset(start), End: r.offset(end)})
}

func (r *Recorder) push(s Span) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	return s.ID
}

// NewOp reserves the id of an operation root whose span is added later
// (with AddOp), so its children can name it as parent while it runs.
func (r *Recorder) NewOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// AddOp records the root span of an operation reserved with NewOp.
func (r *Recorder) AddOp(id int64, name string, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: id, Op: id, Name: name, Start: r.offset(start), End: r.offset(end)})
}

// timeMs runs f and returns its wall time in milliseconds.
func timeMs(f func()) float64 {
	start := time.Now()
	f()
	return ms(time.Since(start))
}

// pairedOverheadPct measures tracing overhead: n pairs of the same
// operation run untraced and traced, alternating which goes first, as the
// median traced/untraced time ratio in percent over 1.
func pairedOverheadPct(n int, run func(i int, traced bool) float64) float64 {
	var ratios []float64
	for i := 0; i < n; i++ {
		first := i%2 == 1
		a := run(i, first)
		b := run(i, !first)
		if first {
			a, b = b, a
		}
		ratios = append(ratios, b/a)
	}
	return 100 * (Median(ratios) - 1)
}

// Time runs f as a child span of parent.
func (r *Recorder) Time(name string, parent, op int64, f func()) {
	start := time.Now()
	f()
	r.Add(name, parent, op, start, time.Now())
}

// obsNames maps the engine/service obs span names onto benchmark layer
// names; unknown names keep an "obs." prefix.
var obsNames = map[string]string{
	"workload":   "netlist.parse_map",
	"plan":       "engine.plan",
	"nldm_pass":  "nldm.pass",
	"csm_refine": "engine.csm_refine",
	"models":     "engine.models",
	"model":      "engine.model",
	"build":      "graph.build",
	"propagate":  "graph.propagate",
	"level":      "graph.level",
}

// Import attaches a completed obs span tree below parent. obs trees carry
// durations but no start times, so each imported child is placed at its
// parent's start (children of one obs span may overlap — the engine fans
// model loads out in parallel). The tree's root itself is imported too
// unless skipRoot is set, in which case its children hang off parent.
func (r *Recorder) Import(node *obs.SpanNode, parent, op int64, start time.Time, skipRoot bool) {
	if r == nil || node == nil {
		return
	}
	if skipRoot {
		for _, c := range node.Children {
			r.Import(c, parent, op, start, false)
		}
		return
	}
	name, ok := obsNames[node.Name]
	if !ok {
		name = "obs." + node.Name
	}
	end := start.Add(time.Duration(node.Ms * float64(time.Millisecond)))
	s := Span{Parent: parent, Op: op, Name: name, Start: r.offset(start), End: r.offset(end)}
	s.Evaluated, _ = strconv.ParseInt(node.Labels["evaluated"], 10, 64)
	id := r.push(s)
	for _, c := range node.Children {
		r.Import(c, id, op, start, false)
	}
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfStat aggregates one span name: call count, total and self time
// (duration minus the summed durations of its direct children, floored
// at zero where parallel children overlap their parent).
type SelfStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// SelfTimes derives per-name self-time statistics.
func SelfTimes(spans []Span) map[string]SelfStat {
	childSum := map[int64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.Dur()
		}
	}
	out := map[string]SelfStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalMs += s.Dur()
		if self := s.Dur() - childSum[s.ID]; self > 0 {
			st.SelfMs += self
		}
		out[s.Name] = st
	}
	return out
}

// UnattributedPct is the share of operation wall time not covered by
// any timed call inside it: Σ over operation roots of (root − its direct
// children) over Σ roots, in percent.
func UnattributedPct(spans []Span) float64 {
	childSum := map[int64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.Dur()
		}
	}
	var wall, un float64
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		wall += s.Dur()
		if self := s.Dur() - childSum[s.ID]; self > 0 {
			un += self
		}
	}
	if wall == 0 {
		return 0
	}
	return 100 * un / wall
}

// WriteJSONL writes one span per line, ordered by start time.
func WriteJSONL(path string, spans []Span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
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
