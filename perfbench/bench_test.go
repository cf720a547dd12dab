package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of no samples should be NaN")
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
}

func TestSummarizeCountsBeyond(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	s = append(s, math.Inf(1)) // a failed request
	d := Summarize(s)
	if d.N != 201 || d.P50 != 101 || d.P99 != 199 {
		t.Fatalf("Summarize = %+v", d)
	}
	if d.Beyond50 != 100 || d.Beyond99 != 2 {
		t.Errorf("beyond counts = %d/%d, want 100/2", d.Beyond50, d.Beyond99)
	}
}

func TestPoissonScheduleIsSeededAndExact(t *testing.T) {
	a := PoissonSchedule(rand.New(rand.NewSource(7)), 40, 5*time.Second)
	b := PoissonSchedule(rand.New(rand.NewSource(7)), 40, 5*time.Second)
	c := PoissonSchedule(rand.New(rand.NewSource(8)), 40, 5*time.Second)
	if len(a) != 200 {
		t.Fatalf("got %d arrivals, want exactly rate·window = 200", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave a different schedule")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("schedule not sorted")
		}
		if a[i] < 0 || a[i] >= 5*time.Second {
			t.Fatalf("arrival %v outside the window", a[i])
		}
	}
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	// Arrivals are bursty: gaps are not all equal.
	gaps := map[time.Duration]bool{}
	for i := 1; i < len(a); i++ {
		gaps[a[i]-a[i-1]] = true
	}
	if len(gaps) < len(a)/2 {
		t.Error("schedule looks evenly spaced, not Poisson")
	}
}

func TestShotLatencyRunsFromSchedule(t *testing.T) {
	s := Shot{Sched: 10 * time.Millisecond, Sent: 14 * time.Millisecond, Done: 30 * time.Millisecond}
	if s.LagMs() != 4 || s.LatencyMs() != 20 {
		t.Errorf("lag %v latency %v, want 4 and 20", s.LagMs(), s.LatencyMs())
	}
	s.Failed = true
	if !math.IsInf(s.LatencyMs(), 1) {
		t.Error("a failed shot must be slower than any limit")
	}
}

func TestOpenLoopAccountsLatenessAndBacklog(t *testing.T) {
	offsets := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	shots, backlog := OpenLoop(offsets, 20*time.Millisecond, func(i int) bool {
		if i == 2 {
			time.Sleep(60 * time.Millisecond) // still running when the window ends
		} else {
			time.Sleep(2 * time.Millisecond)
		}
		return i == 1
	})
	if backlog != 1 {
		t.Errorf("backlog = %d, want 1", backlog)
	}
	for i, s := range shots {
		if s.Sent < s.Sched || s.Done < s.Sent {
			t.Errorf("shot %d times out of order: %+v", i, s)
		}
	}
	if !shots[1].Failed || shots[0].Failed {
		t.Error("failure flags not recorded per shot")
	}
	if shots[2].LatencyMs() < 60 {
		t.Errorf("slow shot latency %v < 60 ms", shots[2].LatencyMs())
	}
}

func TestClosedLoop(t *testing.T) {
	var calls atomic.Int64
	var sampled atomic.Int64
	rate, lat := ClosedLoop(2, 100*time.Millisecond, func() (bool, bool) {
		n := calls.Add(1)
		time.Sleep(5 * time.Millisecond)
		// Every tenth op fails; every op but the fifth of each ten is
		// sampled.
		if n%10 != 5 {
			sampled.Add(1)
		}
		return n%10 != 0, n%10 != 5
	})
	if int64(len(lat)) != sampled.Load() {
		t.Fatalf("%d latencies for %d sampled ops", len(lat), sampled.Load())
	}
	failed := 0
	for _, l := range lat {
		if math.IsInf(l, 1) {
			failed++
		} else if l < 5 {
			t.Errorf("op latency %v ms < the 5 ms it slept", l)
		}
	}
	if want := int(calls.Load() / 10); failed != want {
		t.Errorf("%d failed latencies, want %d", failed, want)
	}
	// Two clients of 5 ms ops complete at most 400 per second, 9/10 of
	// them successfully.
	if rate <= 0 || rate > 400 {
		t.Errorf("rate = %v, want in (0, 400]", rate)
	}
}

func TestLatencyLimitGate(t *testing.T) {
	p := HotPins{RateRPS: 12, P90LimitMs: 250}
	ok := Dist{N: 100, P50: 10, P90: 60}
	for _, c := range []struct {
		name        string
		pinned, sat Dist
		backlog     int
		wantFailure bool
	}{
		{"within the limit", ok, ok, 3, false},
		{"at the limit", Dist{P90: 250}, Dist{P90: 250}, 0, false},
		{"pinned p90 over", Dist{P90: 250.1}, ok, 0, true},
		{"saturation p90 over", ok, Dist{P90: 900}, 0, true},
		{"failed requests push p90 to +Inf", ok, Summarize([]float64{1, math.Inf(1)}), 0, true},
		{"no samples", Dist{P90: math.NaN()}, ok, 0, true},
		{"growing backlog", ok, ok, 4, true}, // 12 rps × 250 ms = 3 may be outstanding
	} {
		err := limitErr(c.pinned, c.sat, c.backlog, p)
		if (err != nil) != c.wantFailure {
			t.Errorf("%s: limitErr = %v, want failure %v", c.name, err, c.wantFailure)
		}
	}
}

func TestPinsFile(t *testing.T) {
	data, err := os.ReadFile("pins.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Pins
	if err := dec.Decode(&p); err != nil {
		t.Fatal(err)
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if p.HeldOutSeed == 0 {
		t.Error("no held-out seed")
	}
	for _, w := range []string{"serve-hot", "serve-fresh"} {
		if _, ok := p.Predictions[w]; !ok {
			t.Errorf("no predictions for %s", w)
		}
	}
	p.ServeHot.RateRPS = 0
	if p.validate() == nil {
		t.Error("a zero rate must be rejected")
	}
}

func TestTallyAndChecker(t *testing.T) {
	var tally Tally
	c := NewChecker(&tally)
	for i := 0; i < 4; i++ {
		tally.Attempt()
	}
	c.Observe("a", []byte("x"))
	c.Observe("a", []byte("x"))
	c.Observe("a", []byte("y")) // differs from the first reply
	c.Observe("b", []byte("z"))
	if tally.Mismatched != 1 {
		t.Fatalf("mismatched = %d, want 1", tally.Mismatched)
	}
	// The oracle disagrees with both replies that matched a's first one.
	if c.Settle("a", Digest([]byte("y"))) {
		t.Error("Settle should report the oracle mismatch")
	}
	if !c.Settle("b", Digest([]byte("z"))) || !c.Settle("never-seen", Digest(nil)) {
		t.Error("matching and unseen keys settle cleanly")
	}
	tally.Fail(errors.New("connection reset"))
	tally.Refuse(errors.New("status 503"))
	if got := tally.Errors(); got != 5 {
		t.Errorf("errors = %d, want 3 mismatched + 1 failed + 1 refused", got)
	}
	if got := tally.ErrorRatio(); got != 5.0/4 {
		t.Errorf("error ratio = %v", got)
	}
}

func TestUnattributedAndSelfTimes(t *testing.T) {
	r := NewRecorder()
	t0 := r.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	op := r.NewOp()
	r.AddOp(op, "direct/c17/csm", at(0), at(100))
	a := r.Add("engine.analyze", op, op, at(10), at(70))
	r.Add("graph.propagate", a, op, at(20), at(60))
	r.Add("sta.report_encode", op, op, at(70), at(90))
	spans := r.Spans()
	if got := UnattributedPct(spans); math.Abs(got-20) > 1e-9 {
		t.Errorf("unattributed = %v%%, want 20%%", got)
	}
	self := SelfTimes(spans)
	if st := self["engine.analyze"]; math.Abs(st.SelfMs-20) > 1e-9 || st.Count != 1 {
		t.Errorf("engine.analyze self = %+v, want 20 ms", st)
	}
	var nilRec *Recorder
	if nilRec.NewOp() != 0 || nilRec.Add("x", 0, 0, at(0), at(1)) != 0 || nilRec.Spans() != nil {
		t.Error("a nil recorder must be inert")
	}
}

func TestResultSchemaRoundTrip(t *testing.T) {
	values := map[string]float64{}
	for i, m := range endToEnd {
		values[m.Name] = float64(i) + 0.123456789
	}
	metrics, _, err := BuildResult(endToEnd, values, false)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(Result{Correct: true, Attempted: 12, Failed: 0, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(keys))
	}
	back, err := ParseResult(line)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if got := back.Metrics[m.Name]; got.Value != values[m.Name] || got.Unit != m.Unit {
			t.Errorf("%s round-tripped to %+v", m.Name, got)
		}
	}
	if _, err := ParseResult([]byte(`{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}`)); err == nil {
		t.Error("unknown keys must be rejected")
	}
	delete(values, "p50_ms")
	if _, _, err := BuildResult(endToEnd, values, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	if _, _, err := BuildResult(endToEnd, map[string]float64{"bogus": 1}, true); err == nil {
		t.Error("a metric outside the catalog must be an error")
	}
	layers := map[string]float64{perLayer[0].Name: 2.5}
	m, unreached, err := BuildResult(perLayer, layers, true)
	if err != nil || len(m) != len(perLayer) {
		t.Fatalf("per-layer metrics a run did not reach report 0: %v", err)
	}
	if len(unreached) != len(perLayer)-1 || unreached[0] != perLayer[1].Name || m[perLayer[1].Name].Value != 0 {
		t.Errorf("unreached = %v, want every per-layer name but %s, each reported as 0", unreached, perLayer[0].Name)
	}
}

// ParseResult strictly decodes a result line (unknown keys rejected), as
// a consumer of the benchmark would.
func ParseResult(line []byte) (*Result, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var r Result
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if r.Attempted < 1 {
		return nil, fmt.Errorf("attempted = %d, want ≥ 1", r.Attempted)
	}
	return &r, nil
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog in code and
// BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []MetricSpec, file []struct{ Name, Unit string }) {
		if len(code) != len(file) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(file))
		}
		want := map[string]string{}
		for _, m := range code {
			want[m.Name] = m.Unit
		}
		for _, m := range file {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s [%s], code has [%s]", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %s, code has %d", strings.Join(names, ","), len(workloads))
	}

	// At the benchmark's run length serve-hot's pinned window deals whole
	// decks, so every seed's window has the same request composition.
	data, err = os.ReadFile("pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var p Pins
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	deck := len(hotIdents())*hotNames + batchesPerDeck
	if n := int(math.Round(p.ServeHot.RateRPS * float64(spec.RunSeconds))); n%deck != 0 {
		t.Errorf("%g rps × %d s = %d arrivals, not a whole number of %d-draw decks", p.ServeHot.RateRPS, spec.RunSeconds, n, deck)
	}
}
