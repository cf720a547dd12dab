package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"mcsm/internal/engine"
	"mcsm/internal/service"
)

// serve-hot: an open loop of seeded Poisson arrivals over a fixed pool of
// analyses — c17 csm (the golden request) and c432/c880 under every
// backend — posted as single /v1/sta requests and /v1/sta:batch requests
// with duplicate items, under rotating display names. After warm-up every
// analysis is answered by the warm-graph, coalescing and batch-dedup
// tiers, so the service layer and the report rebuild are what it times.
// The measured window runs at the pinned rate (latency quantiles). The
// unloaded per-backend latency is sampled before it, after it and at the
// end; the saturation rate — the highest rate served with a bounded
// backlog — in one half before the window and one after, so a burst of
// host contention lands on a minority of each measurement. Two batches
// per deck keep the batch posts a minority of the load, so most single
// requests meet an idle service.

// HotPins are serve-hot's pinned rate and latency limit (pins.json).
type HotPins struct {
	RateRPS    float64 `json:"rate_rps"`
	P90LimitMs float64 `json:"p90_limit_ms"`
}

// The shape of serve-hot's load.
const (
	batchItems     = 8                // items per /v1/sta:batch post, duplicates included
	batchesPerDeck = 2                // batch posts dealt with each deck of single requests
	hotNames       = 4                // display names each pool identity rotates through
	unloadedReps   = 15               // unloaded rounds over the pool, at each of three points in the run
	saturation     = 10 * time.Second // closed-loop time, in two halves
)

// hotIdents is the serve-hot pool.
func hotIdents() []ident {
	ids := []ident{{"c17", engine.BackendCSM}}
	for _, c := range []string{"c432", "c880"} {
		for _, be := range backends {
			ids = append(ids, ident{c, be})
		}
	}
	return ids
}

// rotName is the k-th display name of a circuit (k = 0 is the golden name).
func rotName(base string, k int) string {
	if k == 0 {
		return base
	}
	return fmt.Sprintf("%s-r%d", base, k)
}

// hotDraw is one arrival: a single request (one key) or a batch. A key
// indexes (identity, display name) pairs.
type hotDraw struct {
	batch bool
	keys  []int
}

type hotRun struct {
	s      *Served
	rec    *Recorder
	tally  *Tally
	check  *Checker
	ids    []ident
	keys   []string // key → checker key "circuit/backend/name"
	bodies [][]byte // key → marshaled single STARequest

	mu      sync.Mutex
	singles map[int64]int // traced pinned window: single-request op → pool identity
}

// mix deals the request stream in shuffled decks: each deck holds every
// key once as a single request plus batchesPerDeck batches. A batch
// carries every pool identity once, each under a drawn display name, and
// is padded to batchItems with duplicates of its own items — so all
// batches cost alike, every window sees the same composition, and the
// seed decides the order, the names and the duplicates.
type mix struct {
	h    *hotRun
	rng  *rand.Rand
	mu   sync.Mutex
	deck []hotDraw
}

func (m *mix) next() hotDraw {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.deck) == 0 {
		m.deal()
	}
	d := m.deck[0]
	m.deck = m.deck[1:]
	return d
}

func (m *mix) deal() {
	h := m.h
	for _, k := range m.rng.Perm(len(h.bodies)) {
		m.deck = append(m.deck, hotDraw{keys: []int{k}})
	}
	for b := 0; b < batchesPerDeck; b++ {
		keys := make([]int, 0, batchItems)
		for i := range h.ids {
			keys = append(keys, i*hotNames+m.rng.Intn(hotNames))
		}
		for distinct := len(keys); len(keys) < batchItems; {
			keys = append(keys, keys[m.rng.Intn(distinct)])
		}
		m.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		m.deck = append(m.deck, hotDraw{batch: true, keys: keys})
	}
	m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
}

// send posts one draw and byte-checks the reply; it reports whether the
// request failed. Tracing records the client operation and its handler.
func (h *hotRun) send(d hotDraw, traced bool) bool {
	h.tally.Attempt()
	path, body := "/v1/sta", h.bodies[d.keys[0]]
	name := "client/sta"
	if d.batch {
		var buf bytes.Buffer
		buf.WriteString(`{"items":[`)
		for i, k := range d.keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.Write(h.bodies[k])
		}
		buf.WriteString(`]}`)
		path, body, name = "/v1/sta:batch", buf.Bytes(), "client/batch"
	}
	var op int64
	if traced {
		op = h.rec.NewOp()
	}
	start := time.Now()
	r, err := h.s.Post(path, body, op)
	end := time.Now()
	if traced {
		h.rec.AddOp(op, name, start, end)
		if !d.batch {
			h.mu.Lock()
			if h.singles != nil {
				h.singles[op] = d.keys[0] / hotNames
			}
			h.mu.Unlock()
		}
	}
	switch {
	case r.Status == 0:
		h.tally.Fail(err)
		return true
	case err != nil:
		h.tally.Refuse(err)
		return true
	}
	if !d.batch {
		h.check.Observe(h.keys[d.keys[0]], r.Body)
		return false
	}
	var reply service.BatchSTAReply
	if err := json.Unmarshal(r.Body, &reply); err != nil || len(reply.Items) != len(d.keys) {
		h.tally.Refuse(fmt.Errorf("batch reply: %v (%d items)", err, len(reply.Items)))
		return true
	}
	failed := false
	for i, it := range reply.Items {
		if it.Status != 200 {
			h.tally.Refuse(fmt.Errorf("batch item %d: status %d: %s", i, it.Status, it.Error))
			failed = true
			continue
		}
		h.check.Observe(h.keys[d.keys[i]], append([]byte(it.Report), '\n'))
	}
	return failed
}

// window runs one open-loop window at rate and returns its shots, the
// backlog at the window's end, and the draws it fired.
func (h *hotRun) window(m *mix, rate float64, d time.Duration, traced bool) ([]Shot, int, []hotDraw) {
	offsets := PoissonSchedule(m.rng, rate, d)
	draws := make([]hotDraw, len(offsets))
	for i := range draws {
		draws[i] = m.next()
	}
	shots, backlog := OpenLoop(offsets, d, func(i int) bool { return h.send(draws[i], traced) })
	return shots, backlog, draws
}

// ServeHot runs the serve-hot workload.
func ServeHot(env *Env, o Options) (*Outcome, error) {
	out := newOutcome()
	pins := o.Pins.ServeHot
	h := &hotRun{rec: o.Rec, tally: &out.Tally, ids: hotIdents()}
	h.check = NewChecker(h.tally)
	for _, id := range h.ids {
		for k := 0; k < hotNames; k++ {
			body, err := json.Marshal(env.Request(id, rotName(id.Circuit, k)))
			if err != nil {
				return nil, err
			}
			h.keys = append(h.keys, id.String()+"/"+rotName(id.Circuit, k))
			h.bodies = append(h.bodies, body)
		}
	}
	start := time.Now()
	dir, eng, err := setupEngine(env, out)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := tables(env, eng, out); err != nil {
		return nil, err
	}
	h.s = Boot(eng, o.Rec, o.Clients)
	defer h.s.Close()
	out.MaxInFlight = h.s.Srv.Snapshot().MaxInFlight
	for i := range h.ids {
		if h.send(hotDraw{keys: []int{i * hotNames}}, false) {
			return nil, fmt.Errorf("serve-hot warm-up: %v", h.tally.Notes)
		}
	}
	out.E2E["setup_s"] = time.Since(start).Seconds()
	unloaded := make([][]float64, len(h.ids))
	h.unloaded(unloaded)

	// Max rate: the mix sent back to back by one client per connection —
	// the highest rate served with the backlog bounded by the client
	// count. Its single requests' p90 must meet the limit, as the pinned
	// window's must; otherwise the run fails. It has a stream of its own,
	// so the pinned window deals whole decks.
	sm := &mix{h: h, rng: rand.New(rand.NewSource(o.Seed ^ 0x5a7))}
	var rates, satLat []float64
	saturate := func() {
		r, lat := ClosedLoop(o.Clients, saturation/2, func() (bool, bool) {
			d := sm.next()
			return !h.send(d, false), !d.batch
		})
		rates, satLat = append(rates, r), append(satLat, lat...)
	}
	saturate()

	// Pinned-rate window.
	traced := o.Rec != nil
	m := &mix{h: h, rng: rand.New(rand.NewSource(o.Seed))}
	var q *QueueSampler
	handler := map[int][]float64{} // traced: handler ms of single requests by pool identity
	before := h.s.Srv.Snapshot()
	if traced {
		q = SampleQueue(h.s.Srv)
		h.singles = map[int64]int{}
	}
	shots, backlog, draws := h.window(m, pins.RateRPS, time.Duration(o.Seconds)*time.Second, traced)
	spans := o.Rec.Spans()
	if traced {
		h.mu.Lock()
		singles := h.singles
		h.singles = nil
		h.mu.Unlock()
		for _, s := range spans {
			if i, ok := singles[s.Parent]; ok && s.Name == "service.handler" {
				handler[i] = append(handler[i], s.Dur())
			}
		}
		out.Layer["service.queued_max"] = float64(q.Stop())
		out.putSharing(before, h.s.Srv.Snapshot())
	}
	// Latency quantiles are over the single requests; batch posts are a
	// request class of their own (reported beside them), and mixing the
	// two would put p50 and p90 on the edges between cost classes.
	var single, batch, lag []float64
	completed := 0
	for i, s := range shots {
		lag = append(lag, s.LagMs())
		if !s.Failed {
			completed++
		}
		if draws[i].batch {
			batch = append(batch, s.LatencyMs())
		} else {
			single = append(single, s.LatencyMs())
		}
	}
	out.Latency = Summarize(single)
	out.putLatency()
	out.Extra["batch_latency_ms"] = Summarize(batch)
	out.Extra["backlog_at_window_end"] = backlog
	out.E2E["throughput_rps"] = float64(completed) / servedSeconds(shots)

	h.unloaded(unloaded)
	if traced {
		out.Layer["loadgen.lag_ms.p99"] = Quantile(sortedCopy(lag), 0.99)
	}

	saturate()
	sat := Summarize(satLat)
	out.E2E["max_rate_rps"] = mean(rates) // the halves are equally long
	// Per backend, unloaded: the pool served from the warm tier one
	// request at a time — the sum over the backend's circuits of each
	// identity's median latency, over rounds taken before the window,
	// after it and after saturation, so a burst of host contention lands
	// on a minority of each identity's samples.
	h.unloaded(unloaded)
	for i, id := range h.ids {
		out.E2E[string(id.Backend)+"_ms"] += Median(unloaded[i])
	}
	out.Extra["saturation_latency_ms"] = sat
	out.Extra["p90_limit_ms"] = pins.P90LimitMs
	if err := limitErr(out.Latency, sat, backlog, pins); err != nil {
		return nil, err
	}
	out.E2E["heap_mb"] = heapMB()
	if traced {
		out.Layer["engine.stage_eval_us.p50"] = stageEvalP50Us(eng)
		// Tracing overhead on warm single requests.
		out.Layer["trace.overhead_pct"] = pairedOverheadPct(40, func(i int, traced bool) float64 {
			return timeMs(func() { h.send(hotDraw{keys: []int{i % len(h.bodies)}}, traced) })
		})
	}
	h.s.Close()

	// Oracle: the direct engine computes every pool identity; golden
	// identities must also equal their committed fixtures. The traced run
	// records these direct analyses too, so the engine, graph and netlist
	// layers the served pool rests on are measured here.
	var build, encode, size, self []float64
	for i, id := range h.ids {
		d, err := directOp(env, eng, env.Request(id, id.Circuit), o.Rec, "direct/"+id.String())
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", id, err)
		}
		if want, ok := env.Goldens[id]; ok && Digest(d.Body) != want {
			h.tally.Mismatch(id.String() + " direct engine vs testdata/golden")
		}
		for k := 0; k < hotNames; k++ {
			body, err := d.Encode(rotName(id.Circuit, k))
			if err != nil {
				return nil, err
			}
			h.check.Settle(h.keys[i*hotNames+k], Digest(body))
		}
		if traced {
			b, e := reportCost(d, id.Circuit)
			build, encode, size = append(build, b), append(encode, e), append(size, float64(len(d.Body)))
			if hs := handler[i]; len(hs) > 0 {
				self = append(self, Median(hs)-b-e)
			}
		}
	}
	if traced {
		// The report layer of the served pool: every identity's report
		// rebuilt and encoded undisturbed (the oracle spans hold the csm
		// ones only).
		out.Layer["sta.report_build_ms"] = mean(build)
		out.Layer["sta.report_encode_ms"] = mean(encode)
		out.Layer["sta.report_bytes"] = mean(size)
		out.Layer["service.self_ms"] = mean(self)
		if err := reloadModels(env, dir, o.Workers, out); err != nil {
			return nil, err
		}
		out.serviceSpans(spans)
		out.layerSpans(o.Rec.Spans())
	}
	return out, nil
}

// unloaded sends unloadedReps rounds over the pool one request at a time,
// appending each identity's latencies to into. Rounds visit every
// identity in turn, under rotating display names.
func (h *hotRun) unloaded(into [][]float64) {
	for r := 0; r < unloadedReps; r++ {
		for i := range h.ids {
			key := i*hotNames + r%hotNames
			into[i] = append(into[i], timeMs(func() { h.send(hotDraw{keys: []int{key}}, false) }))
		}
	}
}

// limitErr checks serve-hot's pinned latency limit. The single requests'
// p90 must meet it at the pinned rate and at saturation, and the pinned
// window may end with no more requests outstanding than arrive within one
// limit interval — more means the backlog grows faster than the service
// clears it. A miss means max_rate_rps is not a rate served within the
// limit, so the run fails instead of reporting it.
func limitErr(pinned, sat Dist, backlog int, p HotPins) error {
	maxBacklog := p.RateRPS * p.P90LimitMs / 1000
	switch {
	case !(pinned.P90 <= p.P90LimitMs):
		return fmt.Errorf("latency limit: p90 %.1f ms at %g rps exceeds %g ms", pinned.P90, p.RateRPS, p.P90LimitMs)
	case !(sat.P90 <= p.P90LimitMs):
		return fmt.Errorf("latency limit: p90 %.1f ms at saturation exceeds %g ms", sat.P90, p.P90LimitMs)
	case float64(backlog) > maxBacklog:
		return fmt.Errorf("latency limit: %d requests outstanding at the window's end, more than the %.0f that arrive in %g ms", backlog, maxBacklog, p.P90LimitMs)
	}
	return nil
}

// reportCost times TimingGraph.Report and the canonical encode of a
// direct analysis (median of five each, ms).
func reportCost(d *Direct, name string) (build, encode float64) {
	var b, e []float64
	for i := 0; i < 5; i++ {
		b = append(b, timeMs(func() { d.Graph.Report() }))
		e = append(e, timeMs(func() { d.Encode(name) }))
	}
	return Median(b), Median(e)
}
