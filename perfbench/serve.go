package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"mcsm/internal/engine"
	"mcsm/internal/service"
)

// opHeader carries the client operation id of a traced-run request, so
// the handler span is recorded below the operation that caused it.
const opHeader = "X-Bench-Op"

// Served is the service under test: a real loopback HTTP listener in this
// process, driven by a client whose connection pool is capped at the
// workload's client count.
type Served struct {
	Srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

// Boot starts a server on eng. With a recorder, every request that
// carries an operation id is served into an httptest.ResponseRecorder
// first, so the handler span times ServeHTTP alone (no socket writes);
// the recorded reply is then copied to the connection.
func Boot(eng *engine.Engine, rec *Recorder, conns int) *Served {
	srv := service.NewWithEngine(service.Config{}, eng)
	var h http.Handler = srv.Handler()
	if rec != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
			if op == 0 {
				inner.ServeHTTP(w, r)
				return
			}
			rr := httptest.NewRecorder()
			start := time.Now()
			inner.ServeHTTP(rr, r)
			rec.Add("service.handler", op, op, start, time.Now())
			for k, v := range rr.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rr.Code)
			w.Write(rr.Body.Bytes())
		})
	}
	ts := httptest.NewServer(h)
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &Served{Srv: srv, ts: ts, client: &http.Client{Transport: transport}}
}

// Close stops the listener, idle connections and in-flight computations.
func (s *Served) Close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.Srv.Close()
}

// Reply is one completed request.
type Reply struct {
	Status int
	Body   []byte
}

// Post sends one POST; op tags it for the traced run (0 = untraced).
func (s *Served) Post(path string, body []byte, op int64) (Reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return Reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return Reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return Reply{}, err
	}
	r := Reply{Status: resp.StatusCode, Body: data}
	if r.Status != http.StatusOK {
		return r, fmt.Errorf("%s: status %d: %s", path, r.Status, bytes.TrimSpace(data))
	}
	return r, nil
}

// putSharing records the Server.Snapshot() deltas of the work-sharing
// tiers over a window: the share of lookups each tier answered, and the
// stage evaluations the engine ran.
func (o *Outcome) putSharing(a, b service.Metrics) {
	ratio := func(num, den int64) float64 {
		if den <= 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	gh, gm := b.GraphCache.Hits-a.GraphCache.Hits, b.GraphCache.Misses-a.GraphCache.Misses
	nh, nm := b.NetlistCache.Hits-a.NetlistCache.Hits, b.NetlistCache.Misses-a.NetlistCache.Misses
	items := (b.Requests.STA - a.Requests.STA) + (b.Batch.Items - a.Batch.Items)
	o.Extra["sharing"] = map[string]int64{"graph_hits": gh, "graph_misses": gm, "netlist_hits": nh,
		"netlist_misses": nm, "sta_items": items, "coalesced": b.STACoalesced - a.STACoalesced}
	o.Layer["service.warm_hit_ratio"] = ratio(gh, gh+gm)
	o.Layer["service.coalesced_ratio"] = ratio(b.STACoalesced-a.STACoalesced, items)
	o.Layer["service.batch_dedup_ratio"] = ratio(b.Batch.Deduped-a.Batch.Deduped, b.Batch.Items-a.Batch.Items)
	o.Layer["service.netlist_hit_ratio"] = ratio(nh, nh+nm)
	o.Layer["engine.stage_evals"] = float64(b.StageEvals - a.StageEvals)
}

// QueueSampler polls Server.Snapshot().Queued while a window runs and
// keeps the maximum (traced run only — Snapshot is not free).
type QueueSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  int64
}

// SampleQueue starts polling every 10 ms.
func SampleQueue(srv *service.Server) *QueueSampler {
	q := &QueueSampler{stop: make(chan struct{})}
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				if n := srv.Snapshot().Queued; n > q.max {
					q.max = n
				}
			}
		}
	}()
	return q
}

// Stop ends polling and returns the maximum queue depth seen.
func (q *QueueSampler) Stop() int64 {
	close(q.stop)
	q.wg.Wait()
	return q.max
}

// stageEvalP50Us reads the engine's stage-evaluation histogram median
// (a √2-bucket upper bound: a per-layer indicator, not a client latency).
func stageEvalP50Us(eng *engine.Engine) float64 {
	return eng.StageHist().Quantile(0.5) * 1e6
}
