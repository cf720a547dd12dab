package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"mcsm/internal/cliutil"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/netlist"
	"mcsm/internal/service"
)

// serve-fresh: a closed loop of one client per core. Each client cycles
// through a fresh csm analysis of a small generated circuit, a fresh nldm
// analysis of a c432-scale one, a fresh hybrid analysis of a mid-size one
// (posted as .bench text whose nets carry a per-request prefix, so every
// request is a new analysis identity and the warm tier is bypassed; the
// seed orders each client's walk through a fixed pool of circuits), and
// one ECO round of edits on the client's own c432 session. Latency is
// per cycle: the four requests are four cost classes, and a quantile over
// all of them pooled would sit on the edge between two classes.

// The shape of serve-fresh's load.
const (
	freshPool    = 8    // generated circuits per backend (generator seeds 1..freshPool)
	ecoPool      = 8    // distinct ECO rounds the script walks through
	ecoMaxCone   = 40   // most stages one edit may re-time
	ecoRoundsMax = 1000 // rounds scripted, more than a client completes
)

// freshSizes sizes each backend's generated circuits.
var freshSizes = map[engine.BackendKind]netlist.GenSpec{
	engine.BackendCSM:    {Gates: 6, Depth: 4, MaxFanin: 3, Inputs: 4},
	engine.BackendNLDM:   {Gates: 160, Depth: 17, MaxFanin: 4, Inputs: 36},
	engine.BackendHybrid: {Gates: 64, Depth: 10, MaxFanin: 4, Inputs: 14},
}

// freshRec is one completed fresh analysis, kept small: the request is
// rebuilt from its pool circuit and tag for the post-window oracle.
type freshRec struct {
	base   int    // pool circuit index
	tag    string // net prefix and display name, unique per request
	be     engine.BackendKind
	digest [32]byte
}

type freshRun struct {
	s     *Served
	rec   *Recorder
	tally *Tally
	eco   [][]graph.Edit // shared ECO round sequence

	mu     sync.Mutex
	fresh  []freshRec
	ecoD   map[int]map[int][32]byte // client → round → digest
	lat    map[string][]float64     // closed loop: request kind → latency ms
	cycles []float64                // closed loop: latency ms of each completed cycle
}

// freshRequest builds one fresh analysis: pool circuit base of the
// backend's size class (generator seeds 1..freshPool, the same in every
// run, so every run draws the same cost mix) with every net renamed under
// tag — new source text, hence an analysis identity the server has never
// seen.
func freshRequest(base int, tag string, be engine.BackendKind) (service.STARequest, error) {
	spec := freshSizes[be]
	spec.Seed = int64(base + 1)
	circ, err := spec.Generate()
	if err != nil {
		return service.STARequest{}, err
	}
	rename := func(nets []string) {
		for i := range nets {
			nets[i] = tag + "_" + nets[i]
		}
	}
	rename(circ.Inputs)
	rename(circ.Outputs)
	for i := range circ.Gates {
		circ.Gates[i].Output = tag + "_" + circ.Gates[i].Output
		rename(circ.Gates[i].Inputs)
	}
	var buf bytes.Buffer
	if err := circ.WriteBench(&buf); err != nil {
		return service.STARequest{}, err
	}
	return withBackend(benchRequest(tag, buf.String()), be, tag), nil
}

// ecoScript builds the shared ECO round sequence on the c432 session.
// Each round toggles NAND2↔NOR2 on one instance and toggles one net's
// load between two values. The rounds come from a fixed pool of ecoPool
// (distinct instances and nets, the same in every run) walked in an order
// the seed shuffles, so every run re-times the same cost mix and every
// visit changes the graph. Only edits whose re-timed cone stays within
// ecoMaxCone stages are drawn — a swap re-times its own cone and those of
// the stages feeding its inputs (their load changed), a load change the
// cone of the stage that sets the net — so a round costs a bounded slice
// of the graph, not a whole re-analysis.
func ecoScript(env *Env, seed int64) ([][]graph.Edit, error) {
	r, err := env.resolve(env.Request(ident{"c432", engine.BackendCSM}, "c432"))
	if err != nil {
		return nil, err
	}
	nl := r.wl.NL
	source := map[string]int{} // net → index of the stage that sets it
	for i, inst := range nl.Instances {
		source[inst.Output] = i
	}
	fanouts := nl.Fanouts()
	cone := func(roots ...int) int {
		seen := map[int]bool{}
		stack := roots
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[i] {
				continue
			}
			seen[i] = true
			for _, fo := range fanouts[nl.Instances[i].Output] {
				stack = append(stack, fo[0])
			}
		}
		return len(seen)
	}
	types := map[string]string{}
	var swappable, nets []string
	for i, inst := range nl.Instances {
		if cone(i) <= ecoMaxCone {
			nets = append(nets, inst.Output)
		}
		if inst.Type != "NAND2" && inst.Type != "NOR2" {
			continue
		}
		roots := []int{i}
		for _, in := range inst.Inputs {
			if d, ok := source[in]; ok {
				roots = append(roots, d)
			}
		}
		if cone(roots...) <= ecoMaxCone {
			swappable = append(swappable, inst.Name)
			types[inst.Name] = inst.Type
		}
	}
	if len(swappable) < ecoPool || len(nets) < ecoPool {
		return nil, fmt.Errorf("eco script: fewer than %d edits with a cone of at most %d stages", ecoPool, ecoMaxCone)
	}
	sort.Strings(swappable)
	sort.Strings(nets)
	pool := rand.New(rand.NewSource(0xec0))
	insts, loads := pool.Perm(len(swappable))[:ecoPool], pool.Perm(len(nets))[:ecoPool]
	caps := make([][2]int, ecoPool) // the two loads each pool net toggles between, fF
	for i := range caps {
		caps[i] = [2]int{1 + pool.Intn(4), 5 + pool.Intn(4)}
	}
	order := rand.New(rand.NewSource(seed ^ 0xec0)).Perm(ecoPool)
	rounds := make([][]graph.Edit, ecoRoundsMax)
	for i := range rounds {
		p := order[i%ecoPool]
		name := swappable[insts[p]]
		if types[name] == "NAND2" {
			types[name] = "NOR2"
		} else {
			types[name] = "NAND2"
		}
		rounds[i] = []graph.Edit{
			{Op: "swap_cell", Inst: name, Type: types[name]},
			{Op: "set_load", Net: nets[loads[p]], Cap: fmt.Sprintf("%df", caps[p][(i/ecoPool)%2])},
		}
	}
	return rounds, nil
}

// post sends one request as operation kind, timing it on the client. It
// returns the reply and its latency in ms (+Inf when the request failed).
func (f *freshRun) post(kind, path string, body []byte, traced bool) (Reply, float64) {
	f.tally.Attempt()
	var op int64
	if traced {
		op = f.rec.NewOp()
	}
	start := time.Now()
	r, err := f.s.Post(path, body, op)
	end := time.Now()
	f.rec.AddOp(op, "client/"+kind, start, end)
	switch {
	case r.Status == 0:
		f.tally.Fail(err)
		return r, math.Inf(1)
	case err != nil:
		f.tally.Refuse(err)
		return r, math.Inf(1)
	}
	return r, ms(end.Sub(start))
}

// sta posts one fresh analysis, records it for the oracle and returns its
// latency.
func (f *freshRun) sta(base int, tag string, be engine.BackendKind, traced bool) (float64, error) {
	req, err := freshRequest(base, tag, be)
	if err != nil {
		return 0, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	r, lat := f.post("fresh/"+string(be), "/v1/sta", body, traced)
	if math.IsInf(lat, 1) {
		return lat, nil
	}
	f.mu.Lock()
	f.fresh = append(f.fresh, freshRec{base: base, tag: tag, be: be, digest: Digest(r.Body)})
	f.mu.Unlock()
	return lat, nil
}

// ecoRound posts round r of the shared script to the client's session and
// returns its latency.
func (f *freshRun) ecoRound(client, round int, traced bool) (float64, error) {
	body, err := json.Marshal(service.EcoRequest{Session: sessionID(client), Edits: f.eco[round]})
	if err != nil {
		return 0, err
	}
	r, lat := f.post("eco", "/v1/eco", body, traced)
	if math.IsInf(lat, 1) {
		return lat, nil
	}
	f.mu.Lock()
	f.ecoD[client][round] = Digest(r.Body)
	f.mu.Unlock()
	return lat, nil
}

func sessionID(client int) string { return fmt.Sprintf("bench-%d", client) }

// ServeFresh runs the serve-fresh workload.
func ServeFresh(env *Env, o Options) (*Outcome, error) {
	out := newOutcome()
	f := &freshRun{rec: o.Rec, tally: &out.Tally, ecoD: map[int]map[int][32]byte{},
		lat: map[string][]float64{}}
	var err error
	if f.eco, err = ecoScript(env, o.Seed); err != nil {
		return nil, err
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
	f.s = Boot(eng, o.Rec, o.Clients)
	defer f.s.Close()
	out.MaxInFlight = f.s.Srv.Snapshot().MaxInFlight

	// One c432 csm session per client, created concurrently.
	errs := make([]error, o.Clients)
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		f.ecoD[c] = map[int][32]byte{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body, err := json.Marshal(service.SessionRequest{STARequest: env.Request(ident{"c432", engine.BackendCSM}, "c432"), Session: sessionID(c)})
			if err == nil {
				_, err = f.s.Post("/v1/session", body, 0)
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
	}
	out.E2E["setup_s"] = time.Since(start).Seconds()

	// Closed loop. The traced run posts the same requests (tagged for the
	// handler span, not traced by the server, so they meet the warm tier
	// exactly as the untraced run's do).
	traced := o.Rec != nil
	before := f.s.Srv.Snapshot()
	var q *QueueSampler
	if traced {
		q = SampleQueue(f.s.Srv)
	}
	window := time.Duration(o.Seconds) * time.Second
	t0 := time.Now()
	deadline := t0.Add(window)
	var lastDone time.Time
	var doneMu sync.Mutex
	errs = make([]error, o.Clients)
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(o.Seed*1000 + int64(c))).Perm(freshPool)
			for k := 0; k < ecoRoundsMax; k++ {
				var cycle float64
				for step := 0; step < 4; step++ {
					if time.Now().After(deadline) {
						return
					}
					var lat float64
					var err error
					kind := "eco"
					if step < 3 {
						be := backends[step]
						kind = string(be)
						lat, err = f.sta(order[k%freshPool], fmt.Sprintf("s%d-c%d-k%d-%s", o.Seed, c, k, be), be, traced)
					} else {
						lat, err = f.ecoRound(c, k, traced)
					}
					if err != nil {
						errs[c] = err
						return
					}
					cycle += lat
					f.mu.Lock()
					if !math.IsInf(lat, 1) {
						f.lat[kind] = append(f.lat[kind], lat)
					}
					f.mu.Unlock()
					doneMu.Lock()
					lastDone = time.Now()
					doneMu.Unlock()
				}
				f.mu.Lock()
				f.cycles = append(f.cycles, cycle)
				f.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	elapsed := lastDone.Sub(t0).Seconds()
	spans := o.Rec.Spans()
	if traced {
		out.Layer["service.queued_max"] = float64(q.Stop())
		out.putSharing(before, f.s.Srv.Snapshot())
		out.Layer["engine.stage_eval_us.p50"] = stageEvalP50Us(eng)
	}
	out.Latency = Summarize(f.cycles)
	out.putLatency()
	completed := 0
	byKind := map[string]Dist{}
	for kind, v := range f.lat {
		completed += len(v)
		byKind[kind] = Summarize(v)
	}
	out.Extra["request_latency_ms"] = byKind
	out.E2E["throughput_rps"] = float64(completed) / elapsed
	out.E2E["max_rate_rps"] = out.E2E["throughput_rps"]
	// Per backend: the mean latency of the window's fresh analyses. The
	// pool's circuits differ in cost, so a median over them would fall on
	// the edge between two circuits; the mean weighs every circuit alike
	// (each client walks the whole pool in turn) and averages a burst of
	// host contention over the whole window.
	for _, be := range backends {
		out.E2E[string(be)+"_ms"] = mean(f.lat[string(be)])
	}
	out.E2E["heap_mb"] = heapMB()
	if traced {
		// Tracing overhead on fresh small csm analyses: each pair posts one
		// pool circuit under two new tags of equal length, so both compute.
		out.Layer["trace.overhead_pct"] = pairedOverheadPct(10, func(i int, traced bool) float64 {
			tag := fmt.Sprintf("s%d-overhead-%d-u", o.Seed, i)
			if traced {
				tag = tag[:len(tag)-1] + "t"
			}
			lat, _ := f.sta(i%freshPool, tag, engine.BackendCSM, traced)
			return lat
		})
	}
	f.s.Close()

	// Oracle: regenerate and analyze every fresh request directly, and
	// replay the ECO script on one direct graph. The traced run records
	// these direct analyses — one at a time, so each layer's time is
	// undisturbed — for the engine, graph, netlist and report layers.
	sort.Slice(f.fresh, func(i, j int) bool { return f.fresh[i].tag < f.fresh[j].tag })
	var sizes []float64
	oracle := func(fr freshRec) error {
		req, err := freshRequest(fr.base, fr.tag, fr.be)
		if err != nil {
			return err
		}
		d, err := directOp(env, eng, req, o.Rec, "direct/fresh/"+string(fr.be))
		if err != nil {
			return fmt.Errorf("oracle %s: %w", fr.tag, err)
		}
		if Digest(d.Body) != fr.digest {
			f.tally.Mismatch(fmt.Sprintf("fresh %s vs direct engine", fr.tag))
		}
		f.mu.Lock()
		sizes = append(sizes, float64(len(d.Body)))
		f.mu.Unlock()
		return nil
	}
	workers := o.Clients
	if traced {
		workers = 1
	}
	errs = make([]error, workers)
	next := make(chan freshRec)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for fr := range next {
				if err := oracle(fr); err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	for _, fr := range f.fresh {
		next <- fr
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := f.verifyECO(env, eng, out, traced); err != nil {
		return nil, err
	}
	if traced {
		if err := reloadModels(env, dir, o.Workers, out); err != nil {
			return nil, err
		}
		out.serviceSpans(spans)
		out.layerSpans(o.Rec.Spans())
		out.Layer["sta.report_bytes"] = mean(sizes)
	}
	return out, nil
}

// verifyECO replays the rounds the clients completed on a direct graph
// and compares every client's delta bytes with it.
func (f *freshRun) verifyECO(env *Env, eng *engine.Engine, out *Outcome, traced bool) error {
	rounds := 0
	for _, m := range f.ecoD {
		for r := range m {
			if r+1 > rounds {
				rounds = r + 1
			}
		}
	}
	if rounds == 0 {
		return nil
	}
	req := env.Request(ident{"c432", engine.BackendCSM}, "c432")
	r, err := env.resolve(req)
	if err != nil {
		return err
	}
	ctx := context.Background()
	g, _, _, err := cliutil.BuildBackendGraphCtx(ctx, eng, env.Tech, r.wl, r.spec, r.primary, r.opt)
	if err != nil {
		return err
	}
	var prop, evals []float64
	for i := 0; i < rounds; i++ {
		applied, err := g.ApplyBatch(f.eco[i])
		if err != nil {
			return fmt.Errorf("eco oracle round %d: %w", i, err)
		}
		t := time.Now()
		stats, err := g.Propagate(ctx)
		if err != nil {
			return err
		}
		prop = append(prop, ms(time.Since(t)))
		evals = append(evals, float64(stats.StagesEvaluated))
		body, err := graph.MarshalDelta(g.Delta(req.Name, applied, stats))
		if err != nil {
			return err
		}
		want := Digest(body)
		for c, m := range f.ecoD {
			if got, ok := m[i]; ok && got != want {
				f.tally.Mismatch(fmt.Sprintf("eco client %d round %d vs direct graph", c, i))
			}
		}
	}
	out.Extra["eco_rounds"] = rounds
	out.Extra["eco_stages_reevaluated_max"] = Quantile(sortedCopy(evals), 1)
	if traced {
		out.Layer["graph.eco_propagate_ms"] = Median(prop)
		out.Layer["graph.eco_stages_reevaluated"] = mean(evals)
	}
	return nil
}
