package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mcsm/internal/cells"
	"mcsm/internal/cliutil"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/netlist"
	"mcsm/internal/nldm"
	"mcsm/internal/obs"
	"mcsm/internal/service"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// The golden profile every analysis runs under: the coarse
// characterization grid, a 4 ps step over a 2.6 ns window, and a 150 ps
// hybrid margin — the parameters of the committed c432 goldens, which
// keeps set-up short and makes testdata/golden the correctness oracle.
// c17 runs under its own golden request (2 ps, 4 ns, canonical c17 drive).
const (
	profileConfig  = "coarse"
	profileDt      = "4p"
	profileHorizon = "2.6n"
	profileMargin  = "150p"
	profileName    = "coarse/dt=4p/horizon=2.6n/margin=150p"
)

// Delay backends in reporting order.
var backends = []engine.BackendKind{engine.BackendCSM, engine.BackendNLDM, engine.BackendHybrid}

// Cells the corpus maps onto (netlist.Map's targets).
var corpusCells = []string{"INV", "NAND2", "NOR2"}

// ident is one analysis identity of the fixed corpus.
type ident struct {
	Circuit string
	Backend engine.BackendKind
}

func (id ident) String() string { return id.Circuit + "/" + string(id.Backend) }

// goldenFiles maps the corpus identities pinned by testdata/golden onto
// their fixture files.
var goldenFiles = map[ident]string{
	{"c17", engine.BackendCSM}:     "c17_sta.json",
	{"c432", engine.BackendCSM}:    "c432_sta.json",
	{"c432", engine.BackendHybrid}: "c432_hybrid_sta.json",
}

// Env is the shared context of a run: checkout root, technology,
// characterization profile, and the corpus sources.
type Env struct {
	Root    string
	Workers int
	Tech    cells.Tech
	CSM     csm.Config
	Corpus  map[string]service.STARequest // circuit → base request (csm backend)
	Goldens map[ident][32]byte            // golden identity → SHA-256 of the fixture
}

// LoadEnv reads the corpus and golden fixtures from the checkout.
func LoadEnv(root string, workers int) (*Env, error) {
	cfg, err := cliutil.CharConfig(profileConfig)
	if err != nil {
		return nil, err
	}
	env := &Env{Root: root, Workers: workers, Tech: cells.Default130(), CSM: cfg,
		Corpus: map[string]service.STARequest{}, Goldens: map[ident][32]byte{}}

	var c17 service.STARequest
	data, err := os.ReadFile(filepath.Join(root, "testdata/golden/c17_sta_request.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &c17); err != nil {
		return nil, fmt.Errorf("c17 request: %w", err)
	}
	env.Corpus["c17"] = c17
	for _, c := range []string{"c432", "c880"} {
		text, err := os.ReadFile(filepath.Join(root, "internal/netlist/testdata", c+".bench"))
		if err != nil {
			return nil, err
		}
		env.Corpus[c] = benchRequest(c, string(text))
	}
	for id, file := range goldenFiles {
		data, err := os.ReadFile(filepath.Join(root, "testdata/golden", file))
		if err != nil {
			return nil, err
		}
		env.Goldens[id] = sha256.Sum256(data)
	}
	return env, nil
}

// benchRequest is a .bench workload under the golden profile (staggered
// corpus stimulus, the service default for bench sources).
func benchRequest(name, text string) service.STARequest {
	return service.STARequest{Name: name, Netlist: text, Format: "bench",
		Config: profileConfig, Dt: profileDt, Horizon: profileHorizon}
}

// withBackend sets a request's backend (csm stays implicit so the c17 and
// c432 requests remain the golden requests byte for byte).
func withBackend(req service.STARequest, be engine.BackendKind, name string) service.STARequest {
	req.Name = name
	req.Backend, req.Margin = "", ""
	if be != engine.BackendCSM {
		req.Backend = string(be)
	}
	if be == engine.BackendHybrid {
		req.Margin = profileMargin
	}
	return req
}

// Request is the corpus request of an identity under a display name.
func (e *Env) Request(id ident, name string) service.STARequest {
	return withBackend(e.Corpus[id.Circuit], id.Backend, name)
}

// Direct is one analysis computed by the engine directly — the CLI path
// (`mcsm-sta -backend X`): everything needed to re-encode its report
// under another display name.
type Direct struct {
	NL    *sta.Netlist
	Graph *graph.TimingGraph
	Rep   *sta.Report
	Res   *engine.BackendResult // nil for the csm golden path
	Body  []byte
}

// Encode renders the canonical report bytes under a display name.
func (d *Direct) Encode(name string) ([]byte, error) {
	if d.Res != nil {
		return engine.MarshalBackendReport(name, d.NL, d.Res)
	}
	return sta.MarshalGoldenReport(name, d.Rep)
}

// resolved is a request turned into engine inputs the way the service
// resolves it.
type resolved struct {
	name    string
	wl      *cliutil.Workload
	primary map[string]wave.Waveform
	opt     sta.Options
	spec    engine.BackendSpec
}

func (e *Env) resolve(req service.STARequest) (*resolved, error) {
	be, err := engine.ParseBackendKind(req.Backend)
	if err != nil {
		return nil, err
	}
	wl, err := cliutil.ParseWorkload(req.Name, req.Format, req.Netlist)
	if err != nil {
		return nil, err
	}
	dt, err := cliutil.ParseDt(req.Dt)
	if err != nil {
		return nil, err
	}
	horizon, err := cliutil.ParseSI(req.Horizon)
	if err != nil {
		return nil, err
	}
	r := &resolved{name: req.Name, wl: wl, opt: sta.Options{Mode: sta.ModeMIS, Horizon: horizon, Dt: dt},
		spec: engine.BackendSpec{Kind: be, Tech: e.Tech, CSM: e.CSM}}
	switch req.Stimulus {
	case "c17":
		r.primary = sta.C17Stimulus(e.Tech.Vdd, horizon)
	case "", "staggered":
		if req.Format != "bench" {
			return nil, fmt.Errorf("stimulus %q needs a bench workload", req.Stimulus)
		}
		r.primary = netlist.Stimulus(wl.NL.PrimaryIn, e.Tech.Vdd, cliutil.DefaultSlew, horizon)
	default:
		return nil, fmt.Errorf("unsupported stimulus %q", req.Stimulus)
	}
	if req.Margin != "" {
		if r.spec.Margin, err = cliutil.ParseSI(req.Margin); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Analyze runs one request through the engine directly, as a CLI process
// would: parse and map, then the csm golden path (ModelsForCtx →
// AnalyzeGraphCtx → Report → MarshalGoldenReport) or the backend path
// (NLDMFor → AnalyzeBackend → MarshalBackendReport). With a recorder,
// each public call becomes a span under parent, and the engine's own obs
// tree is imported below the analyze call.
func (e *Env) Analyze(ctx context.Context, eng *engine.Engine, req service.STARequest, rec *Recorder, parent, op int64) (*Direct, error) {
	var (
		r   *resolved
		err error
	)
	rec.Time("netlist.parse_map", parent, op, func() { r, err = e.resolve(req) })
	if err != nil {
		return nil, err
	}
	d := &Direct{NL: r.wl.NL}
	if r.spec.Kind == engine.BackendCSM {
		var models map[string]*csm.Model
		rec.Time("engine.models", parent, op, func() { models, err = eng.ModelsForCtx(ctx, e.Tech, r.wl.NL, e.CSM) })
		if err != nil {
			return nil, err
		}
		err = traced(ctx, rec, "engine.analyze_graph", parent, op, func(ctx context.Context) error {
			d.Graph, err = eng.AnalyzeGraphCtx(ctx, r.wl.NL, models, r.primary, r.opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		rec.Time("sta.report_build", parent, op, func() { d.Rep = d.Graph.Report() })
	} else {
		rec.Time("nldm.tables", parent, op, func() {
			_, err = eng.NLDMFor(e.Tech, r.wl.NL, nldm.DefaultConfig(e.Tech), nil)
		})
		if err != nil {
			return nil, err
		}
		err = traced(ctx, rec, "engine.analyze_backend", parent, op, func(ctx context.Context) error {
			d.Res, err = eng.AnalyzeBackend(ctx, r.spec, r.wl.NL, r.primary, r.opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		d.Rep, d.Graph = d.Res.Report, d.Res.Graph
	}
	rec.Time("sta.report_encode", parent, op, func() { d.Body, err = d.Encode(r.name) })
	return d, err
}

// directOp runs one direct analysis as an operation of its own, recorded
// under name (a no-op without a recorder).
func directOp(env *Env, eng *engine.Engine, req service.STARequest, rec *Recorder, name string) (*Direct, error) {
	op := rec.NewOp()
	start := time.Now()
	d, err := env.Analyze(context.Background(), eng, req, rec, op, op)
	rec.AddOp(op, name, start, time.Now())
	return d, err
}

// traced runs f as a span; with a recorder, f's context carries a fresh
// obs trace whose tree (the engine's own phases) is imported below it.
func traced(ctx context.Context, rec *Recorder, name string, parent, op int64, f func(context.Context) error) error {
	if rec == nil {
		return f(ctx)
	}
	tr := obs.New(name)
	start := time.Now()
	err := f(obs.WithSpan(ctx, tr.Root()))
	id := rec.Add(name, parent, op, start, time.Now())
	rec.Import(tr.Finish(), id, op, start, true)
	return err
}

// Characterize fills the model cache for the corpus cells, one goroutine
// per cell, timing each (seconds by cell).
func (e *Env) Characterize(eng *engine.Engine) (map[string]float64, error) {
	out := make(map[string]float64, len(corpusCells))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(corpusCells))
	for i, name := range corpusCells {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			spec, err := cells.Get(name)
			if err != nil {
				errs[i] = err
				return
			}
			start := time.Now()
			_, err = eng.Cache().Get(e.Tech, spec, engine.KindFor(spec), e.CSM)
			mu.Lock()
			out[name] = time.Since(start).Seconds()
			mu.Unlock()
			errs[i] = err
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Digest is the byte identity used for reply checks (SHA-256 of the
// exact bytes): replies are compared by digest so the benchmark does not
// retain response bodies in the heap it measures.
func Digest(b []byte) [32]byte { return sha256.Sum256(b) }
