// Command perfbench is the repository benchmark: it drives the timing
// system from outside, through its public Go API and its HTTP handler,
// under two workloads, byte-checks every output, and prints one JSON
// result line. Run it from the repository root through its wrapper:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 25 --trace 0
//
// Workloads (see BENCHMARK.json and perfbench/pins.json):
//
//   - serve-hot: open-loop Poisson traffic over a warm pool of analyses;
//   - serve-fresh: closed-loop clients posting analyses the server has
//     never seen, plus ECO rounds on per-client sessions.
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (spans around every public call, written to
// .bench_build/perfbench/trace-<workload>-<seed>.jsonl at exit).
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"mcsm/internal/cells"
	"mcsm/internal/engine"
	"mcsm/internal/nldm"
)

// Pins are the benchmark's pinned parameters, read from pins.json: the
// serve-hot rate and latency limit, the seed held out while the bounds
// were set, and the per-workload predictions. Every other load parameter
// is a constant beside the workload that uses it.
type Pins struct {
	HeldOutSeed int64   `json:"held_out_seed"`
	ServeHot    HotPins `json:"serve_hot"`
	// Predictions are for readers (which metrics each ROADMAP item should
	// move); decoding them only checks that pins.json stays valid JSON.
	Predictions map[string]json.RawMessage `json:"predictions"`
}

// validate rejects pins no run can use.
func (p Pins) validate() error {
	switch {
	case p.ServeHot.RateRPS <= 0:
		return fmt.Errorf("serve_hot.rate_rps = %v, want > 0", p.ServeHot.RateRPS)
	case p.ServeHot.P90LimitMs <= 0:
		return fmt.Errorf("serve_hot.p90_limit_ms = %v, want > 0", p.ServeHot.P90LimitMs)
	case len(p.Predictions) == 0:
		return fmt.Errorf("no predictions")
	}
	return nil
}

// Options scope one run.
type Options struct {
	Seed    int64
	Seconds int
	Rec     *Recorder // nil = untraced
	Workers int       // engine worker-pool width
	Clients int       // concurrent clients / connections
	Pins    Pins
}

// Outcome is what a workload measured.
type Outcome struct {
	E2E         map[string]float64
	Layer       map[string]float64
	Tally       Tally
	Latency     Dist
	MaxInFlight int
	Extra       map[string]any
}

func newOutcome() *Outcome {
	return &Outcome{E2E: map[string]float64{}, Layer: map[string]float64{}, Extra: map[string]any{}}
}

// putLatency publishes the latency quantiles as end-to-end metrics.
func (o *Outcome) putLatency() {
	o.E2E["p50_ms"], o.E2E["p90_ms"] = o.Latency.P50, o.Latency.P90
}

var workloads = map[string]func(*Env, Options) (*Outcome, error){
	"serve-hot":   ServeHot,
	"serve-fresh": ServeFresh,
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-hot or serve-fresh")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 25, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run (per-layer metrics)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload serve-hot|serve-fresh --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	if err := benchmark(*workload, run, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func benchmark(workload string, run func(*Env, Options) (*Outcome, error), seed int64, seconds int, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	var pins Pins
	data, err := os.ReadFile(filepath.Join(root, "perfbench/pins.json"))
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	if err := pins.validate(); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	nproc := runtime.NumCPU()
	o := Options{Seed: seed, Seconds: seconds, Workers: nproc, Clients: nproc, Pins: pins}
	if traced {
		o.Rec = NewRecorder()
	}
	env, err := LoadEnv(root, o.Workers)
	if err != nil {
		return err
	}
	out, err := run(env, o)
	if err != nil {
		return err
	}

	meta := Meta{Workload: workload, Seed: seed, HeldOutSeed: pins.HeldOutSeed, Seconds: seconds, Trace: traced,
		NumCPU: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), EngineWorkers: o.Workers, MaxInFlight: out.MaxInFlight,
		GoVersion: runtime.Version(), Commit: commit(root), SourceDigest: sourceDigest(root), Profile: profileName}
	errRatio := out.Tally.ErrorRatio()
	printJSON(map[string]any{"meta": meta})
	printJSON(map[string]any{"latency_ms": out.Latency, "error_ratio": errRatio, "tally": map[string]any{
		"attempted": out.Tally.Attempted, "failed": out.Tally.Failed, "refused": out.Tally.Refused,
		"mismatched": out.Tally.Mismatched, "notes": out.Tally.Notes}, "extra": out.Extra})

	var metrics map[string]Metric
	if traced {
		spans := o.Rec.Spans()
		dir := filepath.Join(root, ".bench_build/perfbench")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
		if err := WriteJSONL(path, spans); err != nil {
			return err
		}
		var unreached []string
		metrics, unreached, err = BuildResult(perLayer, out.Layer, true)
		printJSON(map[string]any{"trace_file": path, "spans": len(spans), "self_times": SelfTimes(spans),
			"unreached_layers": unreached})
	} else {
		metrics, _, err = BuildResult(endToEnd, out.E2E, false)
	}
	if err != nil {
		return err
	}
	res := Result{Correct: out.Tally.Errors() == 0, Attempted: out.Tally.Attempted, Failed: out.Tally.Errors(), Metrics: metrics}
	printJSON(res)
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed or mismatched: %v", res.Failed, res.Attempted, out.Tally.Notes)
	}
	return nil
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(append(data, '\n'))
}

// setupEngine makes an empty artifact directory inside the checkout and
// an engine over it, and characterizes the corpus cells into it (timed per
// cell as csm.characterize_s.*).
func setupEngine(env *Env, out *Outcome) (string, *engine.Engine, error) {
	base := filepath.Join(env.Root, ".bench_build/perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "artifacts-")
	if err != nil {
		return "", nil, err
	}
	eng := engine.New(env.Workers, engine.NewSpillCache(dir))
	secs, err := env.Characterize(eng)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	for c, s := range secs {
		out.Layer["csm.characterize_s."+c] = s
	}
	return dir, eng, nil
}

// tables builds the NLDM tables of the corpus cells on eng
// (nldm.tables_ms).
func tables(env *Env, eng *engine.Engine, out *Outcome) error {
	r, err := env.resolve(env.Request(ident{"c432", engine.BackendNLDM}, "c432"))
	if err != nil {
		return err
	}
	var terr error
	out.Layer["nldm.tables_ms"] = timeMs(func() {
		_, terr = eng.NLDMFor(env.Tech, r.wl.NL, nldm.DefaultConfig(cells.Default130()), nil)
	})
	return terr
}

// reloadModels times the artifact reload a new process pays before its
// first csm analysis: ModelsForCtx on a fresh engine over the warm
// artifact directory (engine.models_ms, the median of five reloads).
func reloadModels(env *Env, dir string, workers int, out *Outcome) error {
	r, err := env.resolve(env.Request(ident{"c880", engine.BackendCSM}, "c880"))
	if err != nil {
		return err
	}
	var t []float64
	for i := 0; i < 5; i++ {
		eng := engine.New(workers, engine.NewSpillCache(dir))
		t = append(t, timeMs(func() { _, err = eng.ModelsForCtx(context.Background(), env.Tech, r.wl.NL, env.CSM) }))
		if err != nil {
			return err
		}
	}
	out.Layer["engine.models_ms"] = Median(t)
	return nil
}

// heapMB is the live heap after a full collection, in MB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pool victim caches kept
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// commit is the checkout's git revision when it is a git work tree
// ("none" otherwise — the source digest identifies the code then).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "none"
}

// sourceDigest hashes every Go source and go.mod file of the checkout
// outside build output, in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
