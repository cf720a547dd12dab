package main

import (
	"fmt"
	"math"
	"sort"

	"mcsm/internal/engine"
)

// MetricSpec names one reported metric and its unit.
type MetricSpec struct {
	Name string
	Unit string
}

// endToEnd is the untraced run's metric set — every workload reports
// every one (BENCHMARK.json lists the same names, a test keeps them in
// step). Latencies are client-measured from raw samples.
var endToEnd = []MetricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"max_rate_rps", "1/s"},
	{"csm_ms", "ms"},
	{"nldm_ms", "ms"},
	{"hybrid_ms", "ms"},
	{"heap_mb", "MB"},
}

// graphCircuits are the circuit classes of the per-backend graph
// metrics: the serve-hot pool (c17 only under csm) and the generated
// "fresh" circuits of serve-fresh.
func graphCircuits(be engine.BackendKind) []string {
	if be == engine.BackendCSM {
		return []string{"c17", "c432", "c880", "fresh"}
	}
	return []string{"c432", "c880", "fresh"}
}

// perLayer is the traced run's metric set. No workload reaches every
// layer: a metric of a layer the workload does not reach reports 0, and
// the run lists those names (see BuildResult).
var perLayer = func() []MetricSpec {
	m := []MetricSpec{
		{"service.handler_ms.p50", "ms"},
		{"service.handler_ms.p99", "ms"},
		{"service.transport_ms.p50", "ms"},
		{"service.self_ms", "ms"},
		{"service.warm_hit_ratio", "ratio"},
		{"service.coalesced_ratio", "ratio"},
		{"service.batch_dedup_ratio", "ratio"},
		{"service.netlist_hit_ratio", "ratio"},
		{"service.queued_max", "count"},
		{"sta.report_build_ms", "ms"},
		{"sta.report_encode_ms", "ms"},
		{"sta.report_bytes", "bytes"},
		{"engine.models_ms", "ms"},
		{"engine.stage_evals", "count"},
		{"engine.stage_eval_us.p50", "us"},
		{"nldm.tables_ms", "ms"},
		{"netlist.parse_map_ms", "ms"},
		{"graph.eco_stages_reevaluated", "count"},
		{"graph.eco_propagate_ms", "ms"},
		{"csm.characterize_s.INV", "s"},
		{"csm.characterize_s.NAND2", "s"},
		{"csm.characterize_s.NOR2", "s"},
		{"loadgen.lag_ms.p99", "ms"},
		{"unattributed_pct", "%"},
		{"trace.overhead_pct", "%"},
	}
	for _, be := range backends[1:] {
		m = append(m, MetricSpec{"engine.plan_ms." + string(be), "ms"})
	}
	for _, be := range backends {
		for _, c := range graphCircuits(be) {
			m = append(m,
				MetricSpec{fmt.Sprintf("graph.build_ms.%s.%s", be, c), "ms"},
				MetricSpec{fmt.Sprintf("graph.propagate_ms.%s.%s", be, c), "ms"},
				MetricSpec{fmt.Sprintf("graph.stages_evaluated.%s.%s", be, c), "count"})
		}
	}
	return m
}()

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of the benchmark's standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// BuildResult assembles the result line from measured values: exactly
// the specs' names, each with its unit. A spec the run did not measure
// is an error unless zeroMissing is set (the per-layer set); then it
// reports 0 and its name is returned among the unreached. A measured name
// outside the specs is always an error, as is a non-finite value.
func BuildResult(specs []MetricSpec, values map[string]float64, zeroMissing bool) (map[string]Metric, []string, error) {
	out := make(map[string]Metric, len(specs))
	known := map[string]bool{}
	var unreached []string
	for _, s := range specs {
		known[s.Name] = true
		v, ok := values[s.Name]
		if !ok {
			if !zeroMissing {
				return nil, nil, fmt.Errorf("metric %s was not measured", s.Name)
			}
			unreached = append(unreached, s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = Metric{Value: v, Unit: s.Unit}
	}
	var extra []string
	for name := range values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("metrics outside the catalog: %v", extra)
	}
	return out, unreached, nil
}

// Meta stamps a run with what it ran on and what it ran.
type Meta struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	HeldOutSeed   int64  `json:"held_out_seed"`
	Seconds       int    `json:"seconds"`
	Trace         bool   `json:"trace"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	EngineWorkers int    `json:"engine_workers"`
	MaxInFlight   int    `json:"max_in_flight"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	SourceDigest  string `json:"source_digest"`
	Profile       string `json:"profile"`
}
