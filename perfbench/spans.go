package main

import (
	"fmt"
	"strings"
)

// Operation root names: "client/<kind>" for requests (serve-hot:
// client/sta, client/batch; serve-fresh: client/fresh/<backend>,
// client/eco) and "direct/<circuit>/<backend>" for the oracle's direct
// analyses.

// opTag is what an operation's root name says about it.
type opTag struct {
	circuit string // corpus circuit, or "fresh" for generated circuits
	backend string
}

func tagOf(root string) (opTag, bool) {
	parts := strings.Split(root, "/")
	switch {
	case len(parts) == 3 && parts[0] == "direct":
		return opTag{circuit: parts[1], backend: parts[2]}, true
	}
	return opTag{}, false
}

func rootNames(spans []Span) map[int64]string {
	out := map[int64]string{}
	for _, s := range spans {
		if s.Parent == 0 {
			out[s.ID] = s.Name
		}
	}
	return out
}

// serviceSpans derives the handler/transport split and the unattributed
// share of the client operations (spans must hold no other operations).
func (o *Outcome) serviceSpans(spans []Span) {
	roots := rootNames(spans)
	var handler []float64
	handlerOf := map[int64]float64{}
	for _, s := range spans {
		if s.Name == "service.handler" && strings.HasPrefix(roots[s.Parent], "client/") {
			handler = append(handler, s.Dur())
			handlerOf[s.Parent] += s.Dur()
		}
	}
	var transport []float64
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "client/") {
			transport = append(transport, s.Dur()-handlerOf[s.ID])
		}
	}
	h := sortedCopy(handler)
	o.Layer["service.handler_ms.p50"] = Quantile(h, 0.5)
	o.Layer["service.handler_ms.p99"] = Quantile(h, 0.99)
	o.Layer["service.transport_ms.p50"] = Median(transport)
	o.Layer["unattributed_pct"] = UnattributedPct(spans)
}

// layerSpans derives the engine, graph, netlist and report metrics from
// the spans of tagged operations (means over the operations that made
// each call). A metric the workload measured itself is kept: the
// workloads time the NLDM table build (in set-up) and the model reload on
// fresh engines, where their oracle's engine has tables and models
// resident.
func (o *Outcome) layerSpans(spans []Span) {
	roots := rootNames(spans)
	sums := map[string][]float64{}
	put := func(name string, v float64) { sums[name] = append(sums[name], v) }
	for _, s := range spans {
		tag, ok := tagOf(roots[s.Op])
		if !ok || s.Parent == 0 {
			continue
		}
		switch s.Name {
		case "graph.build":
			put(fmt.Sprintf("graph.build_ms.%s.%s", tag.backend, tag.circuit), s.Dur())
		case "graph.propagate":
			put(fmt.Sprintf("graph.propagate_ms.%s.%s", tag.backend, tag.circuit), s.Dur())
			put(fmt.Sprintf("graph.stages_evaluated.%s.%s", tag.backend, tag.circuit), float64(s.Evaluated))
		case "engine.plan":
			put("engine.plan_ms."+tag.backend, s.Dur())
		case "engine.models":
			if tag.backend == "csm" {
				put("engine.models_ms", s.Dur())
			}
		case "netlist.parse_map":
			put("netlist.parse_map_ms", s.Dur())
		case "nldm.tables":
			put("nldm.tables_ms", s.Dur())
		case "sta.report_build":
			put("sta.report_build_ms", s.Dur())
		case "sta.report_encode":
			put("sta.report_encode_ms", s.Dur())
		}
	}
	for name, v := range sums {
		if _, ok := o.Layer[name]; !ok {
			o.Layer[name] = mean(v)
		}
	}
}
