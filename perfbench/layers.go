package main

import (
	"strings"

	"repro/internal/obsv/trace"
)

// passNames are the core passes the standard flows run.
var passNames = []string{"strash", "dontcare-power", "balance", "sweep", "bddsynth"}

// spanStats aggregates a traced replay's span trees by span name. A
// span's self time is its duration minus its children's durations.
type spanStats struct {
	requests         int
	rootNs, rootSelf float64
	dur, self        map[string]float64
	count            map[string]int

	buildNs, reorderNs float64
	reorders           int
	nodes, steps       float64
	builtWithCounts    int
	degraded           int
	blifBytes, blifNs  float64
	transitions        float64
	flows, verified    int
}

func numAttr(attrs map[string]any, key string) (float64, bool) {
	switch v := attrs[key].(type) {
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

func aggregate(trees [][]trace.SpanData) *spanStats {
	st := &spanStats{dur: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	for _, spans := range trees {
		st.requests++
		childNs := make(map[uint64]float64)
		for _, sp := range spans {
			if sp.ParentID != 0 {
				childNs[sp.ParentID] += float64(sp.DurNs)
			}
		}
		for _, sp := range spans {
			dur := float64(sp.DurNs)
			self := dur - childNs[sp.SpanID]
			if self < 0 {
				self = 0
			}
			if sp.ParentID == 0 {
				st.rootNs += dur
				st.rootSelf += self
				continue
			}
			st.dur[sp.Name] += dur
			st.self[sp.Name] += self
			st.count[sp.Name]++
			switch sp.Name {
			case "bdd.build":
				if sp.Attrs["reorder"] == true {
					st.reorderNs += self
					st.reorders++
				} else {
					st.buildNs += self
				}
				n, okN := numAttr(sp.Attrs, "nodes")
				s, okS := numAttr(sp.Attrs, "steps")
				if okN && okS {
					st.nodes += n
					st.steps += s
					st.builtWithCounts++
				}
			case "power.exact":
				if sp.Attrs["degraded"] == true {
					st.degraded++
				}
			case "logic.resolve":
				if b, ok := numAttr(sp.Attrs, "blif_bytes"); ok {
					st.blifBytes += b
					st.blifNs += dur
				}
			case "sim.measure":
				if t, ok := numAttr(sp.Attrs, "transitions"); ok {
					st.transitions += t
				}
			case "core.flow":
				st.flows++
				if sp.Attrs["verified"] == true {
					st.verified++
				}
			}
		}
	}
	return st
}

// perRequestUs converts a nanosecond total to mean microseconds per
// replayed request.
func (st *spanStats) perRequestUs(ns float64) float64 { return ratio(ns, float64(st.requests)) / 1e3 }

// layerMetrics derives the traced per-layer metrics. Times are mean
// microseconds per replayed request, so the layer figures of one
// workload add up to its mean traced request time.
func (st *spanStats) layerMetrics(m metrics) {
	us := func(name string, ns float64) { m.add(name, st.perRequestUs(ns), "us") }
	us("logic.resolve_us", st.dur["logic.resolve"])
	m.add("logic.read_blif_mb_per_s", ratio(st.blifBytes/1e6, st.blifNs/1e9), "MB/s")
	us("logic.structural_hash_us", st.dur["logic.structural_hash"])

	exact := float64(st.count["power.exact"])
	us("bdd.build_us", st.buildNs)
	m.add("bdd.build_nodes", ratio(st.nodes, float64(st.builtWithCounts)), "count")
	m.add("bdd.build_steps", ratio(st.steps, float64(st.builtWithCounts)), "count")
	us("bdd.reorder_us", st.reorderNs)
	m.add("bdd.reorder_retry_ratio", ratio(float64(st.reorders), exact), "ratio")

	us("power.exact_self_us", st.self["power.exact"])
	us("power.propagated_us", st.dur["power.propagated"])
	us("power.mc_fallback_us", st.dur["power.mc.fallback"])
	m.add("power.degraded_ratio", ratio(float64(st.degraded), exact), "ratio")

	us("sim.measure_us", st.dur["sim.measure"])
	us("sim.packed_us", st.dur["sim.packed"])
	m.add("sim.events_per_req", ratio(st.transitions, float64(st.requests)), "count")

	for _, p := range passNames {
		us("core.pass."+p+"_us", st.dur["pass."+p])
	}
	us("core.measure_us", st.dur["core.measure"]+st.dur["core.measure.incr"])
	us("core.flow_self_us", st.self["core.flow"])
	m.add("core.verified_ratio", ratio(float64(st.verified), float64(st.flows)), "ratio")

	us("server.encode_us", st.dur["server.encode"])
	m.add("trace.attributed_ratio", 1-ratio(st.rootSelf, st.rootNs), "ratio")
	m.add("trace.requests", float64(st.requests), "count")
}

// layerShares reports each top-level layer's share of traced request
// time (self times grouped by span-name prefix).
func (st *spanStats) layerShares() map[string]float64 {
	out := make(map[string]float64)
	for name, ns := range st.self {
		layer, _, _ := strings.Cut(name, ".")
		if layer == "pass" {
			layer = "core"
		}
		out[layer] += ratio(ns, st.rootNs)
	}
	return out
}
