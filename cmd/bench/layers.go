package main

import (
	"trimcaching/internal/memprof"
	"trimcaching/internal/stats"
)

// spanMetrics derives the span-timed per-layer metrics of a traced run.
// Calls are summarized per call (p50 and tail over every span of a name)
// and as a share of the traced ops' total time; set-up spans give the
// set-up layer costs. The span accounting must reconcile first.
func spanMetrics(vals map[string]float64, spans []span, tracedDurs []float64) error {
	if _, err := reconcile(spans); err != nil {
		return err
	}
	self := selfTimes(spans)
	calls := map[string][]float64{}     // ms per call, timed ops
	selfCalls := map[string][]float64{} // self ms per call, timed ops
	total := map[string]float64{}
	selfTotal := map[string]float64{}
	setup := map[string]float64{}
	var opTotal, shardRepair float64
	var timedSpans int
	for i, s := range spans {
		ms := float64(s.dur()) / 1e6
		if s.Op == setupOp {
			setup[s.Name] += ms
			continue
		}
		timedSpans++
		if s.Parent < 0 {
			opTotal += ms
			continue
		}
		sms := float64(self[i]) / 1e6
		calls[s.Name] = append(calls[s.Name], ms)
		selfCalls[s.Name] = append(selfCalls[s.Name], sms)
		total[s.Name] += ms
		selfTotal[s.Name] += sms
		if s.Name == "placement.repair" && spans[s.Parent].Name == "shard.checkpoint" {
			shardRepair += ms
		}
	}
	p50 := func(xs []float64) float64 { return stats.Quantile(xs, 0.5) }
	tail := func(xs []float64) float64 { return stats.Quantile(xs, tailQuantile(len(xs))) }
	share := func(v float64) float64 { return ratio(v, opTotal) }
	ops := float64(len(tracedDurs))

	vals["mobility.advance_ms_p50"] = p50(calls["mobility.advance"])
	vals["mobility.advance_share"] = share(total["mobility.advance"])
	vals["scenario.refresh_ms_p50"] = p50(calls["scenario.refresh"])
	vals["scenario.refresh_ms_tail"] = tail(calls["scenario.refresh"])
	vals["scenario.refresh_share"] = share(total["scenario.refresh"])
	vals["scenario.fault_ms_p50"] = p50(calls["scenario.fault"])
	vals["scenario.generate_ms_p50"] = p50(calls["scenario.generate"])
	vals["placement.spec_ms_p50"] = p50(calls["placement.spec"])
	vals["placement.spec_ms_tail"] = tail(calls["placement.spec"])
	vals["placement.spec_share"] = share(total["placement.spec"])
	vals["placement.gen_ms_p50"] = p50(calls["placement.gen"])
	vals["placement.independent_ms_p50"] = p50(calls["placement.independent"])
	vals["placement.repair_ms_p50"] = p50(calls["placement.repair"])
	vals["placement.repair_ms_tail"] = tail(calls["placement.repair"])
	vals["placement.replace_ms_p50"] = p50(calls["placement.replace"])
	vals["placement.initial_solve_ms"] = setup["placement.place"]
	vals["sim.evaluate_ms_p50"] = p50(calls["sim.evaluate"])
	vals["sim.evaluate_share"] = share(total["sim.evaluate"])
	vals["sim.measure_ms_p50"] = p50(selfCalls["sim.measure"])
	vals["sim.measure_share"] = share(selfTotal["sim.measure"])
	vals["dynamics.new_engine_ms"] = setup["dynamics.new_engine"]
	vals["shard.new_engine_ms"] = setup["shard.new_engine"]
	vals["shard.checkpoint_self_ms_p50"] = p50(selfCalls["shard.checkpoint"])
	vals["shard.repair_ms_per_op"] = ratio(shardRepair, ops)
	vals["trace.spans_per_op"] = ratio(float64(timedSpans), ops)
	return nil
}

// footprintMetrics sets the memprof metrics from a footprint.
func footprintMetrics(vals map[string]float64, f memprof.Footprint) {
	vals["memprof.reach_bytes"] = float64(f.Reach)
	vals["memprof.rank_bytes"] = float64(f.Rank)
	vals["memprof.rate_bytes"] = float64(f.Rates)
	vals["memprof.workload_bytes"] = float64(f.Workload)
	vals["memprof.topology_bytes"] = float64(f.Topology)
	vals["memprof.evaluator_bytes"] = float64(f.Evaluator)
	vals["memprof.measurement_bytes"] = float64(f.Measurement)
	vals["memprof.scratch_bytes"] = float64(f.Scratch)
	vals["memprof.coordinator_bytes"] = float64(f.Coordinator)
}
