package main

import (
	"fmt"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/ir"
	"aptget/internal/passes"
	"aptget/internal/pmu"
	"aptget/internal/profile"
)

// planned is one application profiled and planned the way
// core.ProfileAndPlan does it, with the plans then injected into a
// fresh build as core.RunWithPlans does. A span wraps each layer call.
type planned struct {
	prog  *ir.Program // the build the profile was collected on
	prof  *profile.Profile
	plans []analysis.Plan
	fresh *ir.Program // a fresh build carrying the prefetch slices
	rep   *passes.Report
}

func profileAndPlan(rec *recorder, parent int, req int64, w core.Workload, cfg core.Config) (*planned, error) {
	p := &planned{}
	build := func() (prog *ir.Program, err error) {
		err = rec.do("workloads.build", parent, req, func() error {
			prog, err = w.Build()
			return err
		})
		return prog, err
	}
	var err error
	if p.prog, err = build(); err != nil {
		return nil, err
	}
	err = rec.do("profile.collect", parent, req, func() error {
		p.prof, err = profile.Collect(p.prog, cfg.Machine, w.InitMem, cfg.Profile)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("profiling %s: %w", w.Name(), err)
	}
	err = rec.do("analysis.analyze", parent, req, func() error {
		p.plans, err = analysis.Analyze(p.prog, p.prof, cfg.Analysis)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("analyzing %s: %w", w.Name(), err)
	}
	if p.fresh, err = build(); err != nil {
		return nil, err
	}
	err = rec.do("passes.inject", parent, req, func() error {
		p.rep, err = passes.AptGet(p.fresh, p.plans, cfg.Inject)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("injecting %s: %w", w.Name(), err)
	}
	return p, nil
}

// simTotals sums what a workload's simulated runs and pipeline
// decisions produced; the per-layer counts of every workload come from
// it. On pipeline the runs are the variants of a pass; on the serve
// workloads they are set-up's profile collections.
type simTotals struct {
	run       pmu.Counters // instructions, cycles and memory events
	lbr       int          // LBR snapshots collected
	loads     int          // delinquent loads selected
	plans     int
	outer     int // plans placed at the outer-loop site
	fallbacks int // plans with a §3.6 fallback applied
	injected  int // prefetch slices the APT-GET pass emitted
}

func (s *simTotals) addRun(c *pmu.Counters) {
	s.run.Instructions += c.Instructions
	s.run.Cycles += c.Cycles
	d, m := &s.run.Mem, &c.Mem
	d.DemandAccesses += m.DemandAccesses
	for i := range d.Hits {
		d.Hits[i] += m.Hits[i]
	}
}

func (s *simTotals) addPlanned(p *planned) {
	s.lbr += len(p.prof.Samples)
	s.loads += len(p.prof.Loads)
	s.plans += len(p.plans)
	for _, pl := range p.plans {
		if pl.Site == analysis.SiteOuter {
			s.outer++
		}
		if pl.Fallback != "" {
			s.fallbacks++
		}
	}
	s.injected += p.rep.Injected
}

// levelNames are the metric suffixes of mem.Level's values, in order.
var levelNames = []string{"l1", "l2", "llc", "dram", "fb"}

// setLayers sets the per-layer metrics every traced workload reports:
// the median duration of each layer's recorded calls, host time per
// simulated instruction, and the simulated and pipeline counts. The
// wire, plan-store and service timings come from the same spans,
// recorded by inProcess.
func setLayers(res *result, rec *recorder, s *simTotals) {
	for _, l := range []struct{ span, metric string }{
		{"workloads.build", "workloads.build_ms"},
		{"profile.collect", "profile.collect_ms"},
		{"analysis.analyze", "analysis.analyze_ms"},
		{"passes.inject", "passes.inject_ms"},
		{"service.handler", "service.handler_ms"},
		{"wire.hash", "wire.hash_ms"},
		{"wire.decode", "wire.decode_ms"},
	} {
		res.set(l.metric, rec.medianMS(l.span), "ms")
	}
	for _, l := range []struct{ span, metric string }{
		{"wire.plan_decode", "wire.plan_decode_us"},
		{"wire.plan_encode", "wire.plan_encode_us"},
		{"planstore.get_or_compute", "planstore.get_us"},
	} {
		res.set(l.metric, 1e3*rec.medianMS(l.span), "us")
	}
	self := rec.selfTimes()
	simNS := (self["cpu.run"] + self["profile.collect"]).Nanoseconds()
	res.set("cpu.ns_per_instr", float64(simNS)/float64(s.run.Instructions), "ns")
	res.set("cpu.instructions", float64(s.run.Instructions), "count")
	res.set("cpu.cycles", float64(s.run.Cycles), "count")
	m := &s.run.Mem
	res.set("mem.demand_accesses", float64(m.DemandAccesses), "count")
	for i, lvl := range levelNames {
		res.set("mem.hits."+lvl, float64(m.Hits[i]), "count")
	}
	res.set("profile.lbr_samples", float64(s.lbr), "count")
	res.set("profile.delinquent_loads", float64(s.loads), "count")
	res.set("analysis.plans", float64(s.plans), "count")
	res.set("analysis.outer_sites", float64(s.outer), "count")
	res.set("analysis.fallbacks", float64(s.fallbacks), "count")
	res.set("passes.prefetches_injected", float64(s.injected), "count")
}

// setStoreCounters reports the plan-cache outcome counters of the
// daemon, or in-process server, that served the workload.
func setStoreCounters(res *result, c map[string]int64) {
	for k, name := range map[string]string{
		"plan_cache_hits": "planstore.hits", "plan_cache_stale_matches": "planstore.stale_matches",
		"plan_cache_misses": "planstore.misses", "plan_cache_evictions": "planstore.evictions",
	} {
		res.set(name, float64(c[k]), "count")
	}
}
