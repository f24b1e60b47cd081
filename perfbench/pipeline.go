package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"aptget/internal/core"
	"aptget/internal/cpu"
	"aptget/internal/graphgen"
	"aptget/internal/ir"
	"aptget/internal/passes"
	"aptget/internal/pmu"
	"aptget/internal/service"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

// variants are the three builds the paper compares, in core.Compare's
// order.
var variants = []string{"baseline", "ainsworth-jones", "apt-get"}

// pipelineApps builds the pipeline workload's applications: BFS on a
// power-law graph drawn from the seed, then IS, HJ8 and randAcc. Each is
// a sixth to a twentieth of its Table 3 size, so that several passes fit
// in a run, and each still keeps its data larger than the scaled LLC.
// Constructing them generates the datasets and computes each native Go
// reference.
func pipelineApps(seed int64) []core.Workload {
	g := graphgen.PowerLaw("WG", 16_000, 5.8, seed)
	return []core.Workload{
		workloads.NewBFS("BFS", g, workloads.TopDegreeVertices(g, 1)[0]),
		workloads.NewIS(20_000, 1<<17, 1),
		workloads.NewHashJoin("HJ8", 1<<14, 8, 12_000, 10_000),
		workloads.NewRandAcc(17, 15_000),
	}
}

// passCounts is what one pass over the apps produced: the simulated
// counters of every (app, variant) run, and the pipeline's decisions.
type passCounts struct {
	counters map[string]pmu.Counters // "<app>/<variant>"
	speedups []float64               // apt-get over baseline, per app
	planned  []*planned              // per app, from its apt-get variant
	sim      simTotals
}

// pipeline runs the apps one after another, each as baseline, Ainsworth
// & Jones, and APT-GET, the way core.Compare does, but calling each
// layer itself so that a span can wrap every call.
type pipeline struct {
	cfg  core.Config
	apps []core.Workload
	res  *result
}

// pass runs every app once; rec is nil for an untraced pass.
func (p *pipeline) pass(rec *recorder) (*passCounts, error) {
	pc := &passCounts{counters: map[string]pmu.Counters{}}
	root := rec.begin("pipeline.pass", -1, 0)
	defer rec.end(root)
	for _, w := range p.apps {
		for _, v := range variants {
			c, err := p.variant(rec, w, v, root, pc)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", w.Name(), v, err)
			}
			pc.counters[w.Name()+"/"+v] = c
			pc.sim.addRun(&c)
		}
		base := pc.counters[w.Name()+"/baseline"]
		apt := pc.counters[w.Name()+"/apt-get"]
		pc.speedups = append(pc.speedups, apt.Speedup(&base))
	}
	return pc, nil
}

func (p *pipeline) variant(rec *recorder, w core.Workload, v string, parent int, pc *passCounts) (pmu.Counters, error) {
	cfg := p.cfg
	id := rec.begin(w.Name()+"/"+v, parent, 0)
	defer rec.end(id)
	var prog *ir.Program
	var err error
	switch v {
	case "baseline", "ainsworth-jones":
		err = rec.do("workloads.build", id, 0, func() error {
			prog, err = w.Build()
			return err
		})
		if err == nil && v == "ainsworth-jones" {
			err = rec.do("passes.inject", id, 0, func() error {
				_, err := passes.AinsworthJones(prog, cfg.Static)
				return err
			})
		}
	case "apt-get":
		var pl *planned
		if pl, err = profileAndPlan(rec, id, 0, w, cfg); err == nil {
			prog = pl.fresh
			pc.planned = append(pc.planned, pl)
			pc.sim.addPlanned(pl)
		}
	}
	if err != nil {
		return pmu.Counters{}, err
	}
	var res *cpu.Result
	err = rec.do("cpu.run", id, 0, func() error {
		res, err = cpu.Run(prog, cfg.Machine, cpu.Options{InitMem: w.InitMem})
		return err
	})
	if err != nil {
		if res != nil {
			res.Hier.Release()
		}
		return pmu.Counters{}, err
	}
	err = rec.do("workloads.verify", id, 0, func() error { return w.Verify(res.Hier.Arena) })
	res.Hier.Release()
	p.res.check(err == nil, "%s (%s): %v", w.Name(), v, err)
	return res.Counters, nil
}

// setupReps is how many times a pipeline run sets up before the first
// pass and again after each untraced pass. Set-up takes tens of
// milliseconds and a shared host's speed can change every few seconds,
// so the repetitions are spread over the run, where the passes sample
// the host too, and setup_s is their median.
const setupReps = 5

func runPipeline(e *env, res *result) error {
	cfg := core.DefaultConfig()
	service.FillPipeline(&cfg)
	var setupTimes []time.Duration
	var apps []core.Workload
	setup := func() {
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			apps = pipelineApps(e.seed)
			setupTimes = append(setupTimes, time.Since(t0))
		}
		// Collect set-up's garbage now, so that the next pass is not
		// charged for it.
		runtime.GC()
	}
	setup()
	p := &pipeline{cfg: cfg, apps: apps, res: res}
	self := os.Getpid()

	// Passes run back to back while another one still fits in the
	// window; at least two always run. A traced run alternates untraced
	// and traced passes, so that both see the same host.
	var walls, cpus, tracedWalls []float64
	var first, traced *passCounts
	rss := sampleRSS(self)
	start := time.Now()
	for i := 0; i < 2 || time.Since(start)+time.Duration(walls[len(walls)-1]*1e6) <= e.seconds; i++ {
		var rec *recorder
		if e.rec != nil && i%2 == 1 {
			rec = e.rec
		}
		cpu0, err := procCPU(self)
		if err != nil {
			return err
		}
		t0 := time.Now()
		pc, err := p.pass(rec)
		if err != nil {
			return err
		}
		wall := ms(time.Since(t0))
		cpu1, err := procCPU(self)
		if err != nil {
			return err
		}
		if first == nil {
			first = pc
		} else {
			checkPass(res, first, pc)
		}
		if rec != nil {
			tracedWalls = append(tracedWalls, wall)
			if traced == nil {
				traced = pc
			}
			continue
		}
		walls = append(walls, wall)
		cpus = append(cpus, ms(cpu1-cpu0))
		setup()
	}
	samples, err := rss.stop()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: pipeline: untraced passes %.0f ms, traced %.0f ms; simulated APT-GET "+
		"speedup geomean %.4fx (scaled machine; the model is unvalidated for this app subset)\n",
		walls, tracedWalls, geomean(first.speedups))

	if e.rec == nil {
		res.set("setup_s", medianDur(setupTimes), "s")
		res.set("cpu_ms_per_op", iqm(cpus), "ms")
		res.set("rss_mb", median(samples), "MB")
		return nil
	}
	res.set("op.wall_ms", iqm(walls), "ms")
	res.set("trace.overhead_pct", 100*(iqm(tracedWalls)/iqm(walls)-1), "%")
	sa := make([]app, len(p.apps))
	for i, w := range p.apps {
		pl := traced.planned[i]
		wp := wire.ProfileOf(w.Name(), pl.prog, pl.prof)
		body := wire.EncodeProfile(wp)
		sa[i] = app{
			key:   w.Name(),
			body:  body,
			fp:    wire.FingerprintBytes(body),
			shape: wp.ShapeHash(),
			plans: wire.EncodePlanSet(wire.PlanSetFromAnalysis(w.Name(), pl.plans, cfg.Analysis)),
		}
	}
	counters, err := inProcess(e, res, sa, hitItems(sa), "hit")
	if err != nil {
		return err
	}
	setStoreCounters(res, counters)
	setLayers(res, e.rec, &traced.sim)
	return memProbe(e.rec, res)
}

// checkPass checks that a repeated pass, traced or not, simulated
// exactly the cycles and memory events of the first.
func checkPass(res *result, first, pc *passCounts) {
	for key, c := range pc.counters {
		res.check(c == first.counters[key], "%s: counters differ from the first pass", key)
	}
}
