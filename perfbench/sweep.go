// The figure-sweep workload: the campaign engine runs the simulation cells
// of every figure plan in experiment.Figures() at one seed, in a closed
// loop with one worker per CPU — the path that regenerates the paper.

package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"alertmanet/internal/campaign"
	"alertmanet/internal/experiment"
)

// sweepSeeds is the seed count each figure is planned at: two seeds
// average the per-seed differences in cell cost within one run.
const sweepSeeds = 2

// sweepCells lists every figure plan's simulation runs with the plan's
// seed index j (1-based) mapped onto the workload seed's j-th sub-seed.
func sweepCells(seed int64) []experiment.Scenario {
	var cells []experiment.Scenario
	for _, f := range experiment.Figures() {
		for _, sc := range f.Plan(sweepSeeds).Runs {
			sc.Seed = subSeed(seed, int(sc.Seed-1))
			cells = append(cells, sc)
		}
	}
	return cells
}

// sweepRef is the reference the sweep's outputs are checked against: each
// distinct cell run directly through experiment's phases, outside the
// campaign engine. The simulator is deterministic, so the engine must
// reproduce every result exactly.
type sweepRef struct {
	keys   []string          // cell i's scenario hash
	want   map[string]string // hash -> rendered Result
	counts counts
	// probe is the cell whose world feeds the layer probes: the largest
	// ALERT world in the sweep.
	probe experiment.Scenario
	// build and drain sum the phase times over the distinct cells.
	build, drain time.Duration
}

// render prints a Result exactly (NaN and Inf included) for comparison.
func render(r experiment.Result) string { return fmt.Sprintf("%#v", r) }

// sweepReference runs each distinct cell once on jobs() goroutines.
func sweepReference(cells []experiment.Scenario, rec *recorder) (*sweepRef, error) {
	ref := &sweepRef{keys: make([]string, len(cells)), want: map[string]string{}}
	var distinct []experiment.Scenario
	for i, sc := range cells {
		ref.keys[i] = sc.Hash()
		if _, dup := ref.want[ref.keys[i]]; !dup {
			ref.want[ref.keys[i]] = ""
			distinct = append(distinct, sc)
		}
		if sc.Protocol == experiment.ALERT && sc.N > ref.probe.N {
			ref.probe = sc
		}
	}
	var mu sync.Mutex
	var firstErr error
	next := 0
	var wg sync.WaitGroup
	for j := 0; j < jobs(); j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(distinct) || firstErr != nil {
					mu.Unlock()
					return
				}
				sc := distinct[next]
				next++
				mu.Unlock()
				wr, err := runWorld(sc, rec, nil)
				mu.Lock()
				if err != nil {
					firstErr = fmt.Errorf("reference cell %.12s: %w", sc.Hash(), err)
				} else {
					ref.want[sc.Hash()] = render(wr.res)
					ref.counts.add(wr.w, wr.res)
					ref.build += wr.build
					ref.drain += wr.drain
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ref, firstErr
}

// sweepIter is one closed-loop sweep.
type sweepIter struct {
	setup, wall, cpu time.Duration
	executed         int
	cellSecs         []float64
	rssMB            float64
}

// sweepOnce times the sweep's set-up, then runs the cells through a fresh
// engine (a reused one would answer from its memo) and checks every result
// against ref; mismatching distinct cells and cells the engine failed
// count into rep.
func sweepOnce(seed int64, cells []experiment.Scenario, ref *sweepRef, rec *recorder, rep *report) sweepIter {
	startIter()
	var it sweepIter
	it.setup = sweepSetup(seed)
	var mu sync.Mutex
	eng := &campaign.Engine{Jobs: jobs()}
	if rec != nil {
		eng.OnCell = func(ev campaign.CellEvent) {
			end := time.Now()
			rec.add("campaign.cell", end.Add(-time.Duration(ev.Seconds*float64(time.Second))), ev.Label)
			mu.Lock()
			it.cellSecs = append(it.cellSecs, ev.Seconds)
			mu.Unlock()
		}
	}
	cpu0 := cpuTime()
	start := time.Now()
	var res []experiment.Result
	var err error
	rec.do("Engine.RunBatch", func() { res, err = eng.RunBatch(cells) })
	it.wall = time.Since(start)
	it.cpu = cpuTime() - cpu0
	it.rssMB = peakRSSMB()
	st := eng.Snapshot()
	it.executed = st.Executed
	rep.attempted += len(ref.want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: figure-sweep: %v\n", err)
		rep.failed += len(ref.want)
		return it
	}
	bad := map[string]bool{}
	for i, r := range res {
		if k := ref.keys[i]; render(r) != ref.want[k] {
			bad[k] = true
		}
	}
	if len(bad) > 0 || st.Executed != len(ref.want) {
		fmt.Fprintf(os.Stderr, "perfbench: figure-sweep: %d cells differ from the reference; engine executed %d of %d\n",
			len(bad), st.Executed, len(ref.want))
	}
	rep.failed += len(bad) + st.Failed
	return it
}

// sweepLoop runs sweeps until budget has elapsed (at least one).
func sweepLoop(seed int64, cells []experiment.Scenario, ref *sweepRef, rec *recorder, budget time.Duration, rep *report) []sweepIter {
	var its []sweepIter
	start := time.Now()
	for len(its) == 0 || time.Since(start) < budget {
		its = append(its, sweepOnce(seed, cells, ref, rec, rep))
		rec.nextIter()
	}
	return its
}

// sweepSetup is the set-up a sweep needs before its first cell runs:
// enumerate the figure plans and construct the engine. One call takes
// microseconds, so it is timed in batches of at least 20 ms and the
// median per-call time over seven batches is returned; every sweep
// measures it afresh, spreading the samples over the run.
func sweepSetup(seed int64) time.Duration {
	return perCallBatch(20*time.Millisecond, func() {
		eng := &campaign.Engine{Jobs: jobs()}
		eng.Expect(len(sweepCells(seed)))
	})
}

func sweepTimed(cfg config) (*report, error) {
	cells := sweepCells(cfg.seed)
	ref, err := sweepReference(cells, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	frames := float64(frames(ref.counts.med))
	var setup, cpm, evps, cpf, rss []float64
	for _, it := range sweepLoop(cfg.seed, cells, ref, nil, cfg.seconds, rep) {
		setup = append(setup, it.setup.Seconds())
		rss = append(rss, it.rssMB)
		cpm = append(cpm, float64(it.executed)/it.wall.Minutes())
		evps = append(evps, float64(ref.counts.events)/it.wall.Seconds())
		cpf = append(cpf, float64(it.cpu.Microseconds())/frames)
	}
	rep.metrics["setup_s"] = median(setup)
	rep.metrics["cells_per_min"] = median(cpm)
	rep.metrics["sim_events_per_s"] = median(evps)
	rep.metrics["live_cpu_us_per_frame"] = median(cpf)
	rep.metrics["peak_rss_mb"] = median(rss)
	return rep, nil
}

func sweepTraced(cfg config) (*report, error) {
	cells := sweepCells(cfg.seed)
	rec := newRecorder()
	ref, err := sweepReference(cells, rec)
	if err != nil {
		return nil, err
	}
	rec.nextIter()
	rep := newReport()
	ref.counts.report(rep)
	rep.metrics["build.s"] = ref.build.Seconds()
	rep.metrics["sim.drain_s"] = ref.drain.Seconds()

	plain := sweepLoop(cfg.seed, cells, ref, nil, untracedBudget(cfg), rep)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced := sweepLoop(cfg.seed, cells, ref, rec, cfg.seconds-untracedBudget(cfg), rep)
	if err := finishTrace(cfg, "figure-sweep", rec, prof, rep); err != nil {
		return nil, err
	}
	var cellSecs, busy, tPlain, tTraced []float64
	for _, it := range traced {
		cellSecs = append(cellSecs, it.cellSecs...)
		sum := 0.0
		for _, s := range it.cellSecs {
			sum += s
		}
		busy = append(busy, sum/(float64(jobs())*it.wall.Seconds()))
		tTraced = append(tTraced, it.wall.Seconds())
	}
	for _, it := range plain {
		tPlain = append(tPlain, it.wall.Seconds())
	}
	rep.metrics["campaign.cell_s_p50"] = quantile(cellSecs, 0.5)
	rep.metrics["campaign.cell_s_p90"] = quantile(cellSecs, 0.9)
	rep.metrics["campaign.busy_frac"] = median(busy)
	rep.metrics["trace.overhead_s"] = median(tTraced) - median(tPlain)

	var cap *capture
	wr, err := runWorld(ref.probe, nil, func(w *experiment.World) { cap = captureWorld(w, 3) })
	if err != nil {
		return nil, err
	}
	if err := probeLayers(wr.w, cap, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
