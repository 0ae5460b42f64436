// The large-field workload: one 10k-node GPSR world at the paper's density,
// rebuilt and run in a closed loop. It is construction-heavy and has no
// broadcasts and no crypto — the main workload for construction and
// unicast changes, the bypass workload for broadcast and ALERT changes.

package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
)

// fieldScenario is the workload's world: 10,000 nodes on a 7000 m square
// (the 200-per-km² paper density), 100 CBR pairs for 40 s plus 2 s of drain,
// with a GPSR hop budget sized to the field's diameter (7000·√2 m over a
// 250 m radio range is ~40 hops) instead of the 10-hop default.
func fieldScenario(seed int64) experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.Seed = seed
	sc.Protocol = experiment.GPSR
	sc.N = 10000
	sc.Field = geo.Rect{Max: geo.Point{X: 7000, Y: 7000}}
	sc.Pairs = 100
	sc.Duration = 40
	sc.DrainTime = 2
	sc.Gpsr.HopBudget = 64
	return sc
}

// fieldIter is one closed-loop iteration.
type fieldIter struct {
	worldRun
	total  time.Duration
	counts counts
	rssMB  float64
}

// fieldOnce builds and runs the world once.
func fieldOnce(sc experiment.Scenario, rec *recorder) (fieldIter, error) {
	startIter()
	start := time.Now()
	wr, err := runWorld(sc, rec, nil)
	if err != nil {
		return fieldIter{}, err
	}
	it := fieldIter{worldRun: wr, total: time.Since(start), rssMB: peakRSSMB()}
	it.counts.add(wr.w, wr.res)
	return it, nil
}

// fieldChecker holds, per scenario seed, the delivered count every
// iteration on that seed must reproduce.
type fieldChecker map[int64]int

// check verifies the router conservation invariant and that the delivered
// count is the one the seed fixed on its first iteration.
func (fc fieldChecker) check(it fieldIter) error {
	if err := conserved(it.w.Router().Counters()); err != nil {
		return err
	}
	if it.res.Sent == 0 || it.res.Delivered == 0 {
		return fmt.Errorf("%w: sent %d delivered %d", errCheck, it.res.Sent, it.res.Delivered)
	}
	seed := it.w.Scenario.Seed
	if want, ok := fc[seed]; !ok {
		fc[seed] = it.res.Delivered
	} else if it.res.Delivered != want {
		return fmt.Errorf("%w: seed %d delivered %d, first run delivered %d", errCheck, seed, it.res.Delivered, want)
	}
	return nil
}

// fieldLoop runs iterations until budget has elapsed (at least one),
// cycling through the workload seed's sub-seeds and counting attempts and
// check failures into rep.
func fieldLoop(seed int64, rec *recorder, budget time.Duration, fc fieldChecker, rep *report) ([]fieldIter, error) {
	var its []fieldIter
	start := time.Now()
	for len(its) == 0 || time.Since(start) < budget {
		it, err := fieldOnce(fieldScenario(subSeed(seed, len(its)%subSeeds)), rec)
		if err != nil {
			return nil, err
		}
		rec.nextIter()
		rep.attempted++
		if err := fc.check(it); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: large-field: %v\n", err)
			rep.failed++
		}
		it.w = nil // let the next iteration's GC reclaim the world
		its = append(its, it)
	}
	return its, nil
}

func fieldTimed(cfg config) (*report, error) {
	rep := newReport()
	its, err := fieldLoop(cfg.seed, nil, cfg.seconds, fieldChecker{}, rep)
	if err != nil {
		return nil, err
	}
	var setup, cpm, evps, cpf, rss []float64
	for _, it := range its {
		rss = append(rss, it.rssMB)
		setup = append(setup, it.build.Seconds())
		cpm = append(cpm, 1/it.total.Minutes())
		evps = append(evps, float64(it.counts.events)/it.run.Seconds())
		cpf = append(cpf, float64(it.runCPU.Microseconds())/float64(frames(it.counts.med)))
	}
	rep.metrics["setup_s"] = median(setup)
	rep.metrics["cells_per_min"] = median(cpm)
	rep.metrics["sim_events_per_s"] = median(evps)
	rep.metrics["live_cpu_us_per_frame"] = median(cpf)
	rep.metrics["peak_rss_mb"] = median(rss)
	return rep, nil
}

func fieldTraced(cfg config) (*report, error) {
	rep := newReport()
	fc := fieldChecker{}
	plain, err := fieldLoop(cfg.seed, nil, untracedBudget(cfg), fc, rep)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced, err := fieldLoop(cfg.seed, rec, cfg.seconds-untracedBudget(cfg), fc, rep)
	if err != nil {
		pprof.StopCPUProfile()
		return nil, err
	}
	if err := finishTrace(cfg, "large-field", rec, prof, rep); err != nil {
		return nil, err
	}
	var build, drain, tPlain, tTraced []float64
	for _, it := range traced {
		build = append(build, it.build.Seconds())
		drain = append(drain, it.drain.Seconds())
		tTraced = append(tTraced, it.total.Seconds())
	}
	for _, it := range plain {
		tPlain = append(tPlain, it.total.Seconds())
	}
	rep.metrics["build.s"] = median(build)
	rep.metrics["sim.drain_s"] = median(drain)
	rep.metrics["trace.overhead_s"] = median(tTraced) - median(tPlain)
	traced[len(traced)-1].counts.report(rep)

	// Probe inputs come from one more run of the same world with the
	// medium observed.
	var cap *capture
	wr, err := runWorld(fieldScenario(subSeed(cfg.seed, 0)), nil, func(w *experiment.World) { cap = captureWorld(w, 7) })
	if err != nil {
		return nil, err
	}
	if err := probeLayers(wr.w, cap, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
