// The live-fleet workload: the paper-default 200-node random-waypoint ALERT
// scenario acted out by 200 in-process alertd daemons over loopback UDP,
// paced open-loop by the coordinator at timescale 0.05. Each iteration also
// runs the scenario's simulator twin, the reference the live run is checked
// against. It is the only workload on the wire codec, the UDP pumps and
// the daemon loop.

package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"alertmanet/internal/experiment"
	"alertmanet/internal/live"
)

// fleetTimescale is real seconds per emulated second: the pacing the
// sim-vs-live acceptance test pins for this scenario.
const fleetTimescale = 0.05

// fleetScenarios is the paper-default scenario at each of the workload
// seed's sub-seeds.
func fleetScenarios(seed int64) []experiment.Scenario {
	scs := make([]experiment.Scenario, subSeeds)
	for k := range scs {
		scs[k] = experiment.DefaultScenario()
		scs[k].Seed = subSeed(seed, k)
	}
	return scs
}

// fleetIter is one iteration: the sim twins, then one fleet spawn and
// coordinator run.
type fleetIter struct {
	// twin is the sim run of the scenario the fleet acts out, and
	// twinCounts its layer counters.
	twin       worldRun
	twinCounts counts
	// twinEvps is events per second of StartWorkload plus Drain over the
	// twins of every sub-seed scenario (about a tenth of a second each).
	twinEvps float64
	spawn    time.Duration
	// cpu is the process CPU time Coordinator.Run took.
	cpu   time.Duration
	total time.Duration
	rssMB float64
	sum   live.Summary
}

// fleetOnce runs one iteration on scs[k]; lt, when set, wraps the fleet's
// handles.
func fleetOnce(scs []experiment.Scenario, k int, rec *recorder, lt *liveTrace) (it fleetIter, err error) {
	startIter()
	start := time.Now()
	var events uint64
	var run time.Duration
	for i, sc := range scs {
		wr, err := runWorld(sc, rec, nil)
		if err != nil {
			return it, fmt.Errorf("sim twin: %w", err)
		}
		events += wr.w.Eng.Processed()
		run += wr.run
		if i == k {
			it.twin = wr
			it.twinCounts.add(wr.w, wr.res)
			it.twin.w = nil
		}
	}
	it.twinEvps = float64(events) / run.Seconds()
	sc := scs[k]
	var fl *live.Fleet
	it.spawn = rec.do("live.SpawnFleet", func() { fl, err = live.SpawnFleet(sc, fleetTimescale) })
	if err != nil {
		return it, err
	}
	defer func() {
		if cerr := fl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close fleet: %w", cerr)
		}
		it.total = time.Since(start)
		it.rssMB = peakRSSMB()
	}()
	handles := fl.Handles()
	if lt != nil {
		handles = lt.wrap(handles)
	}
	coord := live.NewCoordinator(fl.World, handles, fleetTimescale)
	runtime.GC() // the twins' garbage is not the data plane's cost
	cpu0 := cpuTime()
	rec.do("Coordinator.Run", func() { it.sum, err = coord.Run() })
	it.cpu = cpuTime() - cpu0
	return it, err
}

// spawnSamples times SpawnFleet (with its Close untimed) twice per
// scenario, adding set-up samples beyond the one each iteration takes.
func spawnSamples(scs []experiment.Scenario) ([]float64, error) {
	var out []float64
	for i := 0; i < 2*len(scs); i++ {
		startIter()
		start := time.Now()
		fl, err := live.SpawnFleet(scs[i%len(scs)], fleetTimescale)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
		if err := fl.Close(); err != nil {
			return nil, fmt.Errorf("close fleet: %w", err)
		}
	}
	return out, nil
}

// check holds the live run to its twin: the flow schedule replays exactly,
// so Sent must match, and delivery, latency and hops must sit inside the
// acceptance bands.
func (it fleetIter) check() error {
	if it.sum.Sent != it.twin.res.Sent {
		return fmt.Errorf("%w: live sent %d, sim sent %d", errCheck, it.sum.Sent, it.twin.res.Sent)
	}
	if cmp := live.Compare(it.twin.res, it.sum, live.DefaultBand()); !cmp.OK {
		return fmt.Errorf("%w: live outside the sim bands:\n%s", errCheck, cmp)
	}
	return nil
}

// fleetLoop runs iterations until budget has elapsed (at least one),
// cycling the fleet through the sub-seed scenarios from first on.
func fleetLoop(scs []experiment.Scenario, first int, rec *recorder, lt *liveTrace, budget time.Duration, rep *report) ([]fleetIter, error) {
	var its []fleetIter
	start := time.Now()
	for len(its) == 0 || time.Since(start) < budget {
		it, err := fleetOnce(scs, (first+len(its))%len(scs), rec, lt)
		if err != nil {
			return nil, err
		}
		rec.nextIter()
		rep.attempted++
		if err := it.check(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: live-fleet: %v\n", err)
			rep.failed++
		}
		its = append(its, it)
	}
	return its, nil
}

func fleetTimed(cfg config) (*report, error) {
	scs := fleetScenarios(cfg.seed)
	rep := newReport()
	setup, err := spawnSamples(scs)
	if err != nil {
		return nil, err
	}
	its, err := fleetLoop(scs, 0, nil, nil, cfg.seconds, rep)
	if err != nil {
		return nil, err
	}
	// The iterations act out different scenarios, so CPU per frame is
	// pooled over them rather than taken as a median.
	var cpm, evps, rss []float64
	var cpu time.Duration
	var tx uint64
	for _, it := range its {
		setup = append(setup, it.spawn.Seconds())
		cpm = append(cpm, 1/it.total.Minutes())
		evps = append(evps, it.twinEvps)
		rss = append(rss, it.rssMB)
		cpu += it.cpu
		tx += it.sum.Counters.TxDatagrams
	}
	rep.metrics["setup_s"] = median(setup)
	rep.metrics["cells_per_min"] = median(cpm)
	rep.metrics["sim_events_per_s"] = median(evps)
	rep.metrics["live_cpu_us_per_frame"] = float64(cpu.Microseconds()) / float64(tx)
	rep.metrics["peak_rss_mb"] = median(rss)
	return rep, nil
}

func fleetTraced(cfg config) (*report, error) {
	scs := fleetScenarios(cfg.seed)
	rep := newReport()
	plain, err := fleetLoop(scs, 0, nil, nil, untracedBudget(cfg), rep)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	lt := &liveTrace{rec: rec, timescale: fleetTimescale}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced, err := fleetLoop(scs, len(plain), rec, lt, cfg.seconds-untracedBudget(cfg), rep)
	if err != nil {
		pprof.StopCPUProfile()
		return nil, err
	}
	if err := finishTrace(cfg, "live-fleet", rec, prof, rep); err != nil {
		return nil, err
	}
	var build, drain, tPlain, tTraced []float64
	var sent, delivered, tx, rxFull, txFull, decErr float64
	for _, it := range traced {
		build = append(build, it.twin.build.Seconds())
		drain = append(drain, it.twin.drain.Seconds())
		tTraced = append(tTraced, it.total.Seconds())
		c := it.sum.Counters
		sent += float64(it.sum.Sent)
		delivered += float64(it.sum.Delivered)
		tx += float64(c.TxDatagrams)
		rxFull += float64(c.RxDropsFull)
		txFull += float64(c.TxDropsFull)
		decErr += float64(c.DecodeErrors)
	}
	for _, it := range plain {
		tPlain = append(tPlain, it.total.Seconds())
	}
	n := float64(len(traced))
	m := rep.metrics
	m["build.s"] = median(build) // one twin's Build
	m["sim.drain_s"] = median(drain)
	m["trace.overhead_s"] = median(tTraced) - median(tPlain)
	m["live.frames_per_pkt"] = tx / sent
	m["live.undelivered_frac"] = 1 - delivered/sent
	m["live.rx_drops_full"] = rxFull / n
	m["live.tx_drops_full"] = txFull / n
	m["live.decode_errors"] = decErr / n
	m["live.control_rtt_us_p50"] = quantile(lt.rttUS, 0.5)
	m["live.control_rtt_us_p99"] = quantile(lt.rttUS, 0.99)
	m["live.push_late_ms_p50"] = quantile(lt.lateMS, 0.5)
	m["live.push_late_ms_p99"] = quantile(lt.lateMS, 0.99)
	traced[len(traced)-1].twinCounts.report(rep)

	// Probe inputs come from one more run of the sim twin with the medium
	// observed.
	var cap *capture
	wr, err := runWorld(scs[0], nil, func(w *experiment.World) { cap = captureWorld(w, 3) })
	if err != nil {
		return nil, err
	}
	if err := probeLayers(wr.w, cap, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
