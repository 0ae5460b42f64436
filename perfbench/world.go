// One simulation world driven phase by phase through experiment's public
// functions, and the layer counters read from it afterwards.

package main

import (
	"fmt"
	"runtime"
	"time"

	"alertmanet/internal/core"
	"alertmanet/internal/experiment"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/medium"
	"alertmanet/internal/node"
)

// worldRun is one world's phase timings and outputs.
type worldRun struct {
	w *experiment.World
	// build is experiment.Build; run is ChoosePairs + StartWorkload +
	// Drain, and runCPU the process CPU time it took; drain is Drain
	// alone.
	build, run, drain time.Duration
	runCPU            time.Duration
	res               experiment.Result
}

// runWorld runs sc in RunWorld's order — build, pairs, workload, drain,
// collect — recording one span per phase on rec (nil records nothing).
// onBuilt, when set, sees the world before any traffic starts. Build's
// garbage is collected before the run phase, outside the timings, so
// whether a collection cycle lands inside the run phase does not depend on
// where Build left the heap.
func runWorld(sc experiment.Scenario, rec *recorder, onBuilt func(*experiment.World)) (worldRun, error) {
	var wr worldRun
	var err error
	wr.build = rec.do("experiment.Build", func() { wr.w, err = experiment.Build(sc) })
	if err != nil {
		return wr, fmt.Errorf("build: %w", err)
	}
	w := wr.w
	if onBuilt != nil {
		onBuilt(w)
	}
	runtime.GC()
	cpu0 := cpuTime()
	var pairs []experiment.Pair
	start := rec.do("World.StartWorkload", func() {
		pairs = w.ChoosePairs()
		w.StartWorkload(pairs)
	})
	wr.drain = rec.do("World.Drain", func() { err = w.Drain() })
	wr.runCPU = cpuTime() - cpu0
	wr.run = start + wr.drain
	if err != nil {
		return wr, fmt.Errorf("drain: %w", err)
	}
	rec.do("World.Collect", func() { wr.res = w.Collect(pairs) })
	return wr, nil
}

// frames is the number of radio frames the world's medium put on air:
// data-frame attempts, ACKs and local broadcasts.
func frames(c medium.Counters) uint64 {
	return c.UnicastsSent + c.Retransmissions + c.AcksSent + c.BroadcastsSent
}

// conserved checks the router conservation invariant: every routing
// attempt ends in exactly one terminal outcome.
func conserved(rc gpsr.Counters) error {
	ends := rc.Delivered + rc.ArrivedClosest + rc.DroppedTTL + rc.DroppedDeadEnd + rc.DroppedLink
	if rc.Sent != ends {
		return fmt.Errorf("%w: router sent %d but %d legs ended", errCheck, rc.Sent, ends)
	}
	return nil
}

// counts sums the public layer counters over one or more worlds.
type counts struct {
	events uint64
	med    medium.Counters
	router gpsr.Counters
	alert  core.Counters
	ops    node.CryptoOps
	// rfs sums MeanRFs × Sent over ALERT worlds; alertSent sums Sent.
	rfs       float64
	alertSent int
}

func (c *counts) add(w *experiment.World, res experiment.Result) {
	c.events += w.Eng.Processed()
	m := w.Med.Counters()
	c.med.UnicastsSent += m.UnicastsSent
	c.med.BroadcastsSent += m.BroadcastsSent
	c.med.Retransmissions += m.Retransmissions
	c.med.AcksSent += m.AcksSent
	if r := w.Router(); r != nil {
		rc := r.Counters()
		c.router.Sent += rc.Sent
		c.router.TotalHops += rc.TotalHops
		c.router.PerimeterEntries += rc.PerimeterEntries
	}
	if w.Alert != nil {
		ac := w.Alert.Counters()
		c.alert.ZoneBroadcasts += ac.ZoneBroadcasts
		c.alert.CoversSent += ac.CoversSent
		c.rfs += res.MeanRFs * float64(res.Sent)
		c.alertSent += res.Sent
	}
	c.ops.Sym += w.Net.Ops.Sym
	c.ops.Pub += w.Net.Ops.Pub
}

// report stores the counters as per-layer metrics.
func (c *counts) report(rep *report) {
	m := rep.metrics
	m["sim.events"] = float64(c.events)
	m["medium.broadcasts"] = float64(c.med.BroadcastsSent)
	m["medium.unicasts"] = float64(c.med.UnicastsSent)
	m["medium.retransmissions"] = float64(c.med.Retransmissions)
	m["gpsr.legs"] = float64(c.router.Sent)
	m["gpsr.hops"] = float64(c.router.TotalHops)
	m["gpsr.perimeter_entries"] = float64(c.router.PerimeterEntries)
	m["core.zone_broadcasts"] = float64(c.alert.ZoneBroadcasts)
	m["core.covers_sent"] = float64(c.alert.CoversSent)
	if c.alertSent > 0 {
		m["core.rfs_per_pkt"] = c.rfs / float64(c.alertSent)
	}
	m["crypto.sym_ops"] = float64(c.ops.Sym)
	m["crypto.pub_ops"] = float64(c.ops.Pub)
}
