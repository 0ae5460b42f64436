// Command perfbench is the repository benchmark. It drives the simulator,
// the campaign engine and the live UDP stack through their public
// functions on three named workloads, checks every output, and prints one
// JSON result line: the end-to-end metrics on an untraced run, or the
// per-layer metrics on a traced run (-trace 1). README.md lists the
// workloads, the metrics and which layer each metric belongs to.
//
//	bash perfbench/run.sh --workload large-field --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all
// of them (README.md says what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_min", "1/min"},
	{"sim_events_per_s", "1/s"},
	{"live_cpu_us_per_frame", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what the traced run reports. A metric that does not apply
// to a workload reads 0 there (README.md, "Per-layer metrics").
var perLayer = []metricDef{
	{"build.s", "s"},
	{"build.rng_share", "frac"},
	{"rng.split_us", "us"},
	{"sim.events", "count"},
	{"sim.drain_s", "s"},
	{"medium.broadcasts", "count"},
	{"medium.rx_per_broadcast", "count"},
	{"medium.broadcast_us_per_rx", "us"},
	{"medium.bcast_cum_share", "frac"},
	{"medium.unicasts", "count"},
	{"medium.retransmissions", "count"},
	{"medium.neighbors_into_us", "us"},
	{"gpsr.legs", "count"},
	{"gpsr.hops", "count"},
	{"gpsr.perimeter_entries", "count"},
	{"gpsr.step_ns", "ns"},
	{"core.zone_broadcasts", "count"},
	{"core.covers_sent", "count"},
	{"core.rfs_per_pkt", "count"},
	{"core.marshal_ns", "ns"},
	{"crypto.sym_ops", "count"},
	{"crypto.pub_ops", "count"},
	{"crypt.sym_seal_us", "us"},
	{"campaign.cell_s_p50", "s"},
	{"campaign.cell_s_p90", "s"},
	{"campaign.busy_frac", "frac"},
	{"live.frames_per_pkt", "count"},
	{"live.undelivered_frac", "frac"},
	{"live.rx_drops_full", "count"},
	{"live.tx_drops_full", "count"},
	{"live.decode_errors", "count"},
	{"live.control_rtt_us_p50", "us"},
	{"live.control_rtt_us_p99", "us"},
	{"live.push_late_ms_p50", "ms"},
	{"live.push_late_ms_p99", "ms"},
	{"live.append_frame_ns", "ns"},
	{"live.decode_frame_ns", "ns"},
	{"telemetry.tap_cost_frac", "frac"},
	{"trace.overhead_s", "s"},
	{"self.rng", "frac"},
	{"self.mobility", "frac"},
	{"self.node", "frac"},
	{"self.experiment", "frac"},
	{"self.sim", "frac"},
	{"self.medium", "frac"},
	{"self.gpsr", "frac"},
	{"self.core", "frac"},
	{"self.crypt", "frac"},
	{"self.geo", "frac"},
	{"self.locservice", "frac"},
	{"self.metrics", "frac"},
	{"self.campaign", "frac"},
	{"self.live", "frac"},
	{"self.outside", "frac"},
}

// config is one invocation's inputs.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// traceDir receives the traced run's spans and CPU profile, inside the
// build directory the run script keeps out of version control.
var traceDir = filepath.Join(".bench_build", "perfbench-out")

// report is what a workload hands back: how many operations it attempted,
// how many failed their output check, and its metric values by name.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// workloads maps each workload name to its timed and traced runs.
var workloads = map[string]struct{ timed, traced func(config) (*report, error) }{
	"figure-sweep": {sweepTimed, sweepTraced},
	"large-field":  {fieldTimed, fieldTraced},
	"live-fleet":   {fleetTimed, fleetTraced},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: figure-sweep, large-field or live-fleet")
	seed := flag.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seed < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seed >= 1, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	// Every workload runs the default single-shard engine.
	os.Unsetenv("ALERT_SHARDS")

	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
	}
	run, defs := wl.timed, endToEnd
	if cfg.trace {
		run, defs = wl.traced, perLayer
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out := jsonResult{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			os.Exit(1)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s is %v\n", *name, d.name, v)
			os.Exit(1)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// subSeeds is how many scenario seeds one workload seed expands to. A run
// cycles its iterations through them, so no single seed's routes set the
// figure; workload seeds map to disjoint sub-seed ranges.
const subSeeds = 8

// subSeed returns the k-th scenario seed of a workload seed.
func subSeed(seed int64, k int) int64 { return (seed-1)*subSeeds + 1 + int64(k) }

// errCheck marks an output that failed its correctness check; workloads
// count such operations as failed rather than aborting.
var errCheck = errors.New("output check failed")

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startIter begins a workload iteration: the previous iteration's garbage
// is collected outside the timings, and the peak-RSS mark restarts.
func startIter() {
	runtime.GC()
	resetPeakRSS()
}

// resetPeakRSS restarts the resident-set high-water mark, so each
// iteration's peak can be read on its own (Linux: /proc/self/clear_refs).
// Where that is unavailable the mark keeps covering the whole process.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the resident-set high-water mark in MiB since the last
// resetPeakRSS (VmHWM), or the process's lifetime peak where /proc is
// unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// jobs is the worker count every workload may use: one per CPU.
func jobs() int { return runtime.GOMAXPROCS(0) }

// quantile returns the q-quantile of xs by linear interpolation (xs is
// not modified); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perCall is perCallBatch over one pass of fn across inputs 0..n-1, per
// input.
func perCall(n int, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	return perCallBatch(5*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}) / time.Duration(n)
}

// perCallBatch times fn in batches repeated until one lasts at least min
// and returns the median over seven batches of the time per call.
func perCallBatch(min time.Duration, fn func()) time.Duration {
	reps := 1
	for {
		start := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		if time.Since(start) >= min {
			break
		}
		reps *= 2
	}
	batches := make([]float64, 7)
	for b := range batches {
		start := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		batches[b] = float64(time.Since(start)) / float64(reps)
	}
	return time.Duration(median(batches))
}

// untracedBudget is the part of a traced run's budget spent on untraced
// iterations (at least one), the baseline the tracing overhead is
// measured against; traced iterations (at least one) take the rest.
func untracedBudget(cfg config) time.Duration { return cfg.seconds / 3 }
