// The traced run's instruments: an in-memory span recorder written out at
// the end, a CPU profile attributed to the repository's modules, and a
// live.NodeHandle wrapper that times the coordinator's control calls.

package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"alertmanet/internal/live"
)

// span is one timed public call. Start and Dur are seconds; Start counts
// from the recorder's creation.
type span struct {
	Name  string  `json:"name"`
	Start float64 `json:"start"`
	Dur   float64 `json:"dur"`
	// Iter groups the spans of one workload iteration.
	Iter int    `json:"iter"`
	Attr string `json:"attr,omitempty"`
}

// recorder keeps spans in memory; a nil recorder records nothing, which is
// how the untraced iterations share the traced code path.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	iter  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span that started at start and ended now, returning its
// duration.
func (r *recorder) add(name string, start time.Time, attr string) time.Duration {
	d := time.Since(start)
	if r == nil {
		return d
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0).Seconds(),
		Dur: d.Seconds(), Iter: r.iter, Attr: attr})
	r.mu.Unlock()
	return d
}

// do runs fn as a span; when labelled, the CPU profile samples taken
// while fn (and any goroutine it starts) runs carry the span's name as
// their "phase" label.
func (r *recorder) do(name string, fn func()) time.Duration {
	start := time.Now()
	if r == nil {
		fn()
		return time.Since(start)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { fn() })
	return r.add(name, start, "")
}

// nextIter advances the iteration number later spans carry.
func (r *recorder) nextIter() {
	if r != nil {
		r.mu.Lock()
		r.iter++
		r.mu.Unlock()
	}
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profiler holds one CPU profile in memory until the run ends.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, saves it next to the spans, and attributes its
// samples to modules.
func (p *profiler) stop(path string) (profileShares, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return profileShares{}, err
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return profileShares{}, err
	}
	return attribute(p.buf.Bytes())
}

// finishTrace writes the spans, stops the profile and folds the module
// shares into rep.
func finishTrace(cfg config, workload string, rec *recorder, prof *profiler, rep *report) error {
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", workload, cfg.seed))
	sh, err := prof.stop(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	if err := rec.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	for _, m := range perLayer {
		if mod, ok := strings.CutPrefix(m.name, "self."); ok {
			rep.metrics[m.name] = sh.self[mod]
		}
	}
	rep.metrics["telemetry.tap_cost_frac"] = sh.self["telemetry"]
	rep.metrics["build.rng_share"] = sh.buildRNG
	rep.metrics["medium.bcast_cum_share"] = sh.bcastCum
	fmt.Fprintf(os.Stderr, "perfbench: %d CPU samples; spans and profile in %s.*\n", sh.samples, base)
	return nil
}

// repoPrefix is the import-path prefix of the modules samples are
// attributed to.
const repoPrefix = "alertmanet/internal/"

// profileShares is a CPU profile reduced to the numbers the benchmark
// reports.
type profileShares struct {
	samples int
	// self maps a module (the first path element under internal/) to the
	// share of CPU time whose innermost repository frame lies in it;
	// "outside" holds samples with no repository frame at all.
	self map[string]float64
	// buildRNG is the rng module's share of the samples taken inside
	// experiment.Build (phase label "experiment.Build", or a build frame on the
	// stack).
	buildRNG float64
	// bcastCum is the share of samples with the medium's broadcast
	// delivery sweep anywhere on the stack.
	bcastCum float64
}

// attribute decodes a gzipped pprof profile and computes the shares.
func attribute(gz []byte) (profileShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return profileShares{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profileShares{}, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return profileShares{}, err
	}
	sh := profileShares{self: map[string]float64{}}
	var total, build, buildRNG, bcast float64
	for _, s := range prof.samples {
		w := float64(s.value)
		total += w
		mod, inBuild, inBcast := "outside", s.label(prof, "phase") == "experiment.Build", false
		found := false
		for _, fn := range s.frames(prof) {
			rest, ok := strings.CutPrefix(fn, repoPrefix)
			if !ok {
				continue
			}
			if !found {
				mod, _, _ = strings.Cut(rest, ".")
				mod, _, _ = strings.Cut(mod, "/")
				found = true
			}
			inBuild = inBuild || strings.HasPrefix(rest, "experiment.buildArena")
			inBcast = inBcast || strings.HasPrefix(rest, "medium.(*bcastSend).RunEvent")
		}
		sh.self[mod] += w
		if inBuild {
			build += w
			if mod == "rng" {
				buildRNG += w
			}
		}
		if inBcast {
			bcast += w
		}
		sh.samples++
	}
	if total > 0 {
		for k := range sh.self {
			sh.self[k] /= total
		}
		sh.bcastCum = bcast / total
	}
	if build > 0 {
		sh.buildRNG = buildRNG / build
	}
	return sh, nil
}

// tracedHandle is a live.NodeHandle that times every control call the
// coordinator makes: the ApplyTopology round trip is the control RTT, and
// its start against the push's emulated due time is the push lateness.
type tracedHandle struct {
	live.NodeHandle
	lt *liveTrace
}

// liveTrace collects the control-plane timings of one coordinator run.
// The coordinator drives handles from one goroutine; the mutex keeps the
// wrapper safe if that ever changes.
type liveTrace struct {
	rec       *recorder
	timescale float64
	mu        sync.Mutex
	// anchor is when the last StartFlow returned: the coordinator starts
	// its emulated clock right after launching the flows.
	anchor time.Time
	rttUS  []float64
	lateMS []float64
}

func (lt *liveTrace) wrap(hs []live.NodeHandle) []live.NodeHandle {
	out := make([]live.NodeHandle, len(hs))
	for i, h := range hs {
		out[i] = tracedHandle{NodeHandle: h, lt: lt}
	}
	return out
}

func (h tracedHandle) ApplyTopology(t live.Topology) error {
	start := time.Now()
	err := h.NodeHandle.ApplyTopology(t)
	d := h.lt.rec.add("live.ApplyTopology", start, fmt.Sprintf("node=%d t=%g", h.ID(), t.T))
	h.lt.mu.Lock()
	h.lt.rttUS = append(h.lt.rttUS, float64(d)/float64(time.Microsecond))
	if t.T > 0 && !h.lt.anchor.IsZero() {
		due := h.lt.anchor.Add(time.Duration(t.T * h.lt.timescale * float64(time.Second)))
		h.lt.lateMS = append(h.lt.lateMS, float64(start.Sub(due))/float64(time.Millisecond))
	}
	h.lt.mu.Unlock()
	return err
}

func (h tracedHandle) StartFlow(spec live.FlowSpec) error {
	start := time.Now()
	err := h.NodeHandle.StartFlow(spec)
	h.lt.rec.add("live.StartFlow", start, fmt.Sprintf("node=%d flow=%d", h.ID(), spec.Flow))
	h.lt.mu.Lock()
	h.lt.anchor = time.Now()
	h.lt.mu.Unlock()
	return err
}

func (h tracedHandle) Collect() (live.Report, error) {
	start := time.Now()
	rep, err := h.NodeHandle.Collect()
	h.lt.rec.add("live.Collect", start, fmt.Sprintf("node=%d", h.ID()))
	return rep, err
}
