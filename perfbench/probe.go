// Layer probes: time per call of public layer functions, fed with inputs
// captured from the workload's own built world rather than synthetic ones.

package main

import (
	"fmt"
	"os"
	"time"

	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/live"
	"alertmanet/internal/medium"
)

// maxCaptured bounds each captured input set.
const maxCaptured = 2000

// stepInput is one forwarding decision as a sender faced it.
type stepInput struct {
	cur        medium.NodeID
	self, dest geo.Point
	nbrs       []medium.Neighbor
}

// capture holds probe inputs recorded from one world's transmissions.
type capture struct {
	stride  int
	seen    int
	steps   []stepInput
	frames  []live.Frame
	envs    [][]byte // core.Marshal output of carried ALERT envelopes
	senders []medium.NodeID
	// broadcasters are the senders of local broadcasts, in order.
	broadcasters []medium.NodeID
}

// captureWorld subscribes to w's medium so its run records probe inputs:
// every stride-th transmission's routing decision inputs, wire frame and
// ALERT envelope, plus who sent local broadcasts.
func captureWorld(w *experiment.World, stride int) *capture {
	c := &capture{stride: stride}
	w.Med.TapSend(func(tx medium.Transmission) {
		if tx.To == medium.BroadcastID {
			if len(c.broadcasters) < maxCaptured {
				c.broadcasters = append(c.broadcasters, tx.From)
			}
		}
		c.seen++
		if c.seen%c.stride != 0 || len(c.frames) >= maxCaptured {
			return
		}
		c.senders = append(c.senders, tx.From)
		f := live.Frame{Kind: live.KindData, From: int32(tx.From), To: live.None,
			SrcPos: tx.FromPos, Prev: live.None, FirstFrom: live.None, FirstTo: live.None}
		if tx.To != medium.BroadcastID {
			f.To = int32(tx.To)
		}
		var env *core.Envelope
		switch p := tx.Payload.(type) {
		case *gpsr.Packet:
			c.steps = append(c.steps, stepInput{cur: tx.From, self: tx.FromPos, dest: p.Dest,
				nbrs: w.Med.NeighborsInto(tx.From, nil)})
			live.FrameFromGPSR(&f, p)
			env, _ = p.Payload.(*core.Envelope)
		case *core.ZoneDelivery:
			env = p.Env
			f.ZoneStep = uint8(p.Step)
			f.Size = uint32(tx.Size)
		default:
			f.Size = uint32(tx.Size)
		}
		if env != nil {
			c.envs = append(c.envs, core.Marshal(env))
			f.Env = new(live.Envelope)
			live.EnvelopeFromCore(f.Env, env)
			f.Flags |= live.FlagEnvelope
		}
		c.frames = append(c.frames, f)
	})
	return c
}

// probePayload is a broadcast payload no protocol handler acts on, so the
// fan-out probe times the medium's delivery sweep alone.
type probePayload struct{}

// probeLayers times the layer functions on the captured inputs of the
// drained world w and stores the per-call costs in rep.
func probeLayers(w *experiment.World, c *capture, rep *report) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ns := func(d time.Duration) float64 { return float64(d) }

	root := w.Rand
	rep.metrics["rng.split_us"] = us(perCall(256, func(i int) { root.SplitIndex("perfbench-probe", i) }))

	n := w.Med.N()
	var nbuf []medium.Neighbor
	rep.metrics["medium.neighbors_into_us"] = us(perCall(n, func(i int) {
		nbuf = w.Med.NeighborsInto(medium.NodeID(i), nbuf)
	}))

	if len(c.steps) > 0 {
		rangeM := w.Med.Params().Range
		closest := w.Scenario.Protocol == experiment.ALERT
		var scratch []medium.Neighbor
		rep.metrics["gpsr.step_ns"] = ns(perCall(len(c.steps), func(i int) {
			in := &c.steps[i]
			st := gpsr.NewForwardState()
			_, _, _, scratch = gpsr.Step(in.cur, in.self, in.self, in.dest, closest, rangeM,
				gpsr.GabrielGraph, in.nbrs, scratch, &st)
		}))
	}

	// The codecs are timed as round trips on inputs already checked to
	// decode, so the timed loops can drop the errors.
	if len(c.envs) > 0 {
		envs := make([]*core.Envelope, len(c.envs))
		for i, b := range c.envs {
			env, err := core.Unmarshal(b)
			if err != nil {
				return fmt.Errorf("probe: captured envelope %d: %w", i, err)
			}
			envs[i] = env
		}
		rep.metrics["core.marshal_ns"] = ns(perCall(len(envs), func(i int) {
			_, _ = core.Unmarshal(core.Marshal(envs[i]))
		}))
	}

	if len(c.frames) > 0 {
		wire := make([][]byte, len(c.frames))
		var f live.Frame
		for i := range c.frames {
			b, err := live.AppendFrame(nil, &c.frames[i])
			if err == nil {
				err = live.DecodeFrame(b, &f)
			}
			if err != nil {
				return fmt.Errorf("probe: captured frame %d: %w", i, err)
			}
			wire[i] = b
		}
		var buf []byte
		rep.metrics["live.append_frame_ns"] = ns(perCall(len(c.frames), func(i int) {
			buf, _ = live.AppendFrame(buf[:0], &c.frames[i])
		}))
		rep.metrics["live.decode_frame_ns"] = ns(perCall(len(wire), func(i int) {
			_ = live.DecodeFrame(wire[i], &f)
		}))
	}

	// Symmetric sealing of packet-sized plaintexts under a key and nonce
	// stream drawn from the world's own root stream.
	keySrc := root.Split("perfbench-seal")
	key := crypt.NewSymKey(keySrc)
	plain := make([]byte, w.Scenario.PacketSize)
	rep.metrics["crypt.sym_seal_us"] = us(perCall(64, func(int) { crypt.SymSeal(key, plain, keySrc) }))

	// Broadcast fan-out: each captured sender (broadcasters first) sends
	// one frame at the same instant and the engine runs the delivery
	// sweeps, so few of the world's own timers fall inside the window.
	from := c.broadcasters
	if len(from) == 0 {
		from = c.senders
	}
	if len(from) > 200 {
		from = from[:200]
	}
	if len(from) > 0 {
		rx0, ev0 := w.Med.Counters().Delivered, w.Eng.Processed()
		start := time.Now()
		last := 0.0
		for _, id := range from {
			last = max(last, w.Med.Broadcast(id, probePayload{}, w.Scenario.PacketSize))
		}
		if err := w.Eng.RunUntil(last); err != nil {
			return fmt.Errorf("probe: broadcast: %w", err)
		}
		d := time.Since(start)
		rx := w.Med.Counters().Delivered - rx0
		if extra := w.Eng.Processed() - ev0 - uint64(len(from)); extra > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: broadcast probe window also ran %d world events\n", extra)
		}
		if rx > 0 {
			rep.metrics["medium.broadcast_us_per_rx"] = us(d) / float64(rx)
			rep.metrics["medium.rx_per_broadcast"] = float64(rx) / float64(len(from))
		}
	}
	return nil
}
