package medium

import (
	"math"
	"reflect"
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

// windowModel pins nodes at fixed positions except that one node teleports
// to a far position during (from, to) — a deterministic way to break a link
// for exactly one frame's flight window.
type windowModel struct {
	base     []geo.Point
	far      geo.Point
	id       int
	from, to float64
}

func (w *windowModel) Position(id int, t float64) geo.Point {
	if id == w.id && t > w.from && t < w.to {
		return w.far
	}
	return w.base[id]
}
func (w *windowModel) N() int          { return len(w.base) }
func (w *windowModel) Field() geo.Rect { return field }

// MaxSpeed implements mobility.Model: the teleport is a jump.
func (w *windowModel) MaxSpeed() float64 { return math.Inf(1) }

// noJitter returns the default ARQ parameters with the MAC jitter removed so
// every transmission and backoff lands at an exactly computable instant.
func noJitter() Params {
	par := DefaultParams()
	par.MACDelayMean = 0
	return par
}

func TestARQValidation(t *testing.T) {
	eng := sim.NewEngine()
	mob := newFixed(geo.Point{}, geo.Point{X: 10})
	par := noJitter()
	par.Retries = -1
	if _, err := New(eng, mob, par, rng.New(1)); err == nil {
		t.Fatal("negative Retries should be an error")
	}
	par = noJitter()
	par.AckSize = 0
	if _, err := New(eng, mob, par, rng.New(1)); err == nil {
		t.Fatal("ARQ without an ACK size should be an error")
	}
	par = noJitter()
	par.RetryBackoff = 0
	if _, err := New(eng, mob, par, rng.New(1)); err == nil {
		t.Fatal("ARQ without a backoff should be an error")
	}
	par = noJitter()
	par.Retries = 0
	par.AckSize = 0
	par.RetryBackoff = 0
	if _, err := New(eng, mob, par, rng.New(1)); err != nil {
		t.Fatalf("Retries=0 should not require ACK parameters: %v", err)
	}
}

func TestARQRetryRecoversLoss(t *testing.T) {
	// First attempt hits LossRate=1; the loss window closes before the
	// retransmission arrives, so the ARQ recovers what fire-and-forget
	// would have lost.
	par := noJitter()
	par.LossRate = 1
	mob := newFixed(geo.Point{}, geo.Point{X: 100})
	eng, med := setup(mob, par)
	got := 0
	med.Attach(1, func(NodeID, any, int) { got++ })
	var out SendOutcome
	outs := 0
	med.UnicastOutcome(0, 1, "x", 64, func(o SendOutcome) { out = o; outs++ })
	eng.Schedule(0.5e-3, func() { med.SetLossRate(0) }) // after attempt 1 fails
	eng.Run()
	if got != 1 {
		t.Fatalf("handler fired %d times", got)
	}
	if outs != 1 || out != SendDelivered {
		t.Fatalf("outcome = %v (fired %d times)", out, outs)
	}
	c := med.Counters()
	if c.DroppedLoss != 1 || c.Retransmissions != 1 || c.Delivered != 1 || c.AcksSent != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestARQBackoffTiming(t *testing.T) {
	// Receiver permanently out of range: the ARQ burns its whole budget.
	// With the jitter removed, attempt k's arrival instant is exactly
	// k*d + (2^(k-1)-1)*b (d = data tx delay, b = base backoff), so the
	// terminal SendLost resolves at 4d + 7b for Retries = 3.
	par := noJitter()
	mob := newFixed(geo.Point{}, geo.Point{X: 300})
	eng, med := setup(mob, par)
	var at float64
	var out SendOutcome
	med.UnicastOutcome(0, 1, "x", 64, func(o SendOutcome) { out = o; at = eng.Now() })
	eng.Run()
	d := 64 * 8 / par.Bitrate
	want := 4*d + 7*par.RetryBackoff
	if out != SendLost {
		t.Fatalf("outcome = %v", out)
	}
	if math.Abs(at-want) > 1e-12 {
		t.Fatalf("resolved at %v, want %v", at, want)
	}
	c := med.Counters()
	if c.DroppedRange != 4 || c.Retransmissions != 3 || c.AcksSent != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestARQRetriesZeroFireAndForget(t *testing.T) {
	// Retries=0 reproduces the pre-ARQ channel: one attempt, no ACK
	// frames or bytes, delivery at the bare transmission delay, and the
	// outcome resolves at that same instant.
	par := noJitter()
	par.Retries = 0
	mob := newFixed(geo.Point{}, geo.Point{X: 100})
	eng, med := setup(mob, par)
	var rx float64
	med.Attach(1, func(NodeID, any, int) { rx = eng.Now() })
	var out SendOutcome
	var at float64
	med.UnicastOutcome(0, 1, "x", 512, func(o SendOutcome) { out = o; at = eng.Now() })
	eng.Run()
	d := 512 * 8 / par.Bitrate
	if rx != d || at != d || out != SendDelivered {
		t.Fatalf("rx=%v resolved=%v out=%v, want both at %v delivered", rx, at, out, d)
	}
	c := med.Counters()
	if c.AcksSent != 0 || c.Retransmissions != 0 || c.TxBytes != 512 || c.RxBytes != 512 {
		t.Fatalf("counters = %+v", c)
	}

	// And a loss resolves SendLost on the first (only) attempt.
	med.SetLossRate(1)
	out = 255
	med.UnicastOutcome(0, 1, "x", 512, func(o SendOutcome) { out = o })
	eng.Run()
	if out != SendLost {
		t.Fatalf("outcome = %v", out)
	}
	if c := med.Counters(); c.DroppedLoss != 1 || c.Retransmissions != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestARQCompromisedSenderOutcome(t *testing.T) {
	// A compromised relay sinking its own transmission is a distinct
	// terminal outcome, not a generic loss.
	mob := newFixed(geo.Point{}, geo.Point{X: 100})
	eng, med := setup(mob, noJitter())
	med.Attach(1, func(NodeID, any, int) { t.Error("sunk frame delivered") })
	med.Compromise(0)
	var out SendOutcome
	outs := 0
	med.UnicastOutcome(0, 1, "x", 64, func(o SendOutcome) { out = o; outs++ })
	eng.Run()
	if outs != 1 || out != SendCompromised {
		t.Fatalf("outcome = %v (fired %d times)", out, outs)
	}
	if c := med.Counters(); c.DroppedCompromised != 1 || c.Retransmissions != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestARQAckImmuneToCompromisedReceiver(t *testing.T) {
	// ACKs are MAC-level control traffic: a compromised receiver sinks
	// the packets it should forward, not its link-layer responses — so
	// the sender still learns the frame arrived.
	mob := newFixed(geo.Point{}, geo.Point{X: 100})
	eng, med := setup(mob, noJitter())
	got := 0
	med.Attach(1, func(NodeID, any, int) { got++ })
	med.Compromise(1)
	var out SendOutcome
	med.UnicastOutcome(0, 1, "x", 64, func(o SendOutcome) { out = o })
	eng.Run()
	if got != 1 || out != SendDelivered {
		t.Fatalf("got=%d outcome=%v", got, out)
	}
}

func TestARQDuplicateAbsorbed(t *testing.T) {
	// The receiver teleports out of range exactly during the first ACK's
	// flight: the data arrived but the sender hears silence and
	// retransmits. The duplicate must not re-fire the handler, and the
	// second ACK resolves the send delivered.
	par := noJitter()
	d := 64 * 8 / par.Bitrate // 0.256 ms data flight
	mob := &windowModel{
		base: []geo.Point{{}, {X: 100}},
		far:  geo.Point{X: 10000},
		id:   1,
		from: d + 0.2e-4, // after data1 arrives at d...
		to:   d + 1.0e-4, // ...but past ack1's arrival at d + 0.056 ms
	}
	eng := sim.NewEngine()
	med := MustNew(eng, mob, par, rng.New(1))
	got := 0
	med.Attach(1, func(NodeID, any, int) { got++ })
	var out SendOutcome
	outs := 0
	med.UnicastOutcome(0, 1, "x", 64, func(o SendOutcome) { out = o; outs++ })
	eng.Run()
	if got != 1 {
		t.Fatalf("handler fired %d times", got)
	}
	if outs != 1 || out != SendDelivered {
		t.Fatalf("outcome = %v (fired %d times)", out, outs)
	}
	c := med.Counters()
	if c.Duplicates != 1 || c.AcksSent != 2 || c.AcksLost != 1 || c.Delivered != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Retransmissions != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// arqTraceEvent is one observed fact of a lossy run, for determinism
// comparison.
type arqTraceEvent struct {
	At  float64
	Out SendOutcome
}

func TestARQDeterministicOnInjectedSource(t *testing.T) {
	// Two identically seeded runs over a lossy channel must produce
	// bit-identical outcome traces and counters: all ARQ randomness
	// (loss coins, MAC jitter for data and ACK frames) rides the
	// injected rng.Source, never an ambient stream.
	run := func() ([]arqTraceEvent, Counters) {
		par := DefaultParams() // jitter on: exercises the rng draws
		par.LossRate = 0.3
		mob := newFixed(geo.Point{}, geo.Point{X: 100})
		eng := sim.NewEngine()
		med := MustNew(eng, mob, par, rng.New(7))
		med.Attach(1, func(NodeID, any, int) {})
		var trace []arqTraceEvent
		for i := 0; i < 200; i++ {
			at := float64(i) * 0.05
			eng.At(at, func() {
				med.UnicastOutcome(0, 1, "x", 64, func(o SendOutcome) {
					trace = append(trace, arqTraceEvent{At: eng.Now(), Out: o})
				})
			})
		}
		eng.Run()
		return trace, med.Counters()
	}
	t1, c1 := run()
	t2, c2 := run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("outcome traces differ between identically seeded runs")
	}
	if c1 != c2 {
		t.Fatalf("counters differ:\n%+v\n%+v", c1, c2)
	}
	if len(t1) != 200 {
		t.Fatalf("resolved %d of 200 sends", len(t1))
	}
}

func TestBroadcastCountsOutOfRangeReceivers(t *testing.T) {
	// Per-receiver range drops land in the counters, symmetric with
	// Unicast (a broadcast is one transmission, many potential receivers).
	mob := newFixed(
		geo.Point{},             // sender
		geo.Point{X: 100},       // in range
		geo.Point{X: 300},       // out of range
		geo.Point{X: 0, Y: 400}, // out of range
	)
	eng, med := setup(mob, noJitter())
	for i := 1; i <= 3; i++ {
		med.Attach(NodeID(i), func(NodeID, any, int) {})
	}
	med.Broadcast(0, "b", 64)
	eng.Run()
	c := med.Counters()
	if c.DroppedRange != 2 || c.Delivered != 1 {
		t.Fatalf("counters = %+v", c)
	}
}
