package medium

import (
	"math"
	"slices"
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/mobility"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

// sweepOutcome is everything a broadcast sweep decides: who received, in
// what order, the range/loss tallies, and where it left the loss-coin
// stream.
type sweepOutcome struct {
	rx                             []NodeID
	delivered, dropRange, dropLoss uint64
	nextDraw                       float64
}

// bruteSweep is the reference the prefiltered sweep must match: every node's
// true position against the sender's, through Dist, in ascending id order,
// one loss coin per in-range receiver.
func bruteSweep(m *Medium, from NodeID, rx *[]NodeID) {
	now := m.eng.Now()
	pf := m.mob.Position(int(from), now)
	for id := range m.handlers {
		if NodeID(id) == from {
			continue
		}
		if pf.Dist(m.mob.Position(id, now)) > m.par.Range {
			m.counters.DroppedRange++
			continue
		}
		if m.src.Bernoulli(m.par.LossRate) {
			m.counters.DroppedLoss++
			continue
		}
		m.counters.Delivered++
		*rx = append(*rx, NodeID(id))
	}
}

// runSweeps builds a fresh medium over mob and runs one broadcast sweep per
// (instant, sender) pair — through the real bcastSend, or through bruteSweep
// when brute is set.
func runSweeps(mob mobility.Model, par Params, degree int, instants []float64,
	senders []NodeID, brute bool) sweepOutcome {
	eng := sim.NewEngine()
	if degree > 1 {
		eng.SetWorkers(sim.NewWorkers(degree))
	}
	med := MustNew(eng, mob, par, rng.New(91))
	var out sweepOutcome
	for id := range med.handlers {
		id := NodeID(id)
		med.Attach(id, func(NodeID, any, int) { out.rx = append(out.rx, id) })
	}
	for _, at := range instants {
		eng.At(at, func() {
			for _, from := range senders {
				if brute {
					bruteSweep(med, from, &out.rx)
					continue
				}
				b := &bcastSend{m: med, from: from, payload: "x", size: 64}
				b.RunEvent()
			}
		})
	}
	eng.Run()
	c := med.Counters()
	out.delivered, out.dropRange, out.dropLoss = c.Delivered, c.DroppedRange, c.DroppedLoss
	out.nextDraw = med.src.Float64()
	return out
}

// headOn places receivers on rays toward a fixed sender, each closing at the
// model's full speed so that it crosses the range boundary right around the
// probed instants — the cases the prefilter's reach margin exists for.
func headOn(par Params, speed float64, probe float64) *movingModel {
	c := geo.Point{X: 500, Y: 500}
	m := &movingModel{start: []geo.Point{c}, vel: []geo.Point{{}}}
	for k := 0; k < 24; k++ {
		a := 2 * math.Pi * float64(k) / 24
		ux, uy := math.Cos(a), math.Sin(a)
		// Distance exactly Range at time probe, plus a nanometre spread
		// so some land just inside and some just outside.
		d0 := par.Range + speed*probe + float64(k%3-1)*1e-9
		m.start = append(m.start, geo.Point{X: c.X + ux*d0, Y: c.Y + uy*d0})
		m.vel = append(m.vel, geo.Point{X: -ux * speed, Y: -uy * speed})
	}
	return m
}

func TestBroadcastSweepMatchesBruteForce(t *testing.T) {
	par := DefaultParams()
	par.LossRate = 0.3
	par.HelloInterval = 2
	h := par.HelloInterval
	// Each instant exactly on a beacon tick, and just before the next one
	// (where the snapshot is stalest and the reach margin widest).
	var instants []float64
	for k := 1; k <= 6; k++ {
		instants = append(instants, float64(k)*h, math.Nextafter(float64(k+1)*h, 0))
	}
	senders := []NodeID{0, 7, 19, 3}
	models := []struct {
		name string
		mob  func() mobility.Model
	}{
		{"rwp", func() mobility.Model {
			return mobility.NewRandomWaypoint(field, 200, mobility.Config{MinSpeed: 2, MaxSpeed: 20, Pause: 1},
				rng.New(81))
		}},
		{"group 10/150", func() mobility.Model {
			return mobility.NewGroupMobility(field, 200, 10, 150, mobility.Fixed(15), rng.New(82))
		}},
		{"group 5/200", func() mobility.Model {
			return mobility.NewGroupMobility(field, 200, 5, 200, mobility.Fixed(15), rng.New(83))
		}},
		{"moving", func() mobility.Model {
			// Includes the sender-side motion the 2x in the reach covers.
			m := headOn(par, 10, instants[5]-2*h)
			m.vel[0] = geo.Point{X: 3, Y: -4}
			return m
		}},
		{"head-on", func() mobility.Model { return headOn(par, 10, instants[3]) }},
		{"window (+Inf speed)", func() mobility.Model {
			return &windowModel{
				base: []geo.Point{{X: 500, Y: 500}, {X: 600, Y: 500}, {X: 900, Y: 900}, {X: 500, Y: 740}},
				far:  geo.Point{X: 510, Y: 510},
				id:   2,
				from: instants[2] - 0.5,
				to:   instants[4] + 0.5,
			}
		}},
	}
	for _, mc := range models {
		for _, degree := range []int{1, 2} {
			snd := senders
			if n := mc.mob().N(); n < 20 {
				snd = []NodeID{0, NodeID(n - 1)}
			}
			got := runSweeps(mc.mob(), par, degree, instants, snd, false)
			want := runSweeps(mc.mob(), par, degree, instants, snd, true)
			if !slices.Equal(got.rx, want.rx) {
				t.Fatalf("%s, degree %d: receivers\n got %v\nwant %v", mc.name, degree, got.rx, want.rx)
			}
			if got.delivered != want.delivered || got.dropRange != want.dropRange || got.dropLoss != want.dropLoss {
				t.Fatalf("%s, degree %d: delivered/range/loss = %d/%d/%d, want %d/%d/%d", mc.name, degree,
					got.delivered, got.dropRange, got.dropLoss, want.delivered, want.dropRange, want.dropLoss)
			}
			if got.nextDraw != want.nextDraw {
				t.Fatalf("%s, degree %d: loss-coin stream diverged", mc.name, degree)
			}
			if want.delivered == 0 || want.dropLoss == 0 || want.dropRange == 0 {
				t.Fatalf("%s, degree %d: degenerate oracle %+v", mc.name, degree, want)
			}
		}
	}
}

// BenchmarkBroadcastSweep measures one broadcast and its delivery sweep at
// evaluation scale: 200 random waypoint nodes at 2 m/s on the 1000 m field.
func BenchmarkBroadcastSweep(b *testing.B) {
	const n = 200
	eng := sim.NewEngine()
	mob := mobility.NewRandomWaypoint(field, n, mobility.Fixed(2), rng.New(1))
	med := MustNew(eng, mob, DefaultParams(), rng.New(2))
	rx := 0
	for id := 0; id < n; id++ {
		med.Attach(NodeID(id), func(NodeID, any, int) { rx++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med.Broadcast(NodeID(i%n), nil, 512)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rx)/float64(b.N), "rx/op")
}
