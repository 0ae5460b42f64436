// Package mobility implements the node movement models used in the paper's
// evaluation (Section 5.1): the random waypoint model [17] and the reference
// point group mobility model [18], plus a static placement for baselines.
//
// Positions are computed analytically as a deterministic function of
// simulated time. Each node owns a private random stream, so Position may
// be queried for any node at any time, in any order, and always returns the
// same trajectory for a given experiment seed.
package mobility

import (
	"sort"

	"alertmanet/internal/geo"
	"alertmanet/internal/rng"
)

// Model yields node positions over simulated time.
type Model interface {
	// Position returns the location of node id at time t (seconds).
	// id must be in [0, N()); t must be >= 0.
	Position(id int, t float64) geo.Point
	// N returns the number of nodes.
	N() int
	// Field returns the network area nodes move within.
	Field() geo.Rect
	// MaxSpeed bounds how fast any node moves: for every id and times
	// t0, t1 >= 0, |Position(id, t1) - Position(id, t0)| <=
	// MaxSpeed() * |t1 - t0| (up to float rounding). It is a property of
	// the model, not a setting: 0 for a model whose nodes never move, +Inf
	// for one whose nodes may jump. The medium's broadcast sweep relies on
	// it to skip receivers that cannot have come into range since the last
	// beacon snapshot.
	MaxSpeed() float64
}

// Forker runs fn over a disjoint partition of [0, n) and returns when every
// call has — satisfied by *sim.Workers without importing it. Construction
// loops whose per-index work is independent (per-node walkers with private
// split rng streams) use it to build large fields on all cores; a nil
// Forker means serial. Constructors branch on nil rather than funnel
// through a helper so the serial path allocates no closures.
type Forker interface {
	For(n int, fn func(lo, hi int))
}

// Preparer is implemented by models whose Position reads shared lazily
// extended state (GroupMobility's group reference trajectories). Prepare
// extends that state through time t, so subsequent Position calls at times
// <= t mutate only per-id state and may safely run concurrently over
// disjoint id ranges. Models without shared state (RandomWaypoint's and
// Static's per-node state is already disjoint) do not implement it.
type Preparer interface {
	Prepare(t float64)
}

// leg is one straight movement segment: travel from 'from' toward 'to'
// starting at t0, then pause until pauseEnd.
type leg struct {
	t0       float64
	from, to geo.Point
	speed    float64
	dist     float64 // from.Dist(to), cached for at's interpolation
	arrive   float64 // time the node reaches 'to'
	pauseEnd float64 // end of post-arrival pause; next leg starts here
}

// walker generates a lazy, cached random-waypoint trajectory inside a box.
type walker struct {
	src      *rng.Source
	box      geo.Rect
	minSpeed float64
	maxSpeed float64
	pause    float64
	start    geo.Point
	legs     []leg
}

func newWalker(src *rng.Source, box geo.Rect, minSpeed, maxSpeed, pause float64) *walker {
	w := &walker{src: src, box: box, minSpeed: minSpeed, maxSpeed: maxSpeed, pause: pause}
	w.start = geo.RandomPoint(box, src)
	return w
}

// extend generates legs until the trajectory covers time t.
func (w *walker) extend(t float64) {
	for {
		var cur geo.Point
		var t0 float64
		if n := len(w.legs); n == 0 {
			cur, t0 = w.start, 0
		} else {
			last := w.legs[n-1]
			if last.pauseEnd > t {
				return
			}
			cur, t0 = last.to, last.pauseEnd
		}
		to := geo.RandomPoint(w.box, w.src)
		speed := w.minSpeed
		if w.maxSpeed > w.minSpeed {
			speed = w.src.Uniform(w.minSpeed, w.maxSpeed)
		}
		d := cur.Dist(to)
		var arrive float64
		if speed <= 0 || d == 0 {
			// Stationary node: a single infinite "leg" at cur.
			w.legs = append(w.legs, leg{t0: t0, from: cur, to: cur, speed: 0,
				arrive: t0, pauseEnd: 1e300})
			return
		}
		arrive = t0 + d/speed
		w.legs = append(w.legs, leg{t0: t0, from: cur, to: to, speed: speed,
			dist: d, arrive: arrive, pauseEnd: arrive + w.pause})
	}
}

// at returns the walker's position at time t.
func (w *walker) at(t float64) geo.Point {
	if t < 0 {
		t = 0
	}
	// Inline the already-covered check: once a trajectory reaches past t,
	// extend's loop setup is pure overhead on the hot position path.
	if n := len(w.legs); n == 0 || w.legs[n-1].pauseEnd <= t {
		w.extend(t)
	}
	// Binary search for the leg containing t.
	i := sort.Search(len(w.legs), func(i int) bool { return w.legs[i].pauseEnd > t })
	if i == len(w.legs) {
		i = len(w.legs) - 1
	}
	l := w.legs[i]
	if l.speed == 0 || t >= l.arrive {
		return l.to
	}
	frac := (t - l.t0) * l.speed / l.dist
	if frac > 1 {
		frac = 1
	}
	return l.from.Lerp(l.to, frac)
}

// RandomWaypoint is the classic random waypoint model: each node repeatedly
// picks a uniform destination in the field and travels to it in a straight
// line at its speed, optionally pausing on arrival. The paper moves nodes at
// a fixed speed (2 m/s default, up to 8 m/s in sweeps) with no pause.
type RandomWaypoint struct {
	field    geo.Rect
	walkers  []*walker
	warmup   float64
	maxSpeed float64
}

// Config holds the common mobility parameters.
type Config struct {
	// MinSpeed and MaxSpeed bound the per-leg speed in m/s. Setting both
	// equal gives the paper's fixed-speed movement; MaxSpeed <= 0 means
	// static nodes.
	MinSpeed, MaxSpeed float64
	// Pause is the dwell time at each waypoint in seconds.
	Pause float64
	// Warmup pre-advances every trajectory by this many seconds, so the
	// observed window starts near the random waypoint model's steady
	// state (center-weighted) instead of the uniform initial placement —
	// the classic RWP initialization-bias correction.
	Warmup float64
	// Fork, when non-nil, parallelizes per-node construction. Each node's
	// walker draws only from its own index-split rng stream, so the
	// trajectories are identical for any Fork degree; only build wall time
	// changes.
	Fork Forker `json:"-"`
}

// speedBound is the fastest any walker built from the config can move: a
// leg's speed is MinSpeed, or uniform in [MinSpeed, MaxSpeed], and a
// non-positive speed means a stationary node.
func (c Config) speedBound() float64 { return max(c.MinSpeed, c.MaxSpeed, 0) }

// Fixed returns a Config with a single fixed speed and no pause.
func Fixed(speed float64) Config {
	return Config{MinSpeed: speed, MaxSpeed: speed}
}

// NewRandomWaypoint creates a random waypoint model for n nodes on field.
func NewRandomWaypoint(field geo.Rect, n int, cfg Config, src *rng.Source) *RandomWaypoint {
	m := &RandomWaypoint{field: field, walkers: make([]*walker, n), warmup: cfg.Warmup,
		maxSpeed: cfg.speedBound()}
	// SplitIndex derives each stream from the immutable parent seed, and
	// every walker draws only from its own stream, so construction order is
	// free: the parallel build is trajectory-identical to the serial one.
	if cfg.Fork == nil {
		for i := 0; i < n; i++ {
			m.walkers[i] = newWalker(src.SplitIndex("rwp", i), field,
				cfg.MinSpeed, cfg.MaxSpeed, cfg.Pause)
		}
		return m
	}
	cfg.Fork.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.walkers[i] = newWalker(src.SplitIndex("rwp", i), field,
				cfg.MinSpeed, cfg.MaxSpeed, cfg.Pause)
		}
	})
	return m
}

// Position implements Model.
func (m *RandomWaypoint) Position(id int, t float64) geo.Point {
	return m.walkers[id].at(t + m.warmup)
}

// N implements Model.
func (m *RandomWaypoint) N() int { return len(m.walkers) }

// Field implements Model.
func (m *RandomWaypoint) Field() geo.Rect { return m.field }

// MaxSpeed implements Model: no leg is faster than the config's speed bound.
func (m *RandomWaypoint) MaxSpeed() float64 { return m.maxSpeed }

// Static places nodes uniformly at random and never moves them.
type Static struct {
	field     geo.Rect
	positions []geo.Point
}

// NewStatic creates a static uniform placement of n nodes.
func NewStatic(field geo.Rect, n int, src *rng.Source) *Static {
	s := &Static{field: field, positions: make([]geo.Point, n)}
	placement := src.Split("static")
	for i := range s.positions {
		s.positions[i] = geo.RandomPoint(field, placement)
	}
	return s
}

// Position implements Model.
func (s *Static) Position(id int, _ float64) geo.Point { return s.positions[id] }

// N implements Model.
func (s *Static) N() int { return len(s.positions) }

// Field implements Model.
func (s *Static) Field() geo.Rect { return s.field }

// MaxSpeed implements Model: static nodes never move.
func (s *Static) MaxSpeed() float64 { return 0 }

// GroupMobility is the reference point group mobility model [18]: nodes are
// divided into groups; each group has a logical reference point performing
// random waypoint movement over the field, and each member wanders within a
// bounded box (the group's "movement range", e.g. 150 m for 10 groups or
// 200 m for 5 groups in the paper) around that reference point.
type GroupMobility struct {
	field      geo.Rect
	refs       []*walker // one per group
	local      []*walker // one per node, in a box centered at the origin
	groupOf    []int
	groupRange float64
	maxSpeed   float64
}

// NewGroupMobility creates a group mobility model: n nodes in numGroups
// groups, each confined within a groupRange x groupRange box around its
// moving reference point. Nodes are assigned to groups contiguously.
func NewGroupMobility(field geo.Rect, n, numGroups int, groupRange float64,
	cfg Config, src *rng.Source) *GroupMobility {
	if numGroups < 1 {
		numGroups = 1
	}
	g := &GroupMobility{
		field:      field,
		refs:       make([]*walker, numGroups),
		local:      make([]*walker, n),
		groupOf:    make([]int, n),
		groupRange: groupRange,
		// The reference point moves at up to the config's speed bound and
		// the local offset at up to half of it; Clamp is a projection onto
		// the field, so it never lengthens a step.
		maxSpeed: 1.5 * cfg.speedBound(),
	}
	// Shrink the reference field so member boxes stay mostly inside.
	half := groupRange / 2
	refField := geo.Rect{
		Min: geo.Point{X: field.Min.X + half, Y: field.Min.Y + half},
		Max: geo.Point{X: field.Max.X - half, Y: field.Max.Y - half},
	}
	if refField.Empty() {
		refField = field
	}
	localBox := geo.Rect{Min: geo.Point{X: -half, Y: -half}, Max: geo.Point{X: half, Y: half}}
	// Members drift within their box at a fraction of the group speed,
	// which keeps intra-group topology relatively stable — the property
	// the paper leans on ("nodes are less randomly distributed in the
	// group mobility model"). The loops are written out twice so the
	// serial path allocates no closures.
	if cfg.Fork == nil {
		for gi := 0; gi < numGroups; gi++ {
			g.refs[gi] = newWalker(src.SplitIndex("group-ref", gi), refField,
				cfg.MinSpeed, cfg.MaxSpeed, cfg.Pause)
		}
		for i := 0; i < n; i++ {
			g.groupOf[i] = i * numGroups / n
			g.local[i] = newWalker(src.SplitIndex("group-local", i), localBox,
				cfg.MinSpeed/2, cfg.MaxSpeed/2, cfg.Pause)
		}
		return g
	}
	cfg.Fork.For(numGroups, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			g.refs[gi] = newWalker(src.SplitIndex("group-ref", gi), refField,
				cfg.MinSpeed, cfg.MaxSpeed, cfg.Pause)
		}
	})
	cfg.Fork.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.groupOf[i] = i * numGroups / n
			g.local[i] = newWalker(src.SplitIndex("group-local", i), localBox,
				cfg.MinSpeed/2, cfg.MaxSpeed/2, cfg.Pause)
		}
	})
	return g
}

// Prepare implements Preparer: it extends every group's shared reference
// trajectory through time t, after which Position calls at times <= t only
// read the reference legs and mutate the caller's own local walker.
func (g *GroupMobility) Prepare(t float64) {
	for _, r := range g.refs {
		r.extend(t)
	}
}

// Position implements Model: reference point plus bounded local offset,
// clamped to the field.
func (g *GroupMobility) Position(id int, t float64) geo.Point {
	ref := g.refs[g.groupOf[id]].at(t)
	off := g.local[id].at(t)
	return g.field.Clamp(geo.Point{X: ref.X + off.X, Y: ref.Y + off.Y})
}

// N implements Model.
func (g *GroupMobility) N() int { return len(g.local) }

// Field implements Model.
func (g *GroupMobility) Field() geo.Rect { return g.field }

// MaxSpeed implements Model: reference speed plus local drift speed.
func (g *GroupMobility) MaxSpeed() float64 { return g.maxSpeed }

// Groups returns the number of groups.
func (g *GroupMobility) Groups() int { return len(g.refs) }

// GroupOf returns the group index of a node.
func (g *GroupMobility) GroupOf(id int) int { return g.groupOf[id] }

// NodesIn returns the ids of all nodes of m located inside zone at time t.
func NodesIn(m Model, zone geo.Rect, t float64) []int {
	return NodesInInto(m, zone, t, nil)
}

// NodesInInto is NodesIn with a caller-reusable destination: ids are
// appended to dst[:0] and the (possibly regrown) slice is returned, so a
// loop over many zones reuses one backing array instead of regrowing a
// fresh slice per query.
func NodesInInto(m Model, zone geo.Rect, t float64, dst []int) []int {
	ids := dst[:0]
	for id := 0; id < m.N(); id++ {
		if zone.Contains(m.Position(id, t)) {
			ids = append(ids, id)
		}
	}
	return ids
}

// Nearest returns the id of the node of m closest to p at time t, and its
// distance. It returns (-1, +Inf) for an empty model.
func Nearest(m Model, p geo.Point, t float64) (int, float64) {
	best := -1
	bestD2 := 1e300
	for id := 0; id < m.N(); id++ {
		d2 := m.Position(id, t).Dist2(p)
		if d2 < bestD2 {
			best, bestD2 = id, d2
		}
	}
	if best < 0 {
		return -1, 1e300
	}
	return best, m.Position(best, t).Dist(p)
}
