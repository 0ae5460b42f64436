// Package geo provides the planar geometry underlying ALERT: points,
// rectangles, and the hierarchical zone partition (alternating vertical and
// horizontal bisections) used both to compute the destination zone Z_D and
// to choose temporary destinations during routing (Shen & Zhao, Sections
// 2.3-2.4).
package geo

import (
	"fmt"
	"math"
)

// Point is a position in the network field, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared euclidean distance (cheaper; for comparisons).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// withinBand is the relative margin around r² inside which Within defers to
// the exact Dist comparison. It dwarfs the few-ulp rounding of dx²+dy², r²
// and Hypot, so outside it the squared test cannot disagree with Dist.
const withinBand = 1e-9

// Within reports whether q lies within distance r of p. It returns exactly
// p.Dist(q) <= r, but decides from dx²+dy² — no square root — whenever that
// value is clear of r² by more than a relative withinBand. Pairs inside the
// band, and radii outside [1e-100, 1e100] (where r² or the squares could
// underflow or overflow, or r is negative, NaN or infinite), fall back to
// Dist itself, so the answer is always Dist's.
func (p Point) Within(q Point, r float64) bool {
	dx, dy := p.X-q.X, p.Y-q.Y
	if r >= 1e-100 && r <= 1e100 {
		d2, r2 := dx*dx+dy*dy, r*r
		if d2 < r2*(1-withinBand) {
			return true
		}
		if d2 > r2*(1+withinBand) {
			return false
		}
	}
	return math.Hypot(dx, dy) <= r
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [Min.X, Max.X] x [Min.Y, Max.Y].
// The paper describes zone positions by their "upper left and bottom-right"
// corners; with our y-up convention those are (Min.X, Max.Y) and
// (Max.X, Min.Y) — the same rectangle.
type Rect struct {
	Min, Max Point
}

// NewRect builds the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the extent along X.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent along Y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area (the paper's zone size G for the field).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies in the closed rectangle. Points exactly on
// a shared cut line of a bisection are contained in both halves; Side gives
// the deterministic assignment used by the partition logic.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Intersects reports whether the two closed rectangles share any point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// Empty reports whether the rectangle has zero or negative extent.
func (r Rect) Empty() bool { return r.Width() <= 0 || r.Height() <= 0 }

func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// Direction selects the orientation of a partition cut.
type Direction uint8

const (
	// Vertical cuts with a vertical line, splitting the X range. The
	// paper's destination-zone construction performs the first cut
	// vertically (Section 2.4).
	Vertical Direction = iota
	// Horizontal cuts with a horizontal line, splitting the Y range.
	Horizontal
)

// Flip returns the other direction; ALERT alternates cut directions and each
// random forwarder flips the packet's direction bit (Section 2.5).
func (d Direction) Flip() Direction {
	if d == Vertical {
		return Horizontal
	}
	return Vertical
}

func (d Direction) String() string {
	if d == Vertical {
		return "vertical"
	}
	return "horizontal"
}

// Bisect splits r into two equal halves along the given direction. For a
// Vertical cut, lo is the left half and hi the right; for Horizontal, lo is
// the bottom half and hi the top.
func (r Rect) Bisect(d Direction) (lo, hi Rect) {
	c := r.Center()
	if d == Vertical {
		lo = Rect{r.Min, Point{c.X, r.Max.Y}}
		hi = Rect{Point{c.X, r.Min.Y}, r.Max}
		return lo, hi
	}
	lo = Rect{r.Min, Point{r.Max.X, c.Y}}
	hi = Rect{Point{r.Min.X, c.Y}, r.Max}
	return lo, hi
}

// Side returns the half of r (after a cut in direction d) that p is assigned
// to: points strictly below the cut line go to lo, all others to hi. This
// gives a deterministic assignment for points exactly on the cut.
func (r Rect) Side(d Direction, p Point) Rect {
	lo, hi := r.Bisect(d)
	if d == Vertical {
		if p.X < lo.Max.X {
			return lo
		}
		return hi
	}
	if p.Y < lo.Max.Y {
		return lo
	}
	return hi
}

// SideIndex is like Side but returns 0 for the lo half and 1 for the hi half.
func (r Rect) SideIndex(d Direction, p Point) int {
	c := r.Center()
	if d == Vertical {
		if p.X < c.X {
			return 0
		}
		return 1
	}
	if p.Y < c.Y {
		return 0
	}
	return 1
}

// uniformSource is the randomness geo needs for TD selection; satisfied by
// *rng.Source without importing it (keeps geo dependency-free).
type uniformSource interface {
	Uniform(lo, hi float64) float64
}

// RandomPoint returns a point uniformly distributed in r.
func RandomPoint(r Rect, src uniformSource) Point {
	return Point{
		X: src.Uniform(r.Min.X, r.Max.X),
		Y: src.Uniform(r.Min.Y, r.Max.Y),
	}
}

// SideLengths implements Eqs. (1)-(2) of the paper: the side lengths of the
// h-th partitioned zone of an lA x lB field when the first cut is vertical.
//
//	a(h, lA) = lA / 2^ceil(h/2)   (X side; vertical cuts halve X first)
//	b(h, lB) = lB / 2^floor(h/2)  (Y side)
//
// Note the paper writes a(h,lA)=lA/2^floor(h/2) for a horizontal-first
// sequence; we expose the vertical-first convention used by its Section 2.4
// example and keep both floor/ceil pairs consistent.
func SideLengths(h int, lA, lB float64) (a, b float64) {
	if h < 0 {
		h = 0
	}
	xCuts := (h + 1) / 2 // ceil(h/2): cuts 1,3,5,... are vertical
	yCuts := h / 2       // floor(h/2): cuts 2,4,6,... are horizontal
	return lA / math.Pow(2, float64(xCuts)), lB / math.Pow(2, float64(yCuts))
}

// PartitionsForK implements H = log2(rho*G/k) (Section 2.4): the number of
// bisections needed so the final zone holds about k of the N = rho*G nodes.
// The result is rounded to the nearest non-negative integer.
func PartitionsForK(totalNodes int, k int) int {
	if totalNodes <= 0 || k <= 0 || k >= totalNodes {
		return 0
	}
	h := math.Round(math.Log2(float64(totalNodes) / float64(k)))
	if h < 0 {
		return 0
	}
	return int(h)
}

// DestZone computes the destination zone Z_D: starting from the whole field,
// perform exactly h bisections, alternating direction starting with first,
// each time keeping the half that contains d (Section 2.4). The source
// computes this once and embeds the zone position in the packet; forwarders
// never see D's position.
func DestZone(field Rect, d Point, h int, first Direction) Rect {
	zone := field
	dir := first
	for i := 0; i < h; i++ {
		zone = zone.Side(dir, d)
		dir = dir.Flip()
	}
	return zone
}

// ZonePath returns the sequence of nested zones produced while computing
// DestZone, including the field itself; ZonePath(...)[h] is the destination
// zone. Used by tests and by the analysis package.
func ZonePath(field Rect, d Point, h int, first Direction) []Rect {
	path := make([]Rect, 0, h+1)
	zone := field
	path = append(path, zone)
	dir := first
	for i := 0; i < h; i++ {
		zone = zone.Side(dir, d)
		path = append(path, zone)
		dir = dir.Flip()
	}
	return path
}

// SeparateResult is the outcome of one routing-partition step (Section 2.3).
type SeparateResult struct {
	// Separated reports whether the forwarder ended up in a different
	// half than Z_D. When false, the forwarder is inside (or effectively
	// at) the destination zone and the last-leg broadcast should begin.
	Separated bool
	// SelfZone is the half containing the forwarder (valid when Separated).
	SelfZone Rect
	// OtherZone is the half containing Z_D, from which the temporary
	// destination is drawn (valid when Separated).
	OtherZone Rect
	// Cuts is how many bisections this step performed (>= 1 when any
	// progress was possible).
	Cuts int
	// NextDir is the direction the next partition should start with.
	NextDir Direction
}

// Separate performs the forwarder's partition loop: bisect zone in
// alternating directions, starting with dir, always recursing into the half
// containing both the forwarder and Z_D, until the forwarder and Z_D fall
// into different halves. Z_D's half is identified by its center (the
// canonical hierarchy guarantees Z_D never straddles a cut when the phase
// matches; the center rule keeps the step well-defined for any phase).
//
// maxCuts bounds the loop (use H - h, the divisions remaining); when the
// bound is hit, or the zone has shrunk to Z_D itself, Separated is false.
func Separate(zone Rect, self Point, zd Rect, dir Direction, maxCuts int) SeparateResult {
	return SeparateWithPolicy(zone, self, zd, dir, maxCuts, true)
}

// SeparateWithPolicy is Separate with the cut-direction policy exposed:
// alternate=true flips the direction after every cut (the paper's design,
// which keeps zones squarish so each temporary destination approaches D);
// alternate=false keeps cutting the same axis, producing ever-thinner slab
// zones — the ablation DESIGN.md calls out.
func SeparateWithPolicy(zone Rect, self Point, zd Rect, dir Direction, maxCuts int,
	alternate bool) SeparateResult {
	res := SeparateResult{NextDir: dir}
	for res.Cuts < maxCuts {
		if zd.ContainsRect(zone) || zone.Area() <= zd.Area() {
			// Zone no longer bigger than Z_D: nothing to separate.
			return res
		}
		lo, hi := zone.Bisect(dir)
		selfHi := zone.SideIndex(dir, self) == 1
		zdHi := zone.SideIndex(dir, zd.Center()) == 1
		res.Cuts++
		if alternate {
			dir = dir.Flip()
		}
		res.NextDir = dir
		if selfHi != zdHi {
			res.Separated = true
			if selfHi {
				res.SelfZone, res.OtherZone = hi, lo
			} else {
				res.SelfZone, res.OtherZone = lo, hi
			}
			return res
		}
		if selfHi {
			zone = hi
		} else {
			zone = lo
		}
	}
	return res
}
