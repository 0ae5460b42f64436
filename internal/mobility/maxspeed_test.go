package mobility

import (
	"math"
	"strings"
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/rng"
)

// checkMaxSpeed samples random (id, t0, t1) triples — half of them a short
// step apart, where a speed violation is least diluted — and asserts the
// MaxSpeed contract |P(t1) - P(t0)| <= MaxSpeed * |t1 - t0|.
func checkMaxSpeed(t *testing.T, m Model, seed int64) {
	t.Helper()
	v := m.MaxSpeed()
	if math.IsNaN(v) || v < 0 {
		t.Fatalf("MaxSpeed = %v", v)
	}
	src := rng.New(seed)
	for i := 0; i < 4000; i++ {
		id := src.Intn(m.N())
		t0 := src.Uniform(0, 300)
		t1 := src.Uniform(0, 300)
		if i%2 == 0 {
			t1 = t0 + src.Uniform(0, 1)
		}
		d := m.Position(id, t0).Dist(m.Position(id, t1))
		if bound := v * math.Abs(t1-t0); d > bound+1e-9 {
			t.Fatalf("node %d moved %v m between t=%v and t=%v, bound %v (MaxSpeed %v)",
				id, d, t0, t1, bound, v)
		}
	}
}

func TestMaxSpeedRandomWaypoint(t *testing.T) {
	cfg := Config{MinSpeed: 1, MaxSpeed: 8, Pause: 3, Warmup: 50}
	m := NewRandomWaypoint(field, 30, cfg, rng.New(41))
	if m.MaxSpeed() != 8 {
		t.Fatalf("MaxSpeed = %v, want 8", m.MaxSpeed())
	}
	checkMaxSpeed(t, m, 1)
	// A MinSpeed above MaxSpeed means every leg runs at MinSpeed.
	inverted := NewRandomWaypoint(field, 10, Config{MinSpeed: 5, MaxSpeed: 2}, rng.New(42))
	if inverted.MaxSpeed() != 5 {
		t.Fatalf("MaxSpeed = %v, want 5", inverted.MaxSpeed())
	}
	checkMaxSpeed(t, inverted, 2)
}

func TestMaxSpeedGroupMobility(t *testing.T) {
	small := geo.Rect{Max: geo.Point{X: 120, Y: 120}}
	for _, c := range []struct {
		name        string
		fld         geo.Rect
		groups      int
		groupRange  float64
		wantClamped bool
	}{
		{"10 groups/150 m", field, 10, 150, false},
		{"5 groups/200 m", field, 5, 200, false},
		// Member boxes wider than the field pin nodes against its edges,
		// so Clamp is active on most samples.
		{"10 groups/150 m, edge-pinned", small, 10, 150, true},
		{"5 groups/200 m, edge-pinned", small, 5, 200, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{MinSpeed: 2, MaxSpeed: 6, Pause: 1}
			m := NewGroupMobility(c.fld, 40, c.groups, c.groupRange, cfg, rng.New(43))
			if m.MaxSpeed() != 9 {
				t.Fatalf("MaxSpeed = %v, want 1.5 * 6", m.MaxSpeed())
			}
			checkMaxSpeed(t, m, 3)
			if !c.wantClamped {
				return
			}
			onEdge := 0
			for id := 0; id < m.N(); id++ {
				p := m.Position(id, 77)
				if p.X == c.fld.Min.X || p.X == c.fld.Max.X || p.Y == c.fld.Min.Y || p.Y == c.fld.Max.Y {
					onEdge++
				}
			}
			if onEdge == 0 {
				t.Fatal("no node pinned against the field edge: Clamp never exercised")
			}
		})
	}
}

func TestMaxSpeedStatic(t *testing.T) {
	m := NewStatic(field, 20, rng.New(44))
	if m.MaxSpeed() != 0 {
		t.Fatalf("MaxSpeed = %v, want 0", m.MaxSpeed())
	}
	checkMaxSpeed(t, m, 4)
}

func TestMaxSpeedTrace(t *testing.T) {
	trace := sampleTrace + `
$node_(2) set X_ 990
$node_(2) set Y_ 10
$ns_ at 5.0 "$node_(2) setdest 2000 -500 7.5"
$ns_ at 40.0 "$node_(2) setdest 0 0 3"
$ns_ at 41.0 "$node_(1) setdest 0 1000 0"
`
	m := parse(t, trace)
	if m.MaxSpeed() != 7.5 {
		t.Fatalf("MaxSpeed = %v, want 7.5", m.MaxSpeed())
	}
	checkMaxSpeed(t, m, 5)
}

func TestParseNS2RejectsNonFinite(t *testing.T) {
	for _, c := range []string{
		"$node_(0) set X_ NaN",
		"$node_(0) set Y_ -Inf",
		"$node_(0) set X_ +Inf",
		`$ns_ at NaN "$node_(0) setdest 10 20 1"`,
		`$ns_ at Inf "$node_(0) setdest 10 20 1"`,
		`$ns_ at 1 "$node_(0) setdest NaN 20 1"`,
		`$ns_ at 1 "$node_(0) setdest 10 -Inf 1"`,
		`$ns_ at 1 "$node_(0) setdest 10 20 NaN"`,
		`$ns_ at 1 "$node_(0) setdest 10 20 Inf"`,
		`$ns_ at 1 "$node_(0) setdest 10 20 1e400"`,
	} {
		// A valid first line makes the bad one line 2.
		_, err := ParseNS2(strings.NewReader("$node_(0) set X_ 1\n"+c+"\n"), field)
		if err == nil {
			t.Errorf("trace line %q accepted", c)
			continue
		}
		if !strings.HasPrefix(err.Error(), "line 2: ") {
			t.Errorf("trace line %q: error %q lacks its line number", c, err)
		}
	}
}

// BenchmarkPosition measures one random waypoint position query at an
// advancing time — the per-receiver cost the medium's sweeps pay.
func BenchmarkPosition(b *testing.B) {
	const n = 200
	m := NewRandomWaypoint(field, n, Fixed(2), rng.New(45))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Position(i%n, float64(i/n)*0.01)
	}
}
