package mobility

import (
	"math"
	"strings"
	"testing"

	"alertmanet/internal/geo"
)

// FuzzParseNS2 feeds arbitrary text to the trace parser: it must never
// panic, and any accepted trace must yield in-field positions at any
// queried time and a finite speed bound.
func FuzzParseNS2(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("$node_(0) set X_ 1\n$node_(0) set Y_ 2\n")
	f.Add("$ns_ at 1.0 \"$node_(3) setdest 10 20 1.5\"")
	f.Add("garbage\n# comment\n")
	f.Add("$node_(0) set X_ NaN\n")
	f.Add("$ns_ at 1 \"$node_(0) setdest 10 20 NaN\"")
	f.Add("$ns_ at 1 \"$node_(0) setdest NaN 20 1\"")
	f.Add("$ns_ at NaN \"$node_(0) setdest 10 20 1\"")
	f.Add("$ns_ at 1 \"$node_(0) setdest 10 20 Inf\"")
	f.Fuzz(func(t *testing.T, text string) {
		fld := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}
		m, err := ParseNS2(strings.NewReader(text), fld)
		if err != nil {
			return
		}
		if v := m.MaxSpeed(); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("accepted trace has speed bound %v", v)
		}
		for id := 0; id < m.N(); id++ {
			for _, tm := range []float64{0, 1, 100} {
				if !fld.Contains(m.Position(id, tm)) {
					t.Fatalf("node %d escaped the field at t=%v", id, tm)
				}
			}
		}
	})
}
