package rng

import (
	"strconv"
	"testing"
)

// Per-layer microbenchmarks for the rng layer: stream construction, the
// cost every world build pays once per node, walker and key stream, and
// the draws made from a stream afterwards. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/rng

var (
	sinkSource *Source
	sinkUint64 uint64
	sinkInt64  int64
	sinkFloat  float64
)

// BenchmarkSeed times the full seeding cost a heavy stream pays: an
// existing stream re-seeded in place, then drawn one draw past the lazy
// window, which allocates and seeds the lag table and replays the window.
func BenchmarkSeed(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Rand.Seed(int64(i))
		for j := 0; j <= alfgTap; j++ {
			sinkInt64 = s.Int63()
		}
	}
}

// BenchmarkSplit times deriving a named child stream.
func BenchmarkSplit(b *testing.B) {
	root := New(1).Split("net")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSource = root.Split("mobility")
	}
}

// BenchmarkSplitIndex times deriving an indexed child stream, the
// per-node case.
func BenchmarkSplitIndex(b *testing.B) {
	root := New(1).Split("net")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSource = root.SplitIndex("node", i)
	}
}

// BenchmarkSplitDraw times deriving an indexed child stream and drawing
// from it: what a stream costs over its life. Most streams in a world
// draw a few to a few dozen values; 273 is the last lazily served draw
// and 274 the first that needs the lag table.
func BenchmarkSplitDraw(b *testing.B) {
	for _, draws := range []int{2, 16, alfgTap, alfgTap + 1, 1000} {
		b.Run("draws="+strconv.Itoa(draws), func(b *testing.B) {
			root := New(1).Split("net")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := root.SplitIndex("node", i)
				for j := 0; j < draws; j++ {
					sinkInt64 = s.Int63()
				}
			}
		})
	}
}

// steadyStream returns a stream drawn well past the lazy window, so its
// draws all take the table path.
func steadyStream() *Source {
	s := New(1)
	for i := 0; i < 2*alfgLen; i++ {
		s.Int63()
	}
	return s
}

// BenchmarkUint64 times one steady-state draw through rand.Rand.
func BenchmarkUint64(b *testing.B) {
	s := steadyStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkUint64 = s.Uint64()
	}
}

// BenchmarkFloat64 times one steady-state Float64, the helper the
// simulator draws most.
func BenchmarkFloat64(b *testing.B) {
	s := steadyStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = s.Float64()
	}
}
