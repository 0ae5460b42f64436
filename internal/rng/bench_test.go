package rng

import "testing"

// Per-layer microbenchmarks for stream construction, the cost every world
// build pays once per node, walker and key stream. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/rng

var sinkSource *Source

// BenchmarkSeed times seeding alone: an existing stream re-seeded in place.
func BenchmarkSeed(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Rand.Seed(int64(i))
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
