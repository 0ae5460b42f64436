package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// drawsPerSeed covers two full lag cycles of the generator plus one draw.
const drawsPerSeed = 2*alfgLen + 1

// equivalenceSeeds are the seeds TestSourceMatchesStdlib checks: the
// reduction's edge values (0, ±1, multiples of 2³¹−1, the zero-seed
// replacement, the int64 extremes) and 2,000 mixed seeds.
func equivalenceSeeds() []int64 {
	seeds := []int64{0, 1, -1, int32max, -int32max, int32max - 1, int32max + 1,
		2 * int32max, -2 * int32max, zeroSeed, -zeroSeed, math.MinInt64, math.MaxInt64}
	for i := int64(0); i < 2000; i++ {
		seeds = append(seeds, mix(i))
	}
	return seeds
}

// checkDraws seeds got and compares its next n draws against
// rand.NewSource(seed), alternating Uint64 and Int63.
func checkDraws(t *testing.T, got *alfg, seed int64, n int) {
	t.Helper()
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, stdlib %d", seed, i, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %d, stdlib %d", seed, i, g, w)
		}
	}
}

func TestSourceMatchesStdlib(t *testing.T) {
	for _, seed := range equivalenceSeeds() {
		checkDraws(t, new(alfg), seed, drawsPerSeed)

		got := rand.New(new(alfg))
		got.Seed(seed)
		checkHelpers(t, got, rand.New(rand.NewSource(seed)), seed)
	}
}

func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), uint16(drawsPerSeed))
	f.Add(int64(-1), uint16(3))
	f.Add(int64(int32max), uint16(drawsPerSeed))
	f.Add(int64(math.MinInt64), uint16(alfgLen))
	f.Add(int64(math.MaxInt64), uint16(5000))
	f.Fuzz(func(t *testing.T, seed int64, nDraws uint16) {
		checkDraws(t, new(alfg), seed, int(nDraws))
	})
}

// lazyStops are draw counts around the lazy window's edges: its start,
// the last lazily served draw (alfgTap), the materialising one, the
// feed index wrapping (alfgLen-alfgTap) and the first lag cycle's end.
var lazyStops = []int{0, 1, alfgTap - 1, alfgTap, alfgTap + 1,
	alfgLen - alfgTap, alfgLen, alfgLen + 1}

// TestLazyWindowMatchesStdlib stops fresh streams at each of lazyStops
// raw draws, checks that the table exists exactly once more than alfgTap
// draws have been served, then carries on through rand.Rand's helpers,
// which consume a varying number of draws and so straddle the boundary
// at different offsets.
func TestLazyWindowMatchesStdlib(t *testing.T) {
	for _, seed := range equivalenceSeeds() {
		for _, stop := range lazyStops {
			gen := new(alfg)
			checkDraws(t, gen, seed, stop)
			if lazy := gen.vec == nil; lazy != (stop <= alfgTap) {
				t.Fatalf("seed %d: after %d draws vec == nil is %v", seed, stop, lazy)
			}
			want := rand.NewSource(seed)
			for i := 0; i < stop; i++ {
				want.Int63()
			}
			checkHelpers(t, rand.New(gen), rand.New(want), seed)
		}
	}
}

// checkHelpers compares got's Float64, ExpFloat64, Intn and Perm draws
// against want's.
func checkHelpers(t *testing.T, got, want *rand.Rand, seed int64) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 draw %d = %v, stdlib %v", seed, i, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			t.Fatalf("seed %d: ExpFloat64 draw %d = %v, stdlib %v", seed, i, g, w)
		}
		if g, w := got.Intn(1000+i), want.Intn(1000+i); g != w {
			t.Fatalf("seed %d: Intn draw %d = %d, stdlib %d", seed, i, g, w)
		}
	}
	g, w := got.Perm(50), want.Perm(50)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("seed %d: Perm(50) = %v, stdlib %v", seed, g, w)
		}
	}
}

// TestReseedMatchesStdlib re-seeds streams whose tables have
// materialised, through rand.Rand.Seed as callers do, and checks that the
// stream is lazy again and draws what a fresh stdlib source draws.
func TestReseedMatchesStdlib(t *testing.T) {
	gen := new(alfg)
	s := rand.New(gen)
	s.Seed(1)
	for _, seed := range equivalenceSeeds()[:40] {
		for i := 0; i < alfgLen; i++ {
			s.Int63()
		}
		if gen.vec == nil {
			t.Fatal("table not materialised after a full lag cycle")
		}
		s.Seed(seed)
		if gen.vec != nil {
			t.Fatalf("seed %d: re-seeding kept the table", seed)
		}
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < drawsPerSeed; i++ {
			if g, w := s.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: draw %d after re-seed = %d, stdlib %d", seed, i, g, w)
			}
		}
	}
}

func FuzzReseedMatchesStdlib(f *testing.F) {
	f.Add(int64(1), uint16(alfgTap), int64(2), uint16(alfgTap+1))
	f.Add(int64(0), uint16(drawsPerSeed), int64(int32max), uint16(3))
	f.Add(int64(math.MinInt64), uint16(alfgTap+1), int64(math.MinInt64), uint16(alfgLen))
	f.Fuzz(func(t *testing.T, seed1 int64, n1 uint16, seed2 int64, n2 uint16) {
		gen := new(alfg)
		checkDraws(t, gen, seed1, int(n1))
		checkDraws(t, gen, seed2, int(n2))
	})
}

// TestCookedMatchesStdlibTable pins the recovered table's ends to the
// constants printed in math/rand's rngCooked.
func TestCookedMatchesStdlibTable(t *testing.T) {
	want := map[int]int64{
		0:   -4181792142133755926,
		1:   -4576982950128230565,
		604: 8382142935188824023,
		605: 9103922860780351547,
		606: 4152330101494654406,
	}
	for i, w := range want {
		if cooked[i] != w {
			t.Errorf("cooked[%d] = %d, want %d", i, cooked[i], w)
		}
	}
}

// TestChildSeedsMatchFNV pins the inline path hash: each child must draw
// exactly what a stdlib source seeded with mix(seed ^ FNV-1a-64(path))
// draws, the derivation the package has always used.
func TestChildSeedsMatchFNV(t *testing.T) {
	long := strings.Repeat("segment-", 20) // spills the stack path buffer
	cases := []struct {
		seed  int64
		child func(*Source) *Source
		path  string
	}{
		{1, func(s *Source) *Source { return s.Split("mobility") }, "mobility"},
		{1, func(s *Source) *Source { return s.Split("") }, ""},
		{42, func(s *Source) *Source { return s.Split("a").Split("b") }, "a/b"},
		{42, func(s *Source) *Source { return s.SplitIndex("node", 7) }, "node#7"},
		{-9, func(s *Source) *Source { return s.Split("net").SplitIndex("key", -3) }, "net/key#-3"},
		{math.MaxInt64, func(s *Source) *Source { return s.SplitIndex("walker", 9999) }, "walker#9999"},
		{5, func(s *Source) *Source { return s.Split(long).SplitIndex(long, 12) }, long + "/" + long + "#12"},
	}
	for _, c := range cases {
		h := fnv.New64a()
		_, _ = h.Write([]byte(c.path))
		want := rand.New(rand.NewSource(mix(c.seed ^ int64(h.Sum64()))))
		got := c.child(New(c.seed))
		if got.Name() != c.path {
			t.Errorf("seed %d: child name %q, want %q", c.seed, got.Name(), c.path)
		}
		for i := 0; i < 4; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d path %q: draw %d = %d, want %d", c.seed, c.path, i, g, w)
			}
		}
	}
}

func TestSplitAllocs(t *testing.T) {
	root := New(3).Split("net")
	split := func() { root.SplitIndex("node", 12345) }
	if n := testing.AllocsPerRun(100, split); n > 2 {
		t.Errorf("SplitIndex allocates %v objects, want at most 2 (stream and path)", n)
	}
	if b := bytesPerRun(100, split); b > 256 {
		t.Errorf("SplitIndex allocates %v bytes, want at most 256 (no lag table)", b)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call, averaged over runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestLazyDrawsAllocateNothing pins when the lag table is paid for: never
// within the lazy window, and by exactly one allocation on the draw
// after it.
func TestLazyDrawsAllocateNothing(t *testing.T) {
	s := New(3).SplitIndex("node", 7)
	draw := func(n int) func() {
		return func() {
			s.Seed(11)
			for i := 0; i < n; i++ {
				s.Int63()
			}
		}
	}
	if n := testing.AllocsPerRun(100, draw(alfgTap)); n != 0 {
		t.Errorf("the first %d draws allocate %v objects, want 0", alfgTap, n)
	}
	if n := testing.AllocsPerRun(100, draw(alfgTap+1)); n != 1 {
		t.Errorf("the first %d draws allocate %v objects, want 1 (the lag table)", alfgTap+1, n)
	}
}
