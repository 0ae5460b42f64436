package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
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

// checkDraws compares n draws of a freshly seeded alfg against
// rand.NewSource(seed), alternating Uint64 and Int63.
func checkDraws(t *testing.T, seed int64, n int) {
	t.Helper()
	var got alfg
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
		checkDraws(t, seed, drawsPerSeed)

		got := rand.New(new(alfg))
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
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
}

func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), uint16(drawsPerSeed))
	f.Add(int64(-1), uint16(3))
	f.Add(int64(int32max), uint16(drawsPerSeed))
	f.Add(int64(math.MinInt64), uint16(alfgLen))
	f.Add(int64(math.MaxInt64), uint16(5000))
	f.Fuzz(func(t *testing.T, seed int64, nDraws uint16) {
		checkDraws(t, seed, int(nDraws))
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
	if n := testing.AllocsPerRun(100, func() { root.SplitIndex("node", 12345) }); n > 2 {
		t.Errorf("SplitIndex allocates %v objects, want at most 2 (stream and path)", n)
	}
}
