package sim

import (
	"sync/atomic"
	"testing"
)

// Every index in [0, n) must be visited exactly once, for any degree and
// any n — the chunking is a pure function of (n, degree).
func TestWorkersForCoverage(t *testing.T) {
	for _, deg := range []int{-1, 0, 1, 2, 3, 4, 8, 16} {
		w := NewWorkers(deg)
		if w.degree < 1 {
			t.Fatalf("NewWorkers(%d) has degree %d", deg, w.degree)
		}
		for _, n := range []int{0, 1, 31, 32, 33, 64, 100, 1000} {
			visits := make([]int32, n)
			w.For(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("deg=%d n=%d: bad chunk [%d,%d)", deg, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("deg=%d n=%d: index %d visited %d times", deg, n, i, v)
				}
			}
		}
	}
}

// Small inputs must run inline: a single chunk spanning the whole range.
func TestWorkersForSmallInputInline(t *testing.T) {
	w := NewWorkers(8)
	var chunks [][2]int
	w.For(forMinPerChunk-1, func(lo, hi int) {
		chunks = append(chunks, [2]int{lo, hi})
	})
	if len(chunks) != 1 || chunks[0] != [2]int{0, forMinPerChunk - 1} {
		t.Fatalf("small input split into %v", chunks)
	}
	w.For(0, func(lo, hi int) { t.Error("For(0) called fn") })
}
