package sim

import "sync"

// Workers is the fork-join helper for golden-safe parallel world
// construction: pure per-index work (per-node key pairs and pseudonyms,
// per-node mobility walkers) whose outputs are written to disjoint slots and
// whose inputs are immutable for the duration of the call. Nothing that
// draws from a shared rng stream, touches the event queue, or appends to a
// shared slice may run under For — those stay sequential so the byte-exact
// determinism contract holds for every worker degree.
//
// Work is split into at most degree contiguous chunks with a fixed rule, so
// the set of (lo, hi) calls is a pure function of (n, degree) — degree
// changes never change results, only wall time. Goroutines are spawned per
// call and joined before For returns: no persistent pool to leak across the
// thousands of arena reuses a campaign performs.
type Workers struct {
	degree int
}

// NewWorkers returns a pool of the given parallel degree; degrees below 1
// are clamped to 1 (serial).
func NewWorkers(degree int) *Workers {
	if degree < 1 {
		degree = 1
	}
	return &Workers{degree: degree}
}

// forMinPerChunk is the smallest per-chunk item count worth a goroutine:
// below this the spawn/join overhead dominates the work.
const forMinPerChunk = 32

// For calls fn over a partition of [0, n) into at most degree contiguous
// chunks of at least forMinPerChunk items (one chunk when n is smaller),
// concurrently, and returns when every call has. fn must satisfy the
// contract in the type comment: disjoint writes, immutable reads, no shared
// rng draws.
func (w *Workers) For(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := w.degree
	if max := n / forMinPerChunk; chunks > max {
		chunks = max
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	// Fixed chunking: chunk i covers [i*size, min((i+1)*size, n)). The
	// bounds depend only on (n, chunks), never on timing.
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for i := 1; i < chunks; i++ {
		lo := i * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		//lint:allowsharedstate fork-join worker: fn writes only disjoint index ranges of caller-owned slices and reads only immutable state; joined before For returns, so no state is shared across the barrier
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, min(size, n))
	wg.Wait()
}
