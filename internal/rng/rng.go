// Package rng provides deterministic, splittable random number streams.
//
// Every stochastic component of the simulator (mobility, medium, protocol
// randomness, workload generation) draws from its own named stream derived
// from a single experiment seed. Two runs with the same seed therefore
// produce identical traces regardless of the order in which components
// consume randomness, and changing one component's consumption does not
// perturb any other component.
package rng

import (
	"math/rand"
	"strconv"
)

// Source is a deterministic random stream. It wraps math/rand.Rand over a
// bit-exact copy of the stdlib's generator (alfg) and adds a few
// distribution helpers that the simulator needs. Source is not safe for
// concurrent use; the discrete-event engine is single-threaded, and
// parallel experiment runs each own their sources.
type Source struct {
	*rand.Rand
	seed int64
	name string
}

// stream is the single allocation behind a Source: the handle, the
// rand.Rand it embeds and the generator state that Rand draws from. The
// pointer-free state goes last, so the garbage collector's scan of a
// stream stops after the first few words.
type stream struct {
	src Source
	r   rand.Rand
	gen alfg
}

// newSource returns the stream at path name under root seed, its generator
// seeded with state.
func newSource(seed int64, name string, state int64) *Source {
	st := new(stream)
	st.gen.Seed(state)
	// rand.New only records the source; copying its result keeps the Rand
	// inside this allocation.
	st.r = *rand.New(&st.gen)
	st.src = Source{Rand: &st.r, seed: seed, name: name}
	return &st.src
}

// New returns the root stream for an experiment seed.
func New(seed int64) *Source {
	return newSource(seed, "", mix(seed))
}

// Name returns the derivation path of this stream ("" for the root).
func (s *Source) Name() string { return s.name }

// pathBuf is the stack buffer a child's path is built in; longer paths
// spill to the heap.
const pathBuf = 96

// Split derives an independent child stream identified by name. Derivation
// depends only on (seed, full path name), not on how much randomness the
// parent has consumed.
func (s *Source) Split(name string) *Source {
	var buf [pathBuf]byte
	return s.child(s.appendPath(buf[:0], name))
}

// SplitIndex derives a child stream from an integer index, e.g. one stream
// per node. It is Split(name + "#" + i) in decimal.
func (s *Source) SplitIndex(name string, i int) *Source {
	var buf [pathBuf]byte
	b := append(s.appendPath(buf[:0], name), '#')
	return s.child(strconv.AppendInt(b, int64(i), 10))
}

// appendPath appends the full path of child name: the parent's path and
// name joined by "/", or name alone under the root.
func (s *Source) appendPath(b []byte, name string) []byte {
	if s.name != "" {
		b = append(append(b, s.name...), '/')
	}
	return append(b, name...)
}

// FNV-1a 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// child returns the stream at full path: the root seed xored with the
// path's FNV-1a 64 hash, then mixed.
func (s *Source) child(path []byte) *Source {
	h := uint64(fnvOffset)
	for _, c := range path {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return newSource(s.seed, string(path), mix(s.seed^int64(h)))
}

// Uniform returns a float64 uniformly distributed in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exponential returns an exponentially distributed value with the given
// mean. The mean must be positive.
func (s *Source) Exponential(mean float64) float64 {
	return s.ExpFloat64() * mean
}

// Bernoulli reports true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// mix is SplitMix64's finalizer, used to decorrelate nearby seeds.
func mix(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
