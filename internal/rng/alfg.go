package rng

import "math/rand"

// alfg is math/rand's additive lagged-Fibonacci generator (lags 607 and
// 273, the Mitchell–Reeds generator behind rand.NewSource), reproduced bit
// for bit: for every seed, Uint64, Int63 and therefore every rand.Rand
// helper on top of it return exactly what rand.NewSource(seed) returns.
//
// Only seeding differs. The stdlib derives the 607-word state from 1,841
// serial Park–Miller steps x·48271 mod (2³¹−1), each waiting on the one
// before. Step k is just seed·48271^k mod (2³¹−1), so any state word is
// the seed times three precomputed powers: the products are independent
// and reduce by Mersenne-prime folding, with no division.
//
// That makes the state table optional for a stream's first draws. Draw j
// reads the feed word at alfgLen-alfgTap-1-j and the tap word at
// alfgLen-1-j and writes the sum back to the feed word. Below j =
// alfgTap the tap word lies above every feed word written so far, and
// the feed word is the next one down, so both are still as seeded: the
// draw is the sum of two seeded words, computed straight from the seed.
// Most streams never draw that far. The table is allocated and seeded
// only on draw alfgTap, which replays the draws already served through
// the ordinary step and carries on from there.
type alfg struct {
	x    uint64 // reduced seed, in [1, 2³¹−1)
	n    int    // draws served while vec is nil
	tap  int
	feed int
	vec  *[alfgLen]int64 // nil until draw alfgTap
}

const (
	alfgLen = 607
	alfgTap = 273
	// alfgWarmup is the number of Park–Miller steps the stdlib seeder
	// discards before the first state word.
	alfgWarmup = 20
	// int32max is the Park–Miller modulus 2³¹−1, a Mersenne prime.
	int32max = 1<<31 - 1
	// seedMul is the Park–Miller multiplier.
	seedMul = 48271
	// zeroSeed replaces a seed ≡ 0 (mod 2³¹−1), as the stdlib does.
	zeroSeed = 89482311
)

var (
	// seedPow[i] holds 48271^k mod (2³¹−1) for the three Park–Miller steps
	// k that make state word i.
	seedPow [alfgLen][3]uint32
	// cooked is math/rand's rngCooked table: the constants each seeded
	// state word is xored with.
	cooked [alfgLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < alfgWarmup; k++ {
		p = mulMod(p, seedMul)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			p = mulMod(p, seedMul)
			seedPow[i][j] = uint32(p)
		}
	}
	cooked = recoverCooked()
}

// recoverCooked reads the stdlib's rngCooked table back out of
// rand.NewSource rather than copying its 607 constants. It seeds a stdlib
// source, draws one full lag cycle and inverts the recurrence to get the
// seeded state, which is the seeder's words xored with the table, so
// xoring the seeder's words back out leaves the table.
//
// Draw j adds the tap word at alfgLen-1-j into the feed word at
// (alfgLen-alfgTap-1-j) mod alfgLen and returns the sum. From draw alfgTap
// on, the tap word is the output of draw j-alfgTap; before that it is a
// seeded word that a later draw recovers, so walking j downwards meets
// every operand already known.
func recoverCooked() [alfgLen]int64 {
	const probe = 1
	std := rand.NewSource(probe).(rand.Source64)
	var out, state [alfgLen]int64
	for j := range out {
		out[j] = int64(std.Uint64())
	}
	for j := alfgLen - 1; j >= 0; j-- {
		feed := (2*alfgLen - alfgTap - 1 - j) % alfgLen
		if j >= alfgTap {
			state[feed] = out[j] - out[j-alfgTap]
		} else {
			state[feed] = out[j] - state[alfgLen-1-j]
		}
	}
	var tab [alfgLen]int64
	seedWords(&tab, &state, probe)
	return tab
}

// mulMod returns x·a mod (2³¹−1) for x, a in [1, 2³¹−1). Since 2³¹ ≡ 1, a
// product folds by adding its high bits to its low 31; the second fold
// maps the sum, below 2·(2³¹−1), into [1, 2³¹−1). The result is never 0
// because the modulus is prime, so it never lands on 2³¹−1 either.
func mulMod(x uint64, a uint32) uint64 {
	p := x * uint64(a)
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// seedWord returns the seeder's word i for the reduced seed x. Word i
// packs three consecutive Park–Miller values at bit offsets 40, 20 and 0,
// the top bits of the first shifted out.
func seedWord(x uint64, i int) int64 {
	k := &seedPow[i]
	return int64(mulMod(x, k[0])<<40 ^ mulMod(x, k[1])<<20 ^ mulMod(x, k[2]))
}

// seedWords sets each vec[i] to the seeder's word i for the reduced seed x
// xored with mask[i].
func seedWords(vec, mask *[alfgLen]int64, x uint64) {
	for i := range vec {
		vec[i] = seedWord(x, i) ^ mask[i]
	}
}

// Seed resets the generator to the state rand.NewSource(seed) starts
// from, with the table not yet materialised.
func (r *alfg) Seed(seed int64) {
	r.tap = 0
	r.feed = alfgLen - alfgTap
	r.n = 0
	r.vec = nil

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	r.x = uint64(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer. It repeats
// Uint64's body rather than calling it, so that step inlines into both.
func (r *alfg) Int63() int64 {
	if r.vec == nil {
		return int64(r.lazy() & (1<<63 - 1))
	}
	return int64(r.step() & (1<<63 - 1))
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *alfg) Uint64() uint64 {
	if r.vec == nil {
		return r.lazy()
	}
	return r.step()
}

// lazy serves a draw while the table is nil: draws below alfgTap straight
// from the seed, then draw alfgTap by materialising the table.
func (r *alfg) lazy() uint64 {
	j := r.n
	if j == alfgTap {
		r.materialise()
		return r.step()
	}
	r.n++
	feed, tap := alfgLen-alfgTap-1-j, alfgLen-1-j
	return uint64((seedWord(r.x, feed) ^ cooked[feed]) + (seedWord(r.x, tap) ^ cooked[tap]))
}

// materialise allocates and seeds the table, then replays the n draws
// already served so that tap, feed and the table stand where eager
// seeding would have left them.
func (r *alfg) materialise() {
	r.vec = new([alfgLen]int64)
	seedWords(r.vec, &cooked, r.x)
	for i := 0; i < r.n; i++ {
		r.step()
	}
}

// step advances the table with the stdlib's exact tap/feed update.
func (r *alfg) step() uint64 {
	vec := r.vec
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += alfgLen
	}
	if feed < 0 {
		feed += alfgLen
	}
	r.tap, r.feed = tap, feed
	x := vec[feed] + vec[tap]
	vec[feed] = x
	return uint64(x)
}
