package rng

import "math/rand"

// alfg is math/rand's additive lagged-Fibonacci generator (lags 607 and
// 273, the Mitchell–Reeds generator behind rand.NewSource), reproduced bit
// for bit: for every seed, Uint64, Int63 and therefore every rand.Rand
// helper on top of it return exactly what rand.NewSource(seed) returns.
//
// Only seeding differs. The stdlib derives the 607-word state from 1,841
// serial Park–Miller steps x·48271 mod (2³¹−1), each waiting on the one
// before. Step k is just seed·48271^k mod (2³¹−1), so Seed multiplies the
// seed by a precomputed power per step instead: the products are
// independent and reduce by Mersenne-prime folding, with no division.
type alfg struct {
	tap  int
	feed int
	vec  [alfgLen]int64
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

// seedWords sets each vec[i] to the seeder's word i for the reduced seed x
// xored with mask[i]. Word i packs three consecutive Park–Miller values at
// bit offsets 40, 20 and 0, the top bits of the first shifted out.
func seedWords(vec, mask *[alfgLen]int64, x uint64) {
	for i := range vec {
		k := &seedPow[i]
		vec[i] = int64(mulMod(x, k[0])<<40^mulMod(x, k[1])<<20^mulMod(x, k[2])) ^ mask[i]
	}
}

// Seed sets the state rand.NewSource(seed) starts from.
func (r *alfg) Seed(seed int64) {
	r.tap = 0
	r.feed = alfgLen - alfgTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	seedWords(&r.vec, &cooked, uint64(seed))
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *alfg) Int63() int64 {
	return int64(r.Uint64() & (1<<63 - 1))
}

// Uint64 advances the generator with the stdlib's exact tap/feed update.
func (r *alfg) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += alfgLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += alfgLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
