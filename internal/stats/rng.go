package stats

import "math"

// RNG is a small deterministic pseudo-random number generator
// (xorshift64*), used everywhere the simulator needs randomness. Keeping
// our own generator (rather than math/rand's global state) makes every
// experiment reproducible from a scenario seed and safe to run in
// parallel benchmarks.
type RNG struct {
	state uint64
	// spare holds a cached second normal variate from the Box–Muller
	// transform.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed. A zero seed is mapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Box–Muller transform.
func (r *RNG) Norm(mean, sd float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + sd*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	mul := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * mul
	r.hasSpare = true
	return mean + sd*u*mul
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork returns a new independent generator derived from this one's
// stream, so subsystems can be given private streams that do not perturb
// each other's sequences when call patterns change.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() | 1)
}

// ForkAt returns the i-th indexed substream of this generator without
// advancing it: the same (state, i) always yields the same stream, and
// distinct indices yield decorrelated streams. Parallel sweeps fork one
// substream per sweep point so results do not depend on worker count or
// completion order. The derivation runs the mixed (state, index) pair
// through a SplitMix64 finalizer, whose full-avalanche output keeps
// adjacent indices statistically independent.
func (r *RNG) ForkAt(i uint64) *RNG {
	z := r.state + 0x9E3779B97F4A7C15*(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(z | 1)
}
