package sim

import "math"

// RNG is a deterministic pseudo-random source (splitmix64) with the
// distribution helpers the kernel model needs. It deliberately does not use
// math/rand so the stream is stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child generator. Subsystems each get their
// own fork so that adding events to one subsystem does not perturb the
// random stream seen by another.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// DeriveSeed derives the seed for sub-stream idx of a run with the given
// base seed: the splitmix64 output function applied to the idx-th state
// after base. Replications, experiments and shards must use this instead
// of additive offsets (seed + i*K), whose streams collide for nearby base
// seeds — e.g. seed+2K for base s equals seed+K for base s+K.
func DeriveSeed(base, idx uint64) uint64 {
	z := base + (idx+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Uniform returns a uniform Duration in [lo, hi].
func (r *RNG) Uniform(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo+1))
}

// Exp returns an exponentially distributed Duration with the given mean.
func (r *RNG) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return Duration(-float64(mean) * math.Log(1-u))
}

// Normal returns a normally distributed float64 (Box–Muller).
func (r *RNG) Normal(mu, sigma float64) float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// LogNormal returns a log-normally distributed Duration whose underlying
// normal has the given mu and sigma (of the log, in ln-nanoseconds).
func (r *RNG) LogNormal(mu, sigma float64) Duration {
	return Duration(math.Exp(r.Normal(mu, sigma)))
}

// LogNormalMeanP99 returns a log-normal Duration parameterised by its
// median and its ~p99 value, which is how the kernel model's critical
// section profiles are most naturally written down.
func (r *RNG) LogNormalMeanP99(median, p99 Duration) Duration {
	if median <= 0 {
		return 0
	}
	if p99 <= median {
		return median
	}
	// For LogNormal(mu, sigma): median = e^mu, p99 = e^(mu + 2.326*sigma).
	mu := math.Log(float64(median))
	sigma := (math.Log(float64(p99)) - mu) / 2.326
	return r.LogNormal(mu, sigma)
}

// Pareto returns a bounded Pareto-distributed Duration with minimum xm,
// shape alpha, truncated at max. Heavy-tailed kernel residency times and
// softirq bursts use this.
func (r *RNG) Pareto(xm Duration, alpha float64, max Duration) Duration {
	if xm <= 0 {
		return 0
	}
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	v := Duration(float64(xm) / math.Pow(1-u, 1/alpha))
	if max > 0 && v > max {
		v = max
	}
	return v
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f].
func (r *RNG) Jitter(d Duration, f float64) Duration {
	if d <= 0 || f <= 0 {
		return d
	}
	scale := 1 - f + 2*f*r.Float64()
	return d.Scale(scale)
}
