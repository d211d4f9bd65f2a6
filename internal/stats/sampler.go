package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the distribution samplers this project needs.
// Every stochastic component of the simulator owns an RNG seeded from the
// experiment seed, so runs are reproducible and components are independent.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(mix(seed)))}
}

// mix whitens small consecutive seeds (0, 1, 2, ...) into well-separated
// internal seeds using the SplitMix64 finalizer.
func mix(seed int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}

// Fork derives an independent child RNG from this one. Use it to hand each
// sub-component its own stream without coupling their consumption order.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Normal returns a sample from N(mu, sigma^2).
func (g *RNG) Normal(mu, sigma float64) float64 { return mu + sigma*g.r.NormFloat64() }

// LogNormal returns a sample whose logarithm is N(mu, sigma^2). The paper
// models device response times as log-normal (Wang et al., 2023).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// LogNormalMeanP95 returns a log-normal sample parameterized by its median m
// and 95th percentile p95 (both > 0), a convenient form for response-time
// models where the tail is the quantity of interest.
func (g *RNG) LogNormalMedianP95(median, p95 float64) float64 {
	// For LogNormal(mu, sigma): median = e^mu, p95 = e^(mu + 1.6449*sigma).
	mu := math.Log(median)
	sigma := (math.Log(p95) - mu) / 1.6448536269514722
	if sigma < 0 {
		sigma = 0
	}
	return g.LogNormal(mu, sigma)
}

// Exp returns a sample from an exponential distribution with the given mean
// (not rate). Used for Poisson job inter-arrival times.
func (g *RNG) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// Gamma returns a sample from Gamma(shape, scale) using the Marsaglia–Tsang
// method (with Ahrens-style boosting for shape < 1).
func (g *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := g.r.Float64()
		return g.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Beta returns a sample from Beta(a, b).
func (g *RNG) Beta(a, b float64) float64 {
	x := g.Gamma(a, 1)
	y := g.Gamma(b, 1)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Dirichlet returns a sample from Dirichlet(alpha...). The result sums to 1.
func (g *RNG) Dirichlet(alpha []float64) []float64 {
	out := make([]float64, len(alpha))
	sum := 0.0
	for i, a := range alpha {
		out[i] = g.Gamma(a, 1)
		sum += out[i]
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// DirichletSym returns a symmetric Dirichlet sample with concentration alpha
// over k categories.
func (g *RNG) DirichletSym(alpha float64, k int) []float64 {
	a := make([]float64, k)
	for i := range a {
		a[i] = alpha
	}
	return g.Dirichlet(a)
}

// Shuffle permutes the n elements addressed by swap uniformly at random.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Perm returns a uniform random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Choice returns a uniformly random index in [0, n), or -1 when n <= 0.
func (g *RNG) Choice(n int) int {
	if n <= 0 {
		return -1
	}
	return g.r.Intn(n)
}

// WeightedChoice returns an index sampled proportionally to weights.
// Non-positive total weight falls back to uniform choice.
func (g *RNG) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return g.Choice(len(weights))
	}
	target := g.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
