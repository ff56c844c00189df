//! Deterministic pseudo-random number generation.
//!
//! The simulation must be exactly reproducible from a seed across runs and
//! platforms, so we implement xoshiro256** (seeded via splitmix64) directly
//! rather than depending on an external generator whose stream might change
//! between versions. The helpers cover the distributions the machine model
//! needs: uniform integers/floats, Bernoulli trials, binomial counts (for
//! splitting access batches), and Zipf-like skewed choices.

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child generator; used to give each simulated
    /// thread or component its own stream.
    pub fn fork(&mut self, tag: u64) -> Rng {
        let base = self.next_u64();
        Rng::new(base ^ tag.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "gen_range bound must be non-zero");
        // Lemire's multiply-shift rejection method for unbiased bounded output.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` of success.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// Rounds a fractional expectation to an integer count, preserving the
    /// expectation: `floor(x)` plus a Bernoulli trial on the fraction.
    pub fn round_stochastic(&mut self, x: f64) -> u64 {
        debug_assert!(x >= 0.0, "negative expectation");
        let base = x.floor();
        let frac = x - base;
        base as u64 + u64::from(self.bernoulli(frac))
    }

    /// Samples a binomial count of successes out of `n` trials each with
    /// probability `p`. Exact for small `n`; uses a normal approximation for
    /// large `n` where exact sampling would dominate runtime.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if p <= 0.0 || n == 0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        if n <= 64 {
            let mut c = 0;
            for _ in 0..n {
                c += u64::from(self.bernoulli(p));
            }
            return c;
        }
        // Normal approximation with continuity handling, clamped to [0, n].
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let z = self.gauss();
        let v = mean + sd * z;
        v.round().clamp(0.0, n as f64) as u64
    }

    /// Standard normal sample (Box-Muller).
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.gen_f64().max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "non-positive mean");
        -mean * (1.0 - self.gen_f64()).ln()
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Precomputed Zipf(θ) sampler over `{0, .., n-1}` using the rejection
/// method of Gray et al., as used by YCSB.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Builds a sampler over `n` items with skew `theta` (0 = uniform-ish,
    /// 0.99 = YCSB default hot skew). `n` must be non-zero.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation for small n; Euler-Maclaurin style integral
        // approximation beyond a cutoff keeps construction O(1)-ish.
        const EXACT: u64 = 100_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            // Integral of x^-theta from EXACT to n.
            let a = EXACT as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular item.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should differ");
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(17);
            assert!(v < 17);
        }
    }

    #[test]
    fn gen_f64_unit_interval_and_mean() {
        let mut rng = Rng::new(3);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = Rng::new(11);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate was {rate}");
    }

    #[test]
    fn round_stochastic_preserves_expectation() {
        let mut rng = Rng::new(5);
        let trials = 100_000;
        let total: u64 = (0..trials).map(|_| rng.round_stochastic(2.25)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 2.25).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn binomial_mean_small_and_large() {
        let mut rng = Rng::new(9);
        let trials = 20_000;
        let small: u64 = (0..trials).map(|_| rng.binomial(20, 0.25)).sum();
        let m = small as f64 / trials as f64;
        assert!((m - 5.0).abs() < 0.1, "small-n mean {m}");
        let large: u64 = (0..trials).map(|_| rng.binomial(10_000, 0.1)).sum();
        let m = large as f64 / trials as f64;
        assert!((m - 1000.0).abs() < 2.0, "large-n mean {m}");
    }

    #[test]
    fn binomial_edges() {
        let mut rng = Rng::new(13);
        assert_eq!(rng.binomial(100, 0.0), 0);
        assert_eq!(rng.binomial(100, 1.0), 100);
        assert_eq!(rng.binomial(0, 0.5), 0);
    }

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let mut rng = Rng::new(31);
        let z = Zipf::new(1000, 0.99);
        let mut counts = vec![0u32; 1000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[999] * 10);
    }

    #[test]
    fn zipf_stays_in_domain() {
        let mut rng = Rng::new(37);
        let z = Zipf::new(17, 0.5);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 17);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(41);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Rng::new(1);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::new(51);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean was {mean}");
    }
}
