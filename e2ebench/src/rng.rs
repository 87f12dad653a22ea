//! Seeded randomness: every request, its connection and its send instant
//! are a pure function of the benchmark's `--seed`.

use std::time::Duration;

/// SplitMix64, the same generator the repository keys its per-walk
/// streams with. Small, fast and fully specified, so a schedule drawn
/// here never depends on the vendored `rand` implementation.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[cfg(test)]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator for one named stream of `seed`, so that adding draws
    /// to one stream never shifts another.
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut mix = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by 128-bit multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Send offsets of a Poisson arrival process at `rate` per second over
/// `duration`, measured from the phase start.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, duration: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "rate must be positive");
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(
            &mut SplitMix64::stream(7, 1),
            2000.0,
            Duration::from_secs(2),
        );
        let b = poisson_schedule(
            &mut SplitMix64::stream(7, 1),
            2000.0,
            Duration::from_secs(2),
        );
        let c = poisson_schedule(
            &mut SplitMix64::stream(8, 1),
            2000.0,
            Duration::from_secs(2),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_sorted_and_hits_the_rate() {
        let s = poisson_schedule(&mut SplitMix64::new(2014), 1000.0, Duration::from_secs(20));
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.last().unwrap() < &Duration::from_secs(20));
        // 20k expected arrivals; a Poisson count is within 4 sigma (~566).
        assert!((s.len() as i64 - 20_000).abs() < 600, "{}", s.len());
    }

    #[test]
    fn streams_are_independent_and_below_is_in_range() {
        let mut a = SplitMix64::stream(1, 1);
        let mut b = SplitMix64::stream(1, 2);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut r = SplitMix64::new(3);
        let mut seen = [0u32; 5];
        for _ in 0..5000 {
            seen[r.below(5)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 800), "{seen:?}");
        for _ in 0..1000 {
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
