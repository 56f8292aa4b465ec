//! Seeded open-loop send schedules.

/// SplitMix64: a small, fast generator whose stream is a pure
/// function of its seed.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream keyed by `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Intended send offsets (ns from the phase start) of `n` frames
/// arriving as a Poisson process of rate `rate_hz`.
pub fn poisson_offsets_ns(seed: u64, stream: u64, rate_hz: f64, n: usize) -> Vec<u64> {
    assert!(rate_hz > 0.0, "a schedule needs a positive rate");
    let mut rng = SplitMix::new(seed, stream);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.unit().ln() / rate_hz;
            (t * 1e9) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_offsets_ns(7, 1, 60_000.0, 5000);
        assert_eq!(a, poisson_offsets_ns(7, 1, 60_000.0, 5000));
        assert_ne!(a, poisson_offsets_ns(8, 1, 60_000.0, 5000));
        assert_ne!(a, poisson_offsets_ns(7, 2, 60_000.0, 5000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn schedule_has_the_requested_rate() {
        let n = 200_000;
        let offs = poisson_offsets_ns(3, 0, 50_000.0, n);
        let rate = n as f64 / (*offs.last().unwrap() as f64 * 1e-9);
        assert!((rate / 50_000.0 - 1.0).abs() < 0.01, "rate {rate}");
    }
}
