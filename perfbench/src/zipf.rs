//! Seeded request streams: a Zipf sampler over flo-linalg's SplitMix64.

use flo_linalg::SplitMix64;

/// A uniform draw from [0, 1): the top 53 bits of the next output.
fn unit_f64(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Draws per block of [`ZipfKeys`] stratification.
pub const STRATA: usize = 100;

/// Draws key indices `0..n` with Zipf(`exponent`) popularity: key `k`
/// has rank `k + 1` and weight `1 / (k + 1)^exponent`, so the seed
/// changes the request sequence but not which keys are popular — runs
/// with different seeds measure the same workload.
///
/// Draws are stratified: each block of [`STRATA`] draws takes one
/// uniform variate from each of the `STRATA` equal slices of [0, 1), in
/// seeded random order, before inverting the popularity CDF. Every draw
/// is still exactly Zipf-distributed, but a block's mix of keys stays
/// close to the distribution, so short runs with different seeds see the
/// same workload rather than a lucky or unlucky sample of it.
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    cdf: Vec<f64>,
    rng: SplitMix64,
    block: Vec<usize>,
    next: usize,
}

impl ZipfKeys {
    /// A stream over keys `0` (most popular) .. `n - 1`.
    pub fn new(n: usize, exponent: f64, seed: u64) -> ZipfKeys {
        assert!(n > 0, "a Zipf stream needs at least one key");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfKeys {
            cdf,
            rng: SplitMix64::new(seed),
            block: (0..STRATA).collect(),
            next: STRATA,
        }
    }

    /// The next key index.
    pub fn next_key(&mut self) -> usize {
        if self.next == STRATA {
            self.rng.shuffle(&mut self.block);
            self.next = 0;
        }
        let stratum = self.block[self.next];
        self.next += 1;
        let u = (stratum as f64 + unit_f64(&mut self.rng)) / STRATA as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Popularity of key `k`, in [0, 1].
    #[cfg(test)]
    pub fn probability(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut z = ZipfKeys::new(112, 0.9, seed);
            (0..2000).map(|_| z.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn covers_the_key_space_and_only_it() {
        let n = 112;
        let mut z = ZipfKeys::new(n, 0.9, 3);
        let mut seen = vec![0u32; n];
        for _ in 0..50_000 {
            seen[z.next_key()] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "every key is drawn");
        // The most popular key is 0 and dominates the least.
        let (hot, cold) = (seen[0], seen[n - 1]);
        assert!(hot > 20 * cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn empirical_frequencies_follow_the_distribution() {
        let n = 16;
        let mut z = ZipfKeys::new(n, 1.0, 11);
        let draws = 200_000;
        let mut seen = vec![0u32; n];
        for _ in 0..draws {
            seen[z.next_key()] += 1;
        }
        for (rank, &c) in seen.iter().enumerate() {
            let expect = z.probability(rank);
            let got = c as f64 / draws as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "rank {rank}: {got} vs {expect}"
            );
        }
        let total: f64 = (0..n).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_block_holds_the_distribution_to_within_one_draw() {
        let n = 16;
        let mut z = ZipfKeys::new(n, 1.0, 9);
        let p0 = z.probability(0);
        for _ in 0..50 {
            let hot = (0..STRATA).filter(|_| z.next_key() == 0).count() as f64;
            assert!(
                (hot - p0 * STRATA as f64).abs() <= 1.0,
                "{hot} vs {}",
                p0 * STRATA as f64
            );
        }
    }
}
