//! IBM-Quest-style market-basket generator (Agrawal & Srikant, VLDB 1994).
//!
//! Baskets are built from a pool of *maximal potential patterns* — small
//! item sets drawn with Zipf-skewed item popularity — that are sampled,
//! possibly corrupted (a random suffix dropped), and concatenated until the
//! basket reaches its target size. Consecutive patterns are correlated by
//! reusing items of the previously chosen pattern. This mirrors the
//! click-stream structure of the BMS-WebView-1 benchmark the paper uses in
//! transposed form.

use fim_core::TransactionDatabase;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the Quest-style generator.
#[derive(Clone, Debug)]
pub struct QuestConfig {
    /// Number of transactions (baskets).
    pub transactions: usize,
    /// Number of distinct items (products).
    pub items: usize,
    /// Average basket size (Poisson-ish).
    pub avg_transaction_len: usize,
    /// Number of potential patterns in the pool.
    pub patterns: usize,
    /// Average pattern length.
    pub avg_pattern_len: usize,
    /// Probability of keeping each pattern item (1 − corruption level).
    pub keep_prob: f64,
    /// Zipf skew of item popularity (0 = uniform; ~0.8 is web-like).
    pub zipf: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuestConfig {
    fn default() -> Self {
        QuestConfig {
            transactions: 10_000,
            items: 500,
            avg_transaction_len: 3,
            patterns: 400,
            avg_pattern_len: 4,
            keep_prob: 0.75,
            zipf: 0.8,
            seed: 1,
        }
    }
}

/// Generates a basket database from the configuration.
pub fn generate(config: &QuestConfig) -> TransactionDatabase {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_items = config.items.max(1);

    // Zipf-skewed popularity: cumulative weights over a fixed permutation
    let weights: Vec<f64> = (0..n_items)
        .map(|r| 1.0 / ((r + 1) as f64).powf(config.zipf))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(n_items);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }
    let draw_item = |rng: &mut StdRng| -> u32 {
        let x: f64 = rng.gen();
        cumulative.partition_point(|&c| c < x).min(n_items - 1) as u32
    };

    // pattern pool
    let mut patterns: Vec<Vec<u32>> = Vec::with_capacity(config.patterns);
    let mut prev: Vec<u32> = Vec::new();
    for _ in 0..config.patterns.max(1) {
        let len = poissonish(&mut rng, config.avg_pattern_len).max(1);
        let mut p: Vec<u32> = Vec::with_capacity(len);
        // correlation: reuse up to half of the previous pattern
        for &it in prev.iter().take(len / 2) {
            if rng.gen_bool(0.5) {
                p.push(it);
            }
        }
        while p.len() < len {
            p.push(draw_item(&mut rng));
        }
        p.sort_unstable();
        p.dedup();
        prev = p.clone();
        patterns.push(p);
    }

    // pattern popularity is itself skewed (exponential-ish)
    let pat_weights: Vec<f64> = (0..patterns.len())
        .map(|r| (-(r as f64) / (patterns.len() as f64 / 3.0)).exp())
        .collect();
    let pat_total: f64 = pat_weights.iter().sum();
    let mut pat_cumulative = Vec::with_capacity(patterns.len());
    let mut acc = 0.0;
    for w in &pat_weights {
        acc += w / pat_total;
        pat_cumulative.push(acc);
    }

    let mut txs: Vec<Vec<u32>> = Vec::with_capacity(config.transactions);
    for _ in 0..config.transactions {
        let target = poissonish(&mut rng, config.avg_transaction_len).max(1);
        let mut t: Vec<u32> = Vec::with_capacity(target + 4);
        while t.len() < target {
            let x: f64 = rng.gen();
            let pi = pat_cumulative
                .partition_point(|&c| c < x)
                .min(patterns.len() - 1);
            for &item in &patterns[pi] {
                if rng.gen_bool(config.keep_prob) {
                    t.push(item);
                }
            }
            // occasional random noise item
            if rng.gen_bool(0.1) {
                t.push(draw_item(&mut rng));
            }
        }
        t.sort_unstable();
        t.dedup();
        txs.push(t);
    }
    TransactionDatabase::from_codes_with_base(txs, n_items)
}

/// Cheap Poisson-like sampler: geometric mixture around the mean.
fn poissonish(rng: &mut StdRng, mean: usize) -> usize {
    if mean == 0 {
        return 0;
    }
    // sum of `mean` Bernoulli(0.5) doubled approximates the mean with
    // binomial variance — adequate for workload shaping
    (0..2 * mean).filter(|_| rng.gen_bool(0.5)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = QuestConfig {
            transactions: 100,
            items: 50,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.transactions(), b.transactions());
    }

    #[test]
    fn shape_matches_config() {
        let cfg = QuestConfig {
            transactions: 200,
            items: 80,
            avg_transaction_len: 5,
            ..Default::default()
        };
        let db = generate(&cfg);
        assert_eq!(db.num_transactions(), 200);
        assert_eq!(db.num_items(), 80);
        let avg = db.total_occurrences() as f64 / 200.0;
        assert!(avg > 1.0 && avg < 25.0, "average length {avg} out of band");
    }

    #[test]
    fn popularity_is_skewed() {
        let cfg = QuestConfig {
            transactions: 2000,
            items: 100,
            zipf: 1.0,
            ..Default::default()
        };
        let db = generate(&cfg);
        let freq = db.item_frequencies();
        let max = *freq.iter().max().unwrap() as f64;
        let nonzero = freq.iter().filter(|&&f| f > 0).count() as f64;
        let mean = freq.iter().sum::<u32>() as f64 / nonzero;
        assert!(
            max > 3.0 * mean,
            "Zipf skew expected (max {max}, mean {mean})"
        );
    }

    #[test]
    fn transposition_gives_few_transactions_many_items() {
        let cfg = QuestConfig {
            transactions: 3000,
            items: 60,
            ..Default::default()
        };
        let tdb = generate(&cfg).transpose();
        assert_eq!(tdb.num_transactions(), 60);
        assert_eq!(tdb.num_items(), 3000);
    }

    #[test]
    fn no_empty_item_codes_out_of_base() {
        let cfg = QuestConfig {
            transactions: 50,
            items: 10,
            ..Default::default()
        };
        let db = generate(&cfg);
        for t in db.transactions() {
            assert!(t.iter().all(|&i| i < 10));
        }
    }
}
