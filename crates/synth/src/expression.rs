//! Latent-block gene-expression matrices and their discretization.
//!
//! The paper's primary data (§4) are DNA-microarray compendia: a real-valued
//! matrix of log expression values, genes × experimental conditions, which
//! is turned into a transaction database by thresholding: values > 0.2 are
//! "over-expressed", values < −0.2 "under-expressed", and everything in
//! between neither. Each condition `c` contributes two possible items:
//! `2c` (over) and `2c + 1` (under).
//!
//! The generator plants co-expression *modules* — blocks of genes that are
//! jointly up- or down-regulated across a subset of conditions — on top of
//! Gaussian background noise. This is the standard latent-block model of
//! expression data and produces exactly the overlap structure that makes
//! transaction intersection profitable.

use fim_core::TransactionDatabase;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the latent-block expression generator.
#[derive(Clone, Debug)]
pub struct ExpressionConfig {
    /// Number of genes (matrix rows).
    pub genes: usize,
    /// Number of experimental conditions (matrix columns).
    pub conditions: usize,
    /// Number of planted co-expression modules.
    pub modules: usize,
    /// Genes per module (each module draws this many distinct genes).
    pub module_genes: usize,
    /// Conditions per module.
    pub module_conditions: usize,
    /// Magnitude of the planted signal (added or subtracted per module).
    pub signal: f64,
    /// Standard deviation of the Gaussian background noise.
    pub noise_sd: f64,
    /// Probability that a module cell keeps its signal (1 − dropout).
    pub coherence: f64,
    /// Standard deviation of a per-gene baseline offset, modelling
    /// condition-independent expression bias (dye bias, housekeeping
    /// genes). This is what makes real compendium data *dense* after
    /// thresholding: a gene with a strong baseline is over- or
    /// under-expressed in most conditions.
    pub gene_bias_sd: f64,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl Default for ExpressionConfig {
    fn default() -> Self {
        ExpressionConfig {
            genes: 1000,
            conditions: 60,
            modules: 12,
            module_genes: 80,
            module_conditions: 12,
            signal: 0.6,
            noise_sd: 0.12,
            coherence: 0.9,
            gene_bias_sd: 0.1,
            seed: 1,
        }
    }
}

/// A genes × conditions matrix of log expression values.
#[derive(Clone, Debug)]
pub struct ExpressionMatrix {
    genes: usize,
    conditions: usize,
    /// Row-major values, `values[g * conditions + c]`.
    values: Vec<f64>,
}

impl ExpressionMatrix {
    /// Generates a matrix from the latent-block model.
    pub fn generate(config: &ExpressionConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (g, c) = (config.genes, config.conditions);
        let mut values = vec![0.0f64; g * c];
        // Gaussian background noise via Box–Muller (rand's distributions
        // module stays out of our dependency budget)
        for v in values.iter_mut() {
            *v = gaussian(&mut rng) * config.noise_sd;
        }
        // per-gene baseline offsets (see `gene_bias_sd`)
        if config.gene_bias_sd > 0.0 {
            for gene in 0..g {
                let bias = gaussian(&mut rng) * config.gene_bias_sd;
                for v in &mut values[gene * c..(gene + 1) * c] {
                    *v += bias;
                }
            }
        }
        // plant modules
        for _ in 0..config.modules {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let genes = sample_distinct(&mut rng, g, config.module_genes.min(g));
            let conds = sample_distinct(&mut rng, c, config.module_conditions.min(c));
            for &gene in &genes {
                // per-gene sign flips model genes that are anti-correlated
                // with their module (a common biological pattern)
                let gene_sign = if rng.gen_bool(0.85) { sign } else { -sign };
                for &cond in &conds {
                    if rng.gen_bool(config.coherence) {
                        values[gene * c + cond] += gene_sign * config.signal;
                    }
                }
            }
        }
        ExpressionMatrix {
            genes: g,
            conditions: c,
            values,
        }
    }

    /// Builds a matrix from explicit values (row-major genes × conditions).
    pub fn from_values(genes: usize, conditions: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), genes * conditions);
        ExpressionMatrix {
            genes,
            conditions,
            values,
        }
    }

    /// Number of genes (rows).
    pub fn genes(&self) -> usize {
        self.genes
    }

    /// Number of conditions (columns).
    pub fn conditions(&self) -> usize {
        self.conditions
    }

    /// One expression value.
    pub fn value(&self, gene: usize, condition: usize) -> f64 {
        self.values[gene * self.conditions + condition]
    }

    /// Row-major raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Discretizes with the paper's thresholds: genes become transactions,
    /// conditions become items; condition `c` yields item `2c` when the
    /// gene is over-expressed (`value > threshold`) and item `2c + 1` when
    /// under-expressed (`value < -threshold`).
    ///
    /// This is the *many transactions, few items* direction; transpose the
    /// result (or call [`ExpressionMatrix::discretize_genes_as_items`]) for
    /// the direction the intersection algorithms target.
    pub fn discretize(&self, threshold: f64) -> TransactionDatabase {
        let mut txs: Vec<Vec<u32>> = Vec::with_capacity(self.genes);
        for gene in 0..self.genes {
            let mut t = Vec::new();
            for cond in 0..self.conditions {
                let v = self.value(gene, cond);
                if v > threshold {
                    t.push(2 * cond as u32);
                } else if v < -threshold {
                    t.push(2 * cond as u32 + 1);
                }
            }
            txs.push(t);
        }
        TransactionDatabase::from_codes_with_base(txs, 2 * self.conditions)
    }

    /// The dual discretization (paper §4): conditions become transactions
    /// and genes become items — the *few transactions, very many items*
    /// shape that IsTa and Carpenter are designed for. Gene `g` yields item
    /// `2g` (over-expressed) or `2g + 1` (under-expressed).
    pub fn discretize_genes_as_items(&self, threshold: f64) -> TransactionDatabase {
        let mut txs: Vec<Vec<u32>> = Vec::with_capacity(self.conditions);
        for cond in 0..self.conditions {
            let mut t = Vec::new();
            for gene in 0..self.genes {
                let v = self.value(gene, cond);
                if v > threshold {
                    t.push(2 * gene as u32);
                } else if v < -threshold {
                    t.push(2 * gene as u32 + 1);
                }
            }
            txs.push(t);
        }
        TransactionDatabase::from_codes_with_base(txs, 2 * self.genes)
    }
}

/// Standard-normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::EPSILON {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Samples `k` distinct values from `0..n` (partial Fisher–Yates).
pub(crate) fn sample_distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    debug_assert!(k <= n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ExpressionConfig {
            genes: 50,
            conditions: 10,
            ..Default::default()
        };
        let a = ExpressionMatrix::generate(&cfg);
        let b = ExpressionMatrix::generate(&cfg);
        assert_eq!(a.values(), b.values());
        let c = ExpressionMatrix::generate(&ExpressionConfig { seed: 2, ..cfg });
        assert_ne!(a.values(), c.values());
    }

    #[test]
    fn dimensions() {
        let cfg = ExpressionConfig {
            genes: 30,
            conditions: 7,
            modules: 2,
            module_genes: 10,
            module_conditions: 3,
            ..Default::default()
        };
        let m = ExpressionMatrix::generate(&cfg);
        assert_eq!(m.genes(), 30);
        assert_eq!(m.conditions(), 7);
        assert_eq!(m.values().len(), 210);
    }

    #[test]
    fn modules_create_signal() {
        let cfg = ExpressionConfig {
            genes: 200,
            conditions: 40,
            modules: 6,
            module_genes: 60,
            module_conditions: 10,
            signal: 0.6,
            noise_sd: 0.05,
            coherence: 1.0,
            gene_bias_sd: 0.0,
            seed: 7,
        };
        let m = ExpressionMatrix::generate(&cfg);
        let strong = m.values().iter().filter(|v| v.abs() > 0.2).count();
        // with tiny noise, essentially only module cells pass the threshold
        assert!(strong > 500, "planted modules must produce signal");
        let frac = strong as f64 / m.values().len() as f64;
        assert!(frac < 0.5, "signal must stay sparse, got {frac}");
    }

    #[test]
    fn discretize_directions_are_transposes() {
        let m = ExpressionMatrix::generate(&ExpressionConfig {
            genes: 40,
            conditions: 12,
            ..Default::default()
        });
        let by_gene = m.discretize(0.2);
        let by_cond = m.discretize_genes_as_items(0.2);
        assert_eq!(by_gene.num_transactions(), 40);
        assert_eq!(by_cond.num_transactions(), 12);
        // occurrence totals must match (same thresholded cells)
        assert_eq!(by_gene.total_occurrences(), by_cond.total_occurrences());
    }

    #[test]
    fn over_and_under_items_are_disjoint() {
        let m = ExpressionMatrix::from_values(2, 2, vec![0.5, -0.5, 0.1, 0.0]);
        let db = m.discretize(0.2);
        // gene 0: cond 0 over (item 0), cond 1 under (item 3)
        assert_eq!(db.transactions()[0], [0, 3]);
        // gene 1: nothing passes the threshold
        assert!(db.transactions()[1].is_empty());
        assert_eq!(db.num_items(), 4);
    }

    #[test]
    fn sample_distinct_is_distinct() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let s = sample_distinct(&mut rng, 10, 7);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 7);
            assert!(d.iter().all(|&x| x < 10));
        }
    }
}
