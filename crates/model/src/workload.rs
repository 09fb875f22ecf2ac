//! Synthetic long-document workload — the TriviaQA substitute.
//!
//! The paper evaluates on TriviaQA, a long-document QA dataset; only the
//! *shape* of the workload (document token counts, how they batch and pad to
//! the model's sequence length) reaches the kernels, so we generate documents
//! with a seeded log-normal token-length distribution calibrated to
//! long-document corpora (median ≈ 3k tokens, heavy right tail).

use rand::distributions::Distribution;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One synthetic document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Document {
    /// Token count.
    pub tokens: usize,
}

/// Parameters of the synthetic corpus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of documents.
    pub documents: usize,
    /// Log-normal μ of token counts (ln scale).
    pub ln_mean: f64,
    /// Log-normal σ.
    pub ln_std: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    /// Long-document QA shape: median ≈ e^8 ≈ 3k tokens, moderate tail.
    fn default() -> Self {
        WorkloadConfig {
            documents: 1000,
            ln_mean: 8.0,
            ln_std: 0.6,
            seed: 0x7514,
        }
    }
}

/// A generated corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    docs: Vec<Document>,
}

impl Workload {
    /// Generates a corpus from the config (deterministic in the seed).
    pub fn generate(cfg: &WorkloadConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let unit = rand::distributions::Uniform::new(f64::MIN_POSITIVE, 1.0f64);
        let mut docs = Vec::with_capacity(cfg.documents);
        let mut spare: Option<f64> = None;
        for _ in 0..cfg.documents {
            let z = if let Some(s) = spare.take() {
                s
            } else {
                let u1 = unit.sample(&mut rng);
                let u2 = unit.sample(&mut rng);
                let r = (-2.0 * u1.ln()).sqrt();
                let th = 2.0 * std::f64::consts::PI * u2;
                spare = Some(r * th.sin());
                r * th.cos()
            };
            let tokens = (cfg.ln_mean + cfg.ln_std * z).exp().round().max(1.0) as usize;
            docs.push(Document { tokens });
        }
        Workload { docs }
    }

    /// The documents.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// `true` if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Fraction of documents that must be truncated at sequence length `l`
    /// (§2.2: "a transformer model uses the first L tokens of the document
    /// as input when the number of tokens exceeds the maximum sequence
    /// length" — the motivation for longer L).
    pub fn truncated_fraction(&self, l: usize) -> f64 {
        if self.docs.is_empty() {
            return 0.0;
        }
        self.docs.iter().filter(|d| d.tokens > l).count() as f64 / self.docs.len() as f64
    }

    /// Fraction of corpus tokens retained at sequence length `l`.
    pub fn token_coverage(&self, l: usize) -> f64 {
        let total: usize = self.docs.iter().map(|d| d.tokens).sum();
        if total == 0 {
            return 1.0;
        }
        let kept: usize = self.docs.iter().map(|d| d.tokens.min(l)).sum();
        kept as f64 / total as f64
    }

    /// Groups documents into batches of `batch` padded to length `l`,
    /// returning the number of inference iterations needed.
    pub fn iterations(&self, batch: usize) -> usize {
        self.docs.len().div_ceil(batch.max(1))
    }

    /// Length-bucketed batching: assigns each document to the smallest
    /// bucket length that holds it (the largest bucket truncates longer
    /// documents, matching §2.2's first-L-tokens rule) and returns, per
    /// bucket, the number of `batch`-sized iterations needed.
    ///
    /// Buckets must be sorted ascending. This is the standard serving
    /// technique for avoiding max-length padding waste; the
    /// `extension_serving` bin of `resoftmax_core::experiments::figure_rows`
    /// prices it against flat padding.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty or unsorted.
    pub fn bucketed_iterations(&self, buckets: &[usize], batch: usize) -> Vec<(usize, usize)> {
        assert!(!buckets.is_empty(), "need at least one bucket");
        assert!(
            buckets.windows(2).all(|w| w[0] < w[1]),
            "buckets must be sorted"
        );
        let mut counts = vec![0usize; buckets.len()];
        for d in &self.docs {
            let idx = buckets
                .iter()
                .position(|&b| d.tokens <= b)
                .unwrap_or(buckets.len() - 1);
            counts[idx] += 1;
        }
        buckets
            .iter()
            .zip(counts)
            .filter(|(_, n)| *n > 0)
            .map(|(&l, n)| (l, n.div_ceil(batch.max(1))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = WorkloadConfig::default();
        let a = Workload::generate(&cfg);
        let b = Workload::generate(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        assert!(!a.is_empty());
    }

    #[test]
    fn longer_sequences_cover_more_tokens() {
        let w = Workload::generate(&WorkloadConfig::default());
        let c512 = w.token_coverage(512);
        let c4096 = w.token_coverage(4096);
        assert!(c4096 > c512, "{c4096} > {c512}");
        assert!(c4096 <= 1.0);
        // the paper's motivation: at 512 much of a long document is lost
        assert!(c512 < 0.35, "coverage at 512: {c512}");
        assert!(c4096 > 0.75, "coverage at 4096: {c4096}");
    }

    #[test]
    fn truncation_fraction_monotone() {
        let w = Workload::generate(&WorkloadConfig::default());
        assert!(w.truncated_fraction(512) > w.truncated_fraction(4096));
        assert_eq!(w.truncated_fraction(usize::MAX), 0.0);
    }

    #[test]
    fn bucketed_batching() {
        let w = Workload::generate(&WorkloadConfig::default());
        let buckets = [512usize, 1024, 2048, 4096, 8192];
        let plan = w.bucketed_iterations(&buckets, 8);
        let total: usize = plan.iter().map(|(_, n)| n).sum();
        // bucketing can add at most (buckets-1) partial batches
        assert!(total >= w.iterations(8));
        assert!(total <= w.iterations(8) + buckets.len());
        // every planned bucket is one of the requested lengths
        assert!(plan.iter().all(|(l, _)| buckets.contains(l)));
        // long-tail docs land in the top bucket
        assert!(plan.iter().any(|&(l, _)| l == 8192) || w.truncated_fraction(4096) == 0.0);
    }

    #[test]
    #[should_panic(expected = "buckets must be sorted")]
    fn unsorted_buckets_panic() {
        let w = Workload::generate(&WorkloadConfig {
            documents: 4,
            ..Default::default()
        });
        let _ = w.bucketed_iterations(&[1024, 512], 1);
    }

    #[test]
    fn batching_iterations() {
        let w = Workload::generate(&WorkloadConfig {
            documents: 10,
            ..Default::default()
        });
        assert_eq!(w.iterations(1), 10);
        assert_eq!(w.iterations(8), 2);
        assert_eq!(w.iterations(0), 10);
    }
}
