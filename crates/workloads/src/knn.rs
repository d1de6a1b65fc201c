//! K-nearest-neighbour workload.
//!
//! The paper evaluates KNN on chest-X-ray images from the Pneumonia
//! dataset (§IV-A3). The images are proprietary to that evaluation, so
//! this module generates a synthetic stand-in with the same geometry:
//! 5216 training patterns (the Pneumonia train split) of binary feature
//! vectors, two classes, and queries drawn near class prototypes. The
//! CAM code path is identical; only the absolute accuracy is synthetic.

use c4cam_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A KNN dataset: stored training patterns plus labelled queries.
#[derive(Debug, Clone)]
pub struct KnnDataset {
    /// Training patterns, `[n_train, dims]`.
    pub train: Tensor,
    /// Training labels.
    pub train_labels: Vec<usize>,
    /// Query patterns, `[n_queries, dims]`.
    pub queries: Tensor,
    /// Ground-truth query labels.
    pub query_labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl KnnDataset {
    /// Deterministic synthetic dataset: `classes` prototypes; every
    /// pattern/query is its class prototype with `noise` fraction of
    /// features re-randomized.
    ///
    /// # Panics
    /// Panics on degenerate sizes.
    pub fn synthetic(
        n_train: usize,
        dims: usize,
        classes: usize,
        n_queries: usize,
        noise: f64,
        seed: u64,
    ) -> KnnDataset {
        assert!(n_train > 0 && dims > 0 && classes > 0 && n_queries > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..dims).map(|_| f32::from(rng.gen_bool(0.5))).collect())
            .collect();
        let sample = |class: usize, rng: &mut StdRng| -> Vec<f32> {
            protos[class]
                .iter()
                .map(|&p| {
                    if rng.gen_bool(noise) {
                        f32::from(rng.gen_bool(0.5))
                    } else {
                        p
                    }
                })
                .collect()
        };
        let mut train = Vec::with_capacity(n_train * dims);
        let mut train_labels = Vec::with_capacity(n_train);
        for i in 0..n_train {
            let class = i % classes;
            train_labels.push(class);
            train.extend(sample(class, &mut rng));
        }
        let mut queries = Vec::with_capacity(n_queries * dims);
        let mut query_labels = Vec::with_capacity(n_queries);
        for i in 0..n_queries {
            let class = i % classes;
            query_labels.push(class);
            queries.extend(sample(class, &mut rng));
        }
        KnnDataset {
            train: Tensor::from_vec(vec![n_train, dims], train).expect("shape"),
            train_labels,
            queries: Tensor::from_vec(vec![n_queries, dims], queries).expect("shape"),
            query_labels,
            classes,
        }
    }

    /// The paper's geometry: 5216 training patterns (Pneumonia train
    /// split), 4096 features, 2 classes.
    pub fn pneumonia_like(n_queries: usize, seed: u64) -> KnnDataset {
        KnnDataset::synthetic(5216, 4096, 2, n_queries, 0.2, seed)
    }

    /// Indices of the `k` nearest training patterns (squared Euclidean)
    /// for query `q` — the CPU reference.
    pub fn nearest_cpu(&self, q: usize, k: usize) -> Vec<usize> {
        let query = self.queries.row(q).expect("query row");
        let n = self.train.shape()[0];
        let mut dist: Vec<(f64, usize)> = (0..n)
            .map(|i| {
                let row = self.train.row(i).expect("train row");
                (Tensor::squared_distance(query, row).expect("len"), i)
            })
            .collect();
        dist.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        dist.into_iter().take(k).map(|(_, i)| i).collect()
    }

    /// The nearest training pattern of every query: the top-1 of
    /// [`KnnDataset::nearest_cpu`], computed as a popcount over
    /// bit-packed rows. On 0/1 features the squared Euclidean distance
    /// is the Hamming distance, an integer, so the answer is exact and
    /// ties still go to the lowest index.
    ///
    /// # Panics
    /// Panics if a feature is not 0 or 1, or there are no training
    /// patterns.
    pub fn nearest_labels(&self) -> Vec<usize> {
        let train = BitRows::pack(&self.train).expect("kNN training features are 0 or 1");
        let queries = BitRows::pack(&self.queries).expect("kNN query features are 0 or 1");
        queries
            .rows()
            .map(|q| {
                train
                    .rows()
                    .map(|r| {
                        q.iter()
                            .zip(r)
                            .map(|(a, b)| (a ^ b).count_ones())
                            .sum::<u32>()
                    })
                    .enumerate()
                    .min_by_key(|&(_, d)| d)
                    .map(|(i, _)| i)
                    .expect("no training patterns")
            })
            .collect()
    }
}

/// The rows of a 0/1 rank-2 tensor, 64 features to a word.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// `None` when a value is neither 0 nor 1.
    fn pack(t: &Tensor) -> Option<BitRows> {
        let dims = t.shape()[1];
        let words = dims.div_ceil(64);
        let mut bits = Vec::with_capacity(t.shape()[0] * words);
        for row in t.data().chunks_exact(dims.max(1)) {
            for chunk in row.chunks(64) {
                let mut word = 0u64;
                for (j, &v) in chunk.iter().enumerate() {
                    match v {
                        0.0 => {}
                        1.0 => word |= 1 << j,
                        _ => return None,
                    }
                }
                bits.push(word);
            }
        }
        Some(BitRows { words, bits })
    }

    fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.bits.chunks_exact(self.words.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy;

    #[test]
    fn dataset_is_deterministic() {
        let a = KnnDataset::synthetic(50, 64, 2, 10, 0.1, 42);
        let b = KnnDataset::synthetic(50, 64, 2, 10, 0.1, 42);
        assert_eq!(a.train.data(), b.train.data());
        assert_eq!(a.query_labels, b.query_labels);
    }

    #[test]
    fn knn_classifies_structured_data() {
        let d = KnnDataset::synthetic(100, 256, 2, 20, 0.1, 1);
        let pred: Vec<usize> = d
            .nearest_labels()
            .into_iter()
            .map(|i| d.train_labels[i])
            .collect();
        assert!(accuracy(&pred, &d.query_labels) > 0.9);
    }

    #[test]
    fn nearest_returns_k_sorted_neighbours() {
        let d = KnnDataset::synthetic(30, 64, 3, 5, 0.05, 2);
        let nn = d.nearest_cpu(0, 7);
        assert_eq!(nn.len(), 7);
        // First neighbour should share the query's class on clean data.
        assert_eq!(d.train_labels[nn[0]], d.query_labels[0]);
    }

    #[test]
    #[should_panic(expected = "0 or 1")]
    fn packed_labels_reject_non_binary_features() {
        let mut d = KnnDataset::synthetic(4, 8, 2, 1, 0.1, 1);
        d.train.data_mut()[3] = 0.5;
        d.nearest_labels();
    }

    #[test]
    fn pneumonia_like_has_paper_geometry() {
        let d = KnnDataset::pneumonia_like(4, 3);
        assert_eq!(d.train.shape(), &[5216, 4096]);
        assert_eq!(d.classes, 2);
        assert_eq!(d.queries.shape()[0], 4);
    }
}
