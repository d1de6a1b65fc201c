//! The shared kernels' fast paths against the per-element forms they
//! short-cut: the contiguous `merge_search_result` against the
//! materialized read + element-wise merge, and the partial top-k of
//! `reduce_scores` against a full sort — same accumulator bits, same
//! outputs, same errors.

use c4cam_camsim::subarray::SearchResult;
use c4cam_runtime::kernels::{
    merge_partial_rows, merge_search_result, read_tensors_into, reduce_scores,
};
use c4cam_tensor::Tensor;
use proptest::prelude::*;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// `merge_search_result` as two steps: read into `declared`-element
/// buffers, then merge element by element.
fn merge_two_step(
    acc: &mut Tensor,
    result: &SearchResult,
    declared: usize,
    q: usize,
    offset: i64,
) -> Result<(), String> {
    let mut vals = Tensor::zeros(vec![declared]);
    let mut idx = Tensor::zeros(vec![declared]);
    read_tensors_into(result, &mut vals, &mut idx)?;
    merge_partial_rows(acc, &vals, &idx, q, offset)
}

/// `reduce_scores` as it was before the partial top-k: a full sort of
/// every row.
fn reduce_full_sort(
    acc: &Tensor,
    k: usize,
    n_valid: usize,
    largest: bool,
    metric: &str,
    device: bool,
) -> Result<(Vec<f32>, Vec<f32>), String> {
    let (nq, cols) = (acc.shape()[0], acc.shape()[1]);
    let n = n_valid.min(cols);
    let (mut vals, mut idx) = (Vec::new(), Vec::new());
    for i in 0..nq {
        let row = &acc.data()[i * cols..i * cols + n];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let cmp = row[a]
                .partial_cmp(&row[b])
                .unwrap_or(std::cmp::Ordering::Equal);
            let cmp = if largest { cmp.reverse() } else { cmp };
            cmp.then(a.cmp(&b))
        });
        for &j in order.iter().take(k) {
            let raw = row[j] as f64;
            let v = match (metric, device) {
                ("eucl", _) => raw.max(0.0).sqrt(),
                ("dot" | "cos", true) => -raw,
                _ => raw,
            };
            vals.push(v as f32);
            idx.push(j as f32);
        }
        if n < k {
            return Err("reduce k exceeds valid columns".to_string());
        }
    }
    Ok((vals, idx))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rows `0..n` (the contiguous path) or a gapped ascending set (the
    /// element loop), truncated by `declared`, merged at offsets in and
    /// out of range and into rows that do and do not exist.
    #[test]
    fn contiguous_merge_equals_the_element_loop(
        nq in 1usize..3,
        cols in 1usize..24,
        q in 0usize..3,
        offset in -3i64..26,
        n in 0usize..24,
        gap in 0usize..3,
        declared in 0usize..27,
        dists in proptest::collection::vec(-1e9f64..1e9, 24),
        start in proptest::collection::vec(-4.0f32..4.0, 48),
    ) {
        // Rows 0..n (the contiguous path), from 0 with gaps, and 1..=n.
        let rows: Vec<usize> = (0..n).map(|i| [i, 2 * i, i + 1][gap]).collect();
        let result = SearchResult {
            rows,
            distances: dists[..n].to_vec(),
            matched: vec![false; n],
        };
        let init = Tensor::from_vec(vec![nq, cols], start[..nq * cols].to_vec()).unwrap();
        let (mut fast, mut slow) = (init.clone(), init);
        let got = merge_search_result(&mut fast, &result, declared, q, offset);
        let want = merge_two_step(&mut slow, &result, declared, q, offset);
        prop_assert_eq!(&got, &want, "rows {:?} declared {} q {} offset {}", result.rows, declared, q, offset);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// Rows with many ties, rows holding NaN, every `k` from 0 past `n`,
    /// both orders and every score convention.
    #[test]
    fn partial_top_k_equals_the_full_sort(
        nq in 0usize..4,
        cols in 1usize..20,
        n_valid in 0usize..24,
        k in 0usize..24,
        largest in any::<bool>(),
        nan in any::<bool>(),
        convention in 0usize..4,
        picks in proptest::collection::vec(0usize..7, 80),
    ) {
        let palette = [0.0f32, 1.0, 2.0, -1.0, 2.5, -0.0, f32::NAN];
        let span = if nan { 7 } else { 6 };
        let data: Vec<f32> = picks[..nq * cols].iter().map(|&p| palette[p % span]).collect();
        let acc = Tensor::from_vec(vec![nq, cols], data).unwrap();
        let (metric, device) = [("eucl", true), ("dot", true), ("cos", false), ("plain", false)][convention];
        let got = reduce_scores(&acc, k, n_valid, largest, metric, device)
            .map(|(v, i)| (bits(&v), bits(&i)));
        let want = reduce_full_sort(&acc, k, n_valid, largest, metric, device).map(|(v, i)| {
            let b = |x: Vec<f32>| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            (b(v), b(i))
        });
        prop_assert_eq!(got, want);
    }
}
