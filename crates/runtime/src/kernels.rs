//! Device-op kernels shared by the two execution engines.
//!
//! The tree-walking [`Executor`](crate::Executor) and the flat-tape VM
//! in `c4cam_engine` must produce *bit-identical* results; keeping the
//! data-manipulation kernels of the `cam.*` ops in one place makes that
//! a structural property rather than a testing accident.

use c4cam_camsim::subarray::SearchResult;
use c4cam_tensor::Tensor;

/// Sentinel marking a dynamic offset in `tensor.extract_slice`'s
/// `static_offsets` attribute (shared with the dialect definition).
pub const DYNAMIC_OFFSET: i64 = i64::MIN;

/// View `t` as rank 2, flattening rank-1 tensors into a single row.
/// The view shares `t`'s storage; nothing is copied.
pub fn as_rank2(t: &Tensor) -> Tensor {
    if t.rank() == 2 {
        t.clone()
    } else {
        let n = t.len();
        t.clone().reshape(vec![1, n]).expect("reshape to rank 2")
    }
}

/// Borrow the rows of a tensor for `cam.write_value`: a rank-2
/// tensor's rows, any other tensor as one row (as [`as_rank2`] views
/// it).
pub fn tensor_rows(t: &Tensor) -> Vec<&[f32]> {
    match *t.shape() {
        [rows, cols] => (0..rows)
            .map(|r| &t.data()[r * cols..(r + 1) * cols])
            .collect(),
        _ => vec![t.data()],
    }
}

/// Borrow a query operand for `cam.search` without copying: row 0 of a
/// rank-2 tensor (contiguous in row-major layout), otherwise the raw
/// data. The device search hot path goes through this view.
///
/// # Errors
/// Propagates row-extraction failures.
pub fn search_query_view(t: &Tensor) -> Result<&[f32], String> {
    if t.rank() == 2 {
        t.row(0).map_err(|e| e.message)
    } else {
        Ok(t.data())
    }
}

/// Owned variant of [`search_query_view`] for callers whose borrow
/// structure requires detaching the query from its tensor.
///
/// # Errors
/// Propagates row-extraction failures.
pub fn search_query(t: &Tensor) -> Result<Vec<f32>, String> {
    search_query_view(t).map(<[f32]>::to_vec)
}

/// Materialize a `cam.read` result as `(values, indices)` tensors of
/// `shape`: distances (and `-1`-padded row ids) per participating row,
/// `INFINITY`-padded to the declared size.
///
/// # Errors
/// Fails if `shape` is inconsistent with itself (tensor construction).
pub fn read_tensors(result: &SearchResult, shape: &[usize]) -> Result<(Tensor, Tensor), String> {
    let mut vals = Tensor::zeros(shape.to_vec());
    let mut idx = Tensor::zeros(shape.to_vec());
    read_tensors_into(result, &mut vals, &mut idx)?;
    Ok((vals, idx))
}

/// In-place variant of [`read_tensors`]: overwrite two existing
/// same-shape tensors instead of allocating. The tape VM's `Read` path
/// uses this to recycle its output buffers across loop iterations.
///
/// # Errors
/// Fails when the two tensors disagree in element count.
pub fn read_tensors_into(
    result: &SearchResult,
    vals: &mut Tensor,
    idx: &mut Tensor,
) -> Result<(), String> {
    let n = vals.len();
    if idx.len() != n {
        return Err(format!(
            "read targets disagree: {} values vs {} indices",
            n,
            idx.len()
        ));
    }
    let vd = vals.data_mut();
    let id = idx.data_mut();
    vd.fill(f32::INFINITY);
    id.fill(-1.0);
    for (j, (&row, &dist)) in result.rows.iter().zip(&result.distances).enumerate() {
        if j >= n {
            break;
        }
        vd[j] = dist as f32;
        id[j] = row as f32;
    }
    Ok(())
}

/// Row `q` of a merge accumulator — the checks both merge kernels
/// share.
///
/// # Errors
/// Fails unless `acc` is rank 2 and has a row `q`.
fn accumulator_row(acc: &mut Tensor, q: usize) -> Result<&mut [f32], String> {
    let (rows, cols) = match *acc.shape() {
        [rows, cols] => (rows, cols),
        ref shape => {
            return Err(format!(
                "merge expects a rank-2 accumulator, got shape {shape:?}"
            ))
        }
    };
    if q >= rows {
        return Err("merge query index out of bounds".to_string());
    }
    Ok(&mut acc.data_mut()[q * cols..(q + 1) * cols])
}

/// Accumulate `val` into column `stored + offset` of accumulator row
/// `row` (`cols` wide) — one element of a partial-score merge.
#[inline]
fn merge_one(row: &mut [f32], stored: f32, val: f32, offset: i64) -> Result<(), String> {
    let cols = row.len();
    let col = stored as i64 + offset;
    if col < 0 || col as usize >= cols {
        return Err(format!(
            "merge writes column {col} outside accumulator width {cols}"
        ));
    }
    row[col as usize] += val;
    Ok(())
}

/// `cam.merge_partial_subarray`: scatter-accumulate one subarray's
/// partial scores into row `q` of the accumulator, offsetting read-back
/// row ids by `offset` columns. Negative stored ids (padding) skip.
///
/// # Errors
/// Fails on a non-rank-2 accumulator, on fewer indices than values, or
/// when `q` or a target column is out of bounds.
pub fn merge_partial_rows(
    acc: &mut Tensor,
    vals: &Tensor,
    idx: &Tensor,
    q: usize,
    offset: i64,
) -> Result<(), String> {
    let row = accumulator_row(acc, q)?;
    if idx.len() < vals.len() {
        return Err(format!(
            "merge operands disagree: {} values vs {} indices",
            vals.len(),
            idx.len()
        ));
    }
    for (&stored, &val) in idx.data().iter().zip(vals.data()) {
        if stored < 0.0 {
            continue;
        }
        merge_one(row, stored, val, offset)?;
    }
    Ok(())
}

/// Fused `cam.read` + `cam.merge_partial_subarray`: accumulate a search
/// result straight into row `q` of the accumulator, as if it had first
/// been materialized by [`read_tensors_into`] into `declared`-element
/// buffers (entries past `declared` are dropped; the `-1` padding a
/// short result would get is skipped by the merge anyway) and then
/// merged by [`merge_partial_rows`]. The tape VM's fused search
/// instruction goes through this; `tests/engine_equivalence.rs` holds
/// it equal to the two-step path.
///
/// `result.rows` must strictly ascend, as every search reports them.
/// When the merged prefix is rows `0..n` (a last row of `n - 1` pins
/// the rest) with ids below `2²⁴` (so the `f32` round trip is exact)
/// and `offset..offset + n` fits the accumulator row, it lands with one
/// bounds check and a plain `+=` over the slice; otherwise element by
/// element.
///
/// # Errors
/// [`merge_partial_rows`]'s accumulator-rank and bounds errors, at the
/// same element.
pub fn merge_search_result(
    acc: &mut Tensor,
    result: &SearchResult,
    declared: usize,
    q: usize,
    offset: i64,
) -> Result<(), String> {
    let row = accumulator_row(acc, q)?;
    let n = result.rows.len().min(result.distances.len()).min(declared);
    if n > 0 && n < 1 << 24 && result.rows[n - 1] == n - 1 {
        let span = usize::try_from(offset)
            .ok()
            .and_then(|o| row.get_mut(o..o.checked_add(n)?));
        if let Some(span) = span {
            for (a, &dist) in span.iter_mut().zip(&result.distances[..n]) {
                *a += dist as f32;
            }
            return Ok(());
        }
    }
    for (&stored, &dist) in result.rows.iter().zip(&result.distances).take(declared) {
        // Round-trip through `f32` exactly like the materialized read.
        merge_one(row, stored as f32, dist as f32, offset)?;
    }
    Ok(())
}

/// Final top-k over an accumulated score matrix (`cam.reduce` /
/// `cim.reduce`).
///
/// `device` selects the device-score convention (negated overlap counts
/// for dot/cos; values are mapped back to positive magnitudes).
///
/// Ties break by column index, so on a row without NaN the comparator
/// is a strict total order: there the `k < n` best are selected
/// (`select_nth_unstable_by`) and only they are sorted — the full
/// sort's first `k`, found without ordering the rest.
///
/// # Errors
/// Fails on non-rank-2 accumulators or `k` exceeding the valid columns.
pub fn reduce_scores(
    acc: &Tensor,
    k: usize,
    n_valid: usize,
    largest: bool,
    metric: &str,
    device: bool,
) -> Result<(Tensor, Tensor), String> {
    if acc.rank() != 2 {
        return Err("reduce expects a rank-2 accumulator".to_string());
    }
    let (nq, cols) = (acc.shape()[0], acc.shape()[1]);
    let n = n_valid.min(cols);
    let mut vals = Vec::with_capacity(nq * k);
    let mut idx = Vec::with_capacity(nq * k);
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for i in 0..nq {
        let row = &acc.data()[i * cols..i * cols + n];
        let by_score = |&a: &usize, &b: &usize| {
            let cmp = row[a]
                .partial_cmp(&row[b])
                .unwrap_or(std::cmp::Ordering::Equal);
            let cmp = if largest { cmp.reverse() } else { cmp };
            cmp.then(a.cmp(&b))
        };
        order.clear();
        order.extend(0..n);
        if 0 < k && k < n && !row.iter().any(|v| v.is_nan()) {
            order.select_nth_unstable_by(k - 1, by_score);
            order[..k].sort_by(by_score);
        } else {
            order.sort_by(by_score);
        }
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
    Ok((
        Tensor::from_vec(vec![nq, k], vals).map_err(|e| e.message)?,
        Tensor::from_vec(vec![nq, k], idx).map_err(|e| e.message)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank2_views_and_rows_borrow_the_tensor() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert!(as_rank2(&t).shares_storage(&t));
        let v = Tensor::from_slice(&[7., 8.]);
        let flat = as_rank2(&v);
        assert_eq!(flat.shape(), &[1, 2]);
        assert!(flat.shares_storage(&v));
        let rows = tensor_rows(&t);
        assert_eq!(rows, [&[1., 2., 3.][..], &[4., 5., 6.]]);
        assert!(std::ptr::eq(rows[1], &t.data()[3..]));
        assert_eq!(tensor_rows(&v), [&[7., 8.][..]]);
    }

    #[test]
    fn read_tensors_pad_with_infinity_and_negative_ids() {
        let r = SearchResult {
            rows: vec![2, 5],
            distances: vec![1.0, 3.0],
            matched: vec![false, true],
        };
        let (vals, idx) = read_tensors(&r, &[4]).unwrap();
        assert_eq!(vals.data(), &[1.0, 3.0, f32::INFINITY, f32::INFINITY]);
        assert_eq!(idx.data(), &[2.0, 5.0, -1.0, -1.0]);
    }

    #[test]
    fn read_tensors_into_recycles_stale_buffers() {
        let r = SearchResult {
            rows: vec![7],
            distances: vec![4.0],
            matched: vec![true],
        };
        // Stale contents from a previous iteration must be fully
        // overwritten, including the padded tail.
        let mut vals = Tensor::from_slice(&[9.0, 9.0, 9.0]);
        let mut idx = Tensor::from_slice(&[9.0, 9.0, 9.0]);
        read_tensors_into(&r, &mut vals, &mut idx).unwrap();
        assert_eq!(vals.data(), &[4.0, f32::INFINITY, f32::INFINITY]);
        assert_eq!(idx.data(), &[7.0, -1.0, -1.0]);
        let mut short = Tensor::from_slice(&[0.0]);
        assert!(read_tensors_into(&r, &mut vals, &mut short).is_err());
    }

    #[test]
    fn merge_skips_padding_and_offsets_columns() {
        let mut acc = Tensor::zeros(vec![2, 6]);
        let vals = Tensor::from_slice(&[1.0, 2.0, 9.0]);
        let idx = Tensor::from_slice(&[0.0, 1.0, -1.0]);
        merge_partial_rows(&mut acc, &vals, &idx, 1, 3).unwrap();
        assert_eq!(
            acc.data(),
            &[0., 0., 0., 0., 0., 0., 0., 0., 0., 1., 2., 0.]
        );
        assert!(merge_partial_rows(&mut acc, &vals, &idx, 2, 0).is_err());
        assert!(merge_partial_rows(&mut acc, &vals, &idx, 0, 5).is_err());
    }

    #[test]
    fn merging_into_a_non_rank_2_accumulator_is_an_error_not_a_panic() {
        let vals = Tensor::from_slice(&[1.0]);
        let idx = Tensor::from_slice(&[0.0]);
        let r = SearchResult {
            rows: vec![0],
            distances: vec![1.0],
            matched: vec![true],
        };
        for shape in [vec![4], vec![2, 2, 2]] {
            let mut acc = Tensor::zeros(shape);
            let e = merge_partial_rows(&mut acc, &vals, &idx, 0, 0).unwrap_err();
            assert!(e.contains("rank-2 accumulator"), "{e}");
            let fused = merge_search_result(&mut acc, &r, 1, 0, 0).unwrap_err();
            assert_eq!(e, fused);
        }
    }

    #[test]
    fn fused_merge_truncates_to_the_declared_read_size() {
        let r = SearchResult {
            rows: vec![0, 1, 2],
            distances: vec![1.0, 2.0, 4.0],
            matched: vec![true; 3],
        };
        let mut acc = Tensor::zeros(vec![1, 4]);
        merge_search_result(&mut acc, &r, 2, 0, 1).unwrap();
        assert_eq!(acc.data(), &[0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn reduce_scores_breaks_ties_by_index() {
        let acc = Tensor::from_vec(vec![1, 4], vec![2.0, 1.0, 1.0, 5.0]).unwrap();
        let (vals, idx) = reduce_scores(&acc, 2, 4, false, "plain", false).unwrap();
        assert_eq!(idx.data(), &[1.0, 2.0]);
        assert_eq!(vals.data(), &[1.0, 1.0]);
    }

    #[test]
    fn reduce_scores_maps_device_dot_back_to_positive() {
        // Device dot scores are negated overlap counts; the winner (most
        // overlap) is the *largest* raw magnitude, selected with
        // largest=true after the cam-map flip, and mapped back positive.
        let acc = Tensor::from_vec(vec![1, 2], vec![-3.0, -7.0]).unwrap();
        let (vals, idx) = reduce_scores(&acc, 1, 2, false, "dot", true).unwrap();
        assert_eq!(idx.data(), &[1.0]);
        assert_eq!(vals.data(), &[7.0]);
    }
}
