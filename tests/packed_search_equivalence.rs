//! Differential property tests for the packed match planes: for every
//! `MatchKind` × `Metric` × `bits_per_cell` ∈ {1, 2} and random row
//! windows (including don't-care-padded and wildcard rows), the packed
//! [`Subarray::search`] must be **bit-identical** to the retained
//! per-cell oracle [`Subarray::search_naive`] — row sets, match flags,
//! and the raw `f64` bits of every distance.
//!
//! The full-array cases hold the dense sweep (every row programmed, the
//! whole window, exact-integer Euclidean) to the oracle and to the
//! generic sweep, which the same rows searched as two windows take.
//!
//! The block search ([`Subarray::search_merge_block`]) is held to what
//! it replaces: per query, [`Subarray::search`] and then
//! `merge_search_result`, compared by the accumulator's bits.

use c4cam::arch::{MatchKind, Metric};
use c4cam::camsim::{
    CamCell, FaultConfig, FaultModel, KernelTier, MergeInto, QueryWindows, Resilience,
    RowSelection, SearchScratch, Subarray, SubarrayFaults,
};
use c4cam::runtime::kernels::merge_search_result;
use c4cam::tensor::Tensor;
use proptest::prelude::*;

const COLS: usize = 70; // crosses a u64 plane-word boundary
/// Rows of the full-array cases.
const FULL_ROWS: usize = 12;

/// Every kernel tier this host can run, plus `None` for the default
/// (auto-detected) dispatch path. Tiers above the host's capability
/// are skipped, not failed — the unit suite covers their rejection.
fn supported_tiers() -> Vec<Option<KernelTier>> {
    let best = KernelTier::detect();
    let mut tiers = vec![None];
    for t in [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512] {
        if t <= best {
            tiers.push(Some(t));
        }
    }
    tiers
}

fn assert_bit_identical(s: &mut Subarray, q: &[f32], kind: MatchKind, metric: Metric) {
    for selection in [
        RowSelection::All,
        RowSelection::Window { start: 1, len: 4 },
        RowSelection::Window {
            start: 3,
            len: usize::MAX,
        },
    ] {
        for wta in [None, Some(2)] {
            let naive = s
                .search_naive(q, kind, metric, selection, 2.0, wta)
                .unwrap()
                .clone();
            for tier in supported_tiers() {
                let mut scratch = SearchScratch::default();
                scratch.set_kernel_tier(tier).unwrap();
                let packed = s
                    .search(q, kind, metric, selection, 2.0, wta, &mut scratch)
                    .unwrap();
                assert_eq!(
                    naive.rows, packed.rows,
                    "{kind:?}/{metric:?}/{selection:?}/tier={tier:?}"
                );
                assert_eq!(
                    naive.matched, packed.matched,
                    "{kind:?}/{metric:?}/{selection:?}/tier={tier:?}"
                );
                assert_eq!(naive.distances.len(), packed.distances.len());
                for (i, (a, b)) in naive.distances.iter().zip(&packed.distances).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "distance {i} diverged under {kind:?}/{metric:?}/{selection:?}/wta={wta:?}/tier={tier:?}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// Wider than any query of these cases by more than one 32-cell chunk.
const PRIMED_WIDTH: usize = 2200;

/// A scratch on `tier` that has already packed a wider query of nonzero
/// integers: a kernel that reads past the current query's width meets
/// stale nonzero lanes rather than zeros.
fn primed_scratch(tier: Option<KernelTier>) -> SearchScratch {
    let mut scratch = SearchScratch::default();
    scratch.set_kernel_tier(tier).unwrap();
    let mut wide = Subarray::new(1, PRIMED_WIDTH);
    wide.write_rows(0, &[vec![1.0; PRIMED_WIDTH]], 2).unwrap();
    let q = [3.0f32; PRIMED_WIDTH];
    let (kind, metric) = (MatchKind::Best, Metric::Euclidean);
    wide.search(&q, kind, metric, RowSelection::All, 0.0, None, &mut scratch)
        .unwrap();
    scratch
}

/// Search every row of `s` through the full window (the dense sweep,
/// when it applies) and hold it to the oracle and the generic sweep
/// ([`assert_full_window_bit_identical`]).
fn assert_full_array_bit_identical(s: &mut Subarray, q: &[f32], kind: MatchKind, metric: Metric) {
    let every_row: Vec<usize> = (0..s.rows()).collect();
    let naive = s.search_naive(q, kind, metric, RowSelection::All, 2.0, None);
    assert_eq!(naive.unwrap().rows, every_row, "every row");
    assert_full_window_bit_identical(s, q, kind, metric, None);
}

/// Search `s` through the full window (a specialised sweep, when one
/// applies) and hold it bit for bit to the oracle — rows, match flags,
/// distances — and to the generic sweep the same rows take as two
/// windows: rows, distances and `searched_words`.
fn assert_full_window_bit_identical(
    s: &mut Subarray,
    q: &[f32],
    kind: MatchKind,
    metric: Metric,
    wta: Option<u32>,
) {
    let all = RowSelection::All;
    let naive = s
        .search_naive(q, kind, metric, all, 2.0, wta)
        .unwrap()
        .clone();
    let half = s.rows() / 2;
    let halves = [
        RowSelection::Window {
            start: 0,
            len: half,
        },
        RowSelection::Window {
            start: half,
            len: usize::MAX,
        },
    ];
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for tier in supported_tiers() {
        let mut scratch = primed_scratch(tier);
        let (mut generic_rows, mut generic, mut generic_words) =
            (Vec::<usize>::new(), Vec::new(), 0);
        for selection in halves {
            let part = s
                .search(q, kind, metric, selection, 2.0, wta, &mut scratch)
                .unwrap();
            generic_rows.extend(&part.rows);
            generic.extend(bits(&part.distances));
            generic_words += s.last_searched_words();
        }
        let full = s
            .search(q, kind, metric, all, 2.0, wta, &mut scratch)
            .unwrap()
            .clone();
        let at = format!("{kind:?}/{metric:?}/wta={wta:?}/tier={tier:?}/q={q:?}");
        assert_eq!(naive.rows, full.rows, "{at}");
        assert_eq!(naive.matched, full.matched, "{at}");
        assert_eq!(bits(&naive.distances), bits(&full.distances), "{at}");
        assert_eq!(generic_rows, full.rows, "{at}");
        assert_eq!(generic, bits(&full.distances), "{at}");
        assert_eq!(generic_words, s.last_searched_words(), "{at}");
    }
}

/// Columns of the all-binary cases: the widest query spans three plane
/// words.
const BIN_COLS: usize = 150;

/// How row `r` of an all-binary case is programmed: left unprogrammed
/// (a hole), as a full-width or a ragged (don't-care-padded) 1-bit row,
/// or through `write_cells` with a don't-care cell.
fn program_binary_row(s: &mut Subarray, r: usize, shape: u8, bits: &[u8]) {
    let cells = |w: usize| bits[..w].iter().map(|&b| f32::from(b)).collect::<Vec<_>>();
    match shape {
        0 => {}
        1 => s.write_rows(r, &[cells(BIN_COLS)], 1).unwrap(),
        2 => s.write_rows(r, &[cells(1 + r * 37 % BIN_COLS)], 1).unwrap(),
        _ => {
            let mut row: Vec<CamCell> = bits
                .iter()
                .map(|&b| if b == 1 { CamCell::One } else { CamCell::Zero })
                .collect();
            row[r * 11 % BIN_COLS] = CamCell::DontCare;
            s.write_cells(r, &[row]).unwrap();
        }
    }
}

/// How the row at a block boundary departs from its full-width run.
#[derive(Debug, Clone, Copy)]
enum Boundary {
    /// A full-width 2- or 8-bit row like the rest.
    Run,
    /// `write_cells` over the query's width: the block still expands.
    Cells,
    /// `write_cells` with a don't-care hole: no care prefix.
    Hole,
    /// One cell short of the query.
    Short,
    /// One cell wider than the query.
    Wide,
    /// A 1-bit row.
    Binary,
}

const BOUNDARIES: [Boundary; 6] = [
    Boundary::Run,
    Boundary::Cells,
    Boundary::Hole,
    Boundary::Short,
    Boundary::Wide,
    Boundary::Binary,
];

/// Deterministic draws for the block cases.
fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *seed >> 33
}

/// A `rows × (qlen + 1)` subarray of full-width rows in 16-row runs,
/// one row of each run — its first or its last — perturbed as
/// [`BOUNDARIES`] cycles. Stored levels are nonzero, so a perturbed row
/// admitted to the block kernel moves its distance. `faults`: 0 none,
/// 1 stuck-at and drift, 2 those plus transients.
fn block_case(rows: usize, qlen: usize, case: usize, faults: u8) -> Subarray {
    let cols = qlen + 1;
    let mut s = Subarray::new(rows, cols);
    if faults > 0 {
        let model = FaultModel {
            seed: 3 + case as u64,
            stuck_at_zero: 0.02,
            stuck_at_one: 0.02,
            drift: 0.1,
            transient: if faults == 2 { 0.2 } else { 0.0 },
        };
        let cfg = FaultConfig {
            model,
            resilience: Resilience::default(),
        };
        s.set_faults(Some(Box::new(SubarrayFaults::generate(
            &cfg, 0, rows, cols,
        ))));
    }
    let bits = [2, 8][case % 2];
    let top = (1u64 << bits) - 1;
    let mut seed = case as u64;
    for r in 0..rows {
        let stored: Vec<u8> = (0..cols)
            .map(|_| (1 + next(&mut seed) % top) as u8)
            .collect();
        let block = r / 16;
        let shape = if r % 16 == [0, 15][(block + case) % 2] {
            BOUNDARIES[(block + case) % BOUNDARIES.len()]
        } else {
            Boundary::Run
        };
        let width = match shape {
            Boundary::Short => qlen - 1,
            Boundary::Wide => qlen + 1,
            _ => qlen,
        };
        let row: Vec<f32> = stored[..width].iter().map(|&v| f32::from(v)).collect();
        match shape {
            Boundary::Cells | Boundary::Hole => {
                let mut cells: Vec<CamCell> =
                    stored[..width].iter().map(|&v| CamCell::Multi(v)).collect();
                if matches!(shape, Boundary::Hole) {
                    cells[width / 2] = CamCell::DontCare;
                }
                s.write_cells(r, &[cells]).unwrap();
            }
            Boundary::Binary => s.write_rows(r, &[row], 1).unwrap(),
            _ => s.write_rows(r, &[row], bits).unwrap(),
        }
    }
    s
}

/// A nonzero integral query, at the `i16` fold's magnitude bound in
/// places; `past_fold` puts one value beyond it.
fn block_query(qlen: usize, case: usize, past_fold: bool) -> Vec<f32> {
    let values = [-1024.0, -3.0, -1.0, 1.0, 2.0, 5.0, 1024.0];
    let mut seed = 99 + case as u64;
    let mut q: Vec<f32> = (0..qlen)
        .map(|_| values[next(&mut seed) as usize % values.len()])
        .collect();
    if past_fold {
        q[0] = 2000.0;
    }
    q
}

fn kinds() -> [MatchKind; 3] {
    [MatchKind::Exact, MatchKind::Threshold, MatchKind::Best]
}

fn metrics() -> [Metric; 3] {
    [Metric::Hamming, Metric::Euclidean, Metric::Dot]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Binary rows (`bits_per_cell` = 1) with ragged widths (don't-care
    /// padding) and 0/1 or arbitrary-float queries.
    #[test]
    fn packed_equals_naive_on_binary_rows(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..2, 1..COLS), 1..8),
        qbits in proptest::collection::vec(0u8..2, COLS),
        qfloat in proptest::collection::vec(-3.0f32..3.0, 1..COLS),
    ) {
        let mut s = Subarray::new(8, COLS);
        let data: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| r.iter().map(|&b| f32::from(b)).collect())
            .collect();
        s.write_rows(0, &data, 1).unwrap();
        let qb: Vec<f32> = qbits.iter().map(|&b| f32::from(b)).collect();
        for kind in kinds() {
            for metric in metrics() {
                assert_bit_identical(&mut s, &qb, kind, metric);
                assert_bit_identical(&mut s, &qfloat, kind, metric);
            }
        }
    }

    /// Multi-bit rows (`bits_per_cell` = 2, levels 0..=3) with integral
    /// and fractional queries: exercises the level plane, the
    /// exact-integer Euclidean accumulator, and its f64 fallback.
    #[test]
    fn packed_equals_naive_on_multibit_rows(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 1..COLS), 1..8),
        qlvl in proptest::collection::vec(0u8..4, COLS),
        qfrac in proptest::collection::vec(-4.0f32..8.0, 1..COLS),
    ) {
        let mut s = Subarray::new(8, COLS);
        let data: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| v as f32).collect())
            .collect();
        s.write_rows(0, &data, 2).unwrap();
        let qi: Vec<f32> = qlvl.iter().map(|&v| v as f32).collect();
        for kind in kinds() {
            for metric in metrics() {
                assert_bit_identical(&mut s, &qi, kind, metric);
                assert_bit_identical(&mut s, &qfrac, kind, metric);
            }
        }
    }

    /// Wildcard-cell rows mixing binary bits, explicit don't-cares,
    /// multi-bit levels and analog ranges: packed rows take the plane
    /// kernels, mixed/range rows take the per-cell fallback, and the
    /// combination must still match the oracle bit for bit.
    #[test]
    fn packed_equals_naive_on_wildcard_rows(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..6, 1..20), 1..8),
        q in proptest::collection::vec(-2.0f32..4.0, 1..20),
    ) {
        let mut s = Subarray::new(8, 20);
        let cells: Vec<Vec<CamCell>> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, &v)| match v {
                        0 => CamCell::Zero,
                        1 => CamCell::One,
                        2 => CamCell::DontCare,
                        3 => CamCell::Multi((i % 4) as u8),
                        4 => CamCell::Range(-0.5, 1.5),
                        _ => CamCell::Range(i as f32 * 0.25, i as f32 * 0.5 + 1.0),
                    })
                    .collect()
            })
            .collect();
        s.write_cells(0, &cells).unwrap();
        for kind in kinds() {
            for metric in metrics() {
                assert_bit_identical(&mut s, &q, kind, metric);
            }
        }
    }

    /// Sparse programming: only some rows valid, searched through random
    /// windows (clamped, possibly overflowing `start + len`).
    #[test]
    fn packed_equals_naive_on_sparse_windows(
        occupied in proptest::collection::vec(any::<bool>(), 8),
        start in 0usize..10,
        len in 0usize..12,
        q in proptest::collection::vec(0.0f32..2.0, 1..16),
    ) {
        let mut s = Subarray::new(8, 16);
        for (r, &on) in occupied.iter().enumerate() {
            if on {
                let row: Vec<f32> = (0..16).map(|c| ((c + r) % 2) as f32).collect();
                s.write_rows(r, &[row], 1).unwrap();
            }
        }
        let selection = RowSelection::Window { start, len };
        for kind in kinds() {
            for metric in metrics() {
                let naive = s
                    .search_naive(&q, kind, metric, selection, 1.0, None)
                    .unwrap()
                    .clone();
                for tier in supported_tiers() {
                    let mut scratch = SearchScratch::default();
                    scratch.set_kernel_tier(tier).unwrap();
                    let packed = s
                        .search(&q, kind, metric, selection, 1.0, None, &mut scratch)
                        .unwrap();
                    prop_assert_eq!(&naive.rows, &packed.rows);
                    prop_assert_eq!(&naive.matched, &packed.matched);
                    for (a, b) in naive.distances.iter().zip(&packed.distances) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }
    }

    /// Every row programmed: 2-bit rows narrower than the query, as wide
    /// as it (the expanded square), wider, and through `write_cells`
    /// with and without a don't-care hole, among 1-bit rows; small and
    /// past-`i16` integral queries; fault-free, stuck-at and drift
    /// faults (the sweep stays dense: `Σ level²` must be the faulted
    /// one), and transient faults (it must fall back).
    #[test]
    fn full_array_dense_sweep_equals_naive_and_generic(
        qlen in 1usize..COLS + 1,
        shapes in proptest::collection::vec(0u8..7, FULL_ROWS),
        levels in proptest::collection::vec(0u8..4, FULL_ROWS * COLS),
        qint in proptest::collection::vec(-3i16..7, COLS),
        big in 0u8..4,
        faults in 0u8..3,
    ) {
        let mut s = Subarray::new(FULL_ROWS, COLS);
        if faults > 0 {
            let model = FaultModel {
                seed: 11,
                stuck_at_zero: 0.05,
                stuck_at_one: 0.05,
                drift: 0.1,
                transient: if faults == 2 { 0.2 } else { 0.0 },
            };
            let cfg = FaultConfig { model, resilience: Resilience::default() };
            s.set_faults(Some(Box::new(SubarrayFaults::generate(&cfg, 0, FULL_ROWS, COLS))));
        }
        for (r, &shape) in shapes.iter().enumerate() {
            let stored = &levels[r * COLS..(r + 1) * COLS];
            let width = match shape {
                0 => qlen - 1,
                3 => (qlen + 1).min(COLS),
                _ => qlen,
            };
            let row: Vec<f32> = stored[..width].iter().map(|&v| f32::from(v)).collect();
            match shape {
                4 => s.write_rows(r, &[row], 1).unwrap(),
                5 | 6 => {
                    let mut cells: Vec<CamCell> =
                        stored[..width].iter().map(|&v| CamCell::Multi(v)).collect();
                    if shape == 6 {
                        cells[width / 2] = CamCell::DontCare;
                    }
                    s.write_cells(r, &[cells]).unwrap();
                }
                _ => s.write_rows(r, &[row], 2).unwrap(),
            }
        }
        let mut q: Vec<f32> = qint[..qlen].iter().map(|&v| f32::from(v)).collect();
        if big == 0 {
            q[0] = 2000.0; // exact-integer, but past the small-magnitude fold
        }
        for kind in kinds() {
            for metric in metrics() {
                assert_full_array_bit_identical(&mut s, &q, kind, metric);
            }
        }
    }

    /// Every programmed row binary, holes allowed: full-width, ragged
    /// and don't-care rows; queries shorter than a plane word, exactly
    /// one, and wider; Hamming with and without a WTA window, and Dot.
    /// The binary sweep takes these, stuck-at faults included; a
    /// transient draw, a multi-bit row or a side-table row must send
    /// the search back to the generic sweep. Either way the result is
    /// the oracle's and the generic sweep's, bit for bit.
    #[test]
    fn full_window_binary_sweep_equals_naive_and_generic(
        short in 1usize..64,
        wide in 65usize..BIN_COLS + 1,
        shapes in proptest::collection::vec(0u8..4, FULL_ROWS),
        bits in proptest::collection::vec(0u8..2, FULL_ROWS * BIN_COLS),
        qcells in proptest::collection::vec(0u8..4, BIN_COLS),
        window in 1u32..6,
        case in 0u8..5,
    ) {
        let mut s = Subarray::new(FULL_ROWS, BIN_COLS);
        if case == 1 || case == 2 {
            let model = FaultModel {
                seed: 5,
                stuck_at_zero: 0.05,
                stuck_at_one: 0.05,
                drift: 0.0,
                transient: if case == 2 { 0.2 } else { 0.0 },
            };
            let cfg = FaultConfig { model, resilience: Resilience::default() };
            s.set_faults(Some(Box::new(SubarrayFaults::generate(&cfg, 0, FULL_ROWS, BIN_COLS))));
        }
        for (r, &shape) in shapes.iter().enumerate() {
            program_binary_row(&mut s, r, shape, &bits[r * BIN_COLS..(r + 1) * BIN_COLS]);
        }
        match case {
            3 => s.write_rows(FULL_ROWS / 2, &[vec![2.0, 0.0, 3.0]], 2).unwrap(),
            4 => s.write_cells(FULL_ROWS / 2, &[vec![CamCell::Range(-0.5, 1.5)]]).unwrap(),
            _ => {}
        }
        let q: Vec<f32> = qcells.iter().map(|&c| [0.0, 1.0, -0.0, 0.5][usize::from(c)]).collect();
        for qlen in [short, 64, wide] {
            for kind in kinds() {
                for metric in [Metric::Hamming, Metric::Dot] {
                    for wta in [None, Some(window)] {
                        assert_full_window_bit_identical(&mut s, &q[..qlen], kind, metric, wta);
                    }
                }
            }
        }
    }
}

/// Full arrays of 16-row runs: one block, two blocks and a ragged tail,
/// and eight blocks (the kNN geometry); query widths with and without a
/// ragged 32-cell tail, across one to three 1024-cell blocks, with a
/// subarray one column wider than the query (a read past the query's
/// width lands in the next row). Each width runs fault-free or under
/// stuck-at and drift faults (the sweep stays dense: `Σ level²` must be
/// the faulted one), then under transient faults or with a query past
/// the `i16` fold (it must fall back). On an AVX-512 host the dense
/// sweep takes the block kernel for every block whose rows all expand
/// their squares, and the per-row fold for the rest.
#[test]
fn dense_blocks_equal_naive_and_generic() {
    println!("dense block cases on tiers {:?}", supported_tiers());
    let qlens = [1, 31, 32, 33, 70, 128, 1023, 1024, 1025, 2100];
    let mut case = 0;
    for rows in [16, 37, 128] {
        for qlen in qlens {
            let odd = case % 2 == 1;
            let other = if odd {
                MatchKind::Exact
            } else {
                MatchKind::Threshold
            };
            // (faults, past the fold): one dense run, one fallback.
            let runs = match odd {
                false => [(0, false), (2, false)],
                true => [(1, false), (0, true)],
            };
            for (faults, past_fold) in runs {
                let mut s = block_case(rows, qlen, case, faults);
                let q = block_query(qlen, case, past_fold);
                for kind in [MatchKind::Best, other] {
                    assert_full_array_bit_identical(&mut s, &q, kind, Metric::Euclidean);
                }
            }
            case += 1;
        }
    }
}

/// Subarrays whose rows take each sweep a block search shares with a
/// search: binary rows with holes and ragged ends, 2-bit level rows,
/// every row a full-width 2-bit row (the dense sweep), and binary rows
/// beside per-cell (`Other`) rows. `width` is the query window's.
fn block_subarrays(width: usize) -> Vec<(&'static str, Subarray)> {
    let (rows, cols) = (12, 70);
    let mut seed = 5;
    let mut draw = |n: u64| next(&mut seed) % n;
    let mut binary = Subarray::new(rows, cols);
    let mut levels = Subarray::new(rows, cols);
    let mut dense = Subarray::new(rows, cols);
    let mut other = Subarray::new(rows, cols);
    for r in 0..rows {
        let ragged = if r % 3 == 1 { width - 3 } else { width };
        let bits: Vec<f32> = (0..ragged).map(|_| draw(2) as f32).collect();
        let lv: Vec<f32> = (0..ragged).map(|_| draw(4) as f32).collect();
        if r != 2 && r != 7 {
            binary
                .write_rows(r, std::slice::from_ref(&bits), 1)
                .unwrap();
            levels.write_rows(r, &[lv], 2).unwrap();
        }
        let full: Vec<f32> = (0..width).map(|_| draw(4) as f32).collect();
        dense.write_rows(r, &[full], 2).unwrap();
        if r % 4 == 3 {
            let cells: Vec<CamCell> = (0..width)
                .map(|c| match draw(3) {
                    0 => CamCell::Range(-0.5, 1.5),
                    1 => CamCell::Multi((c % 4) as u8),
                    _ => CamCell::One,
                })
                .collect();
            other.write_cells(r, &[cells]).unwrap();
        } else {
            other.write_rows(r, &[bits], 1).unwrap();
        }
    }
    vec![
        ("binary", binary),
        ("levels", levels),
        ("dense", dense),
        ("other", other),
    ]
}

/// The accumulator a block case starts from: nonzero, so that a merge
/// landing on the wrong column or a missing one shows.
const ACC: (usize, usize) = (6, 24);

fn acc_start() -> Vec<f32> {
    (0..ACC.0 * ACC.1).map(|i| (i % 7) as f32 * 0.25).collect()
}

/// Query `q`'s window, zero-padded past the query tensor, built here
/// without the kernel's helper.
fn padded(queries: &[f32], qcols: usize, q: usize, col: usize, width: usize) -> Vec<f32> {
    (col..col + width)
        .map(|c| match queries.get(q * qcols + c) {
            Some(&v) if c < qcols => v,
            _ => 0.0,
        })
        .collect()
}

/// One block search against the per-query searches and merges it
/// replaces, on every supported tier: the accumulator's bits must agree.
#[allow(clippy::too_many_arguments)]
fn assert_block_merges_as_searches_do(
    s: &Subarray,
    (queries, qrows, qcols): (&[f32], usize, usize),
    rows: &[usize],
    (col, width): (usize, usize),
    (kind, metric): (MatchKind, Metric),
    selection: RowSelection,
    wta: Option<u32>,
    (declared, offset): (usize, i64),
    what: &str,
) {
    for tier in supported_tiers() {
        let mut scratch = primed_scratch(tier);
        let mut want = Tensor::from_vec(vec![ACC.0, ACC.1], acc_start()).unwrap();
        let mut one = s.clone();
        for &q in rows {
            let window = padded(queries, qcols, q, col, width);
            let result = one
                .search(&window, kind, metric, selection, 2.0, wta, &mut scratch)
                .unwrap();
            merge_search_result(&mut want, result, declared, q, offset).unwrap();
        }
        let mut got = acc_start();
        let windows = QueryWindows {
            data: queries,
            rows: qrows,
            cols: qcols,
            col,
            width,
        };
        let into = MergeInto {
            acc: &mut got,
            rows: ACC.0,
            cols: ACC.1,
            offset,
            declared,
        };
        let mut block = s.clone();
        assert!(
            block.search_merge_block(&windows, rows, metric, selection, wta, into, &mut scratch),
            "{what}: the block was not served"
        );
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(want.data()),
            bits(&got),
            "{what} {kind:?}/{metric:?}/{selection:?}/wta={wta:?}/declared={declared}/offset={offset}/tier={tier:?}"
        );
    }
}

/// A block search adds into each query's accumulator row exactly what
/// a search and a merge per query add: binary, level, dense and
/// per-cell rows; full and selective windows; the WTA clamp; all three
/// match kinds and metrics; a `declared` below the valid rows; a
/// nonzero offset; and windows that run past the query tensor's
/// columns, or lie wholly below its rows (zero padding).
#[test]
fn block_searches_merge_as_per_query_searches_do() {
    let (qrows, qcols, width) = (4, 50, 40);
    let mut seed = 17;
    let values = [0.0, 1.0, 2.0, 3.0, 0.5, -1.0];
    let queries: Vec<f32> = (0..qrows * qcols)
        .map(|_| values[next(&mut seed) as usize % values.len()])
        .collect();
    // Integral and in range, so the dense sweep's exact-integer path runs.
    let integral: Vec<f32> = queries.iter().map(|v| v.abs().floor()).collect();
    // Row 5 is past the query tensor's rows: an all-zero window.
    let rows = [0, 1, 2, 3, 5];
    let selections = [
        RowSelection::All,
        RowSelection::Window { start: 1, len: 5 },
        RowSelection::Window {
            start: 3,
            len: usize::MAX,
        },
    ];
    for (name, s) in block_subarrays(width) {
        let q = if name == "dense" { &integral } else { &queries };
        // The second window runs 30 columns past the tensor's edge.
        for window in [(0, width), (qcols - 10, width)] {
            for kind in kinds() {
                for metric in metrics() {
                    for selection in selections {
                        for wta in [None, Some(2)] {
                            for merge in [(64, 0), (3, 5)] {
                                assert_block_merges_as_searches_do(
                                    &s,
                                    (q, qrows, qcols),
                                    &rows,
                                    window,
                                    (kind, metric),
                                    selection,
                                    wta,
                                    merge,
                                    name,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A block search serves nothing, and writes nothing, where a query by
/// query search or merge would fail or could differ: a merged column
/// or a query row outside the accumulator, a window wider than the
/// subarray, installed faults.
#[test]
fn a_block_search_declines_what_per_query_searches_must_report() {
    let width = 40;
    let queries = vec![1.0; 4 * width];
    let windows = QueryWindows {
        data: &queries,
        rows: 4,
        cols: width,
        col: 0,
        width,
    };
    let (_, s) = block_subarrays(width).swap_remove(0);
    let declined = |s: &Subarray, windows: &QueryWindows, rows: &[usize], merge: (usize, i64)| {
        let mut acc = acc_start();
        let into = MergeInto {
            acc: &mut acc,
            rows: ACC.0,
            cols: ACC.1,
            offset: merge.1,
            declared: merge.0,
        };
        let mut s = s.clone();
        let mut scratch = SearchScratch::default();
        let all = RowSelection::All;
        let served = s.search_merge_block(
            windows,
            rows,
            Metric::Hamming,
            all,
            None,
            into,
            &mut scratch,
        );
        assert!(served || acc == acc_start(), "a declined block wrote");
        !served
    };
    // Row 11 lands on column 11 + 13 = 24 of 24; row 0 on −1.
    assert!(declined(&s, &windows, &[0, 1], (64, 13)));
    assert!(declined(&s, &windows, &[0, 1], (64, -1)));
    assert!(!declined(&s, &windows, &[0, 1], (64, 12)));
    // A declared bound that stops short of row 11 fits.
    assert!(!declined(&s, &windows, &[0, 1], (3, 13)));
    // Accumulator row 6 of 6.
    assert!(declined(&s, &windows, &[0, 6], (64, 0)));
    let wide = QueryWindows {
        width: 71,
        ..windows
    };
    assert!(declined(&s, &wide, &[0], (64, 0)));
    let mut faulty = s.clone();
    let cfg = FaultConfig {
        model: FaultModel {
            seed: 1,
            stuck_at_zero: 0.0,
            stuck_at_one: 0.0,
            drift: 0.0,
            transient: 0.1,
        },
        resilience: Resilience::default(),
    };
    faulty.set_faults(Some(Box::new(SubarrayFaults::generate(&cfg, 0, 12, 70))));
    assert!(declined(&faulty, &windows, &[0], (64, 0)));
}
