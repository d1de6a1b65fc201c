//! The per-cell oracle decodes its rows from the match planes, so the
//! packed ≡ naive suites no longer exercise the *encode* step on their
//! own: a wrong level written by `write_rows` would be read back wrong
//! by both sides. These properties close that gap by holding
//! [`Subarray::decode_row`] equal to an encoding computed **here**,
//! from the input, with `CamCell::encode` (+ `program_level` under
//! faults) — code the plane encoder does not share.

use c4cam::arch::{MatchKind, Metric};
use c4cam::camsim::{CamCell, FaultConfig, RowSelection, SearchScratch, Subarray, SubarrayFaults};
use proptest::prelude::*;

const ROWS: usize = 8;
const COLS: usize = 70; // crosses a u64 plane-word boundary

/// What `write_rows` must store for `row`, cell by cell.
fn expected_row(
    row: &[f32],
    bits: u32,
    r: usize,
    mut faults: Option<&mut SubarrayFaults>,
) -> Vec<CamCell> {
    let top = if bits <= 1 { 1 } else { (1u32 << bits) - 1 } as u8;
    let mut cells: Vec<CamCell> = row
        .iter()
        .enumerate()
        .map(|(c, &v)| {
            let cell = CamCell::encode(v, bits);
            let Some(f) = faults.as_deref_mut() else {
                return cell;
            };
            let intended = match cell {
                CamCell::Zero => 0,
                CamCell::One => 1,
                CamCell::Multi(l) => l,
                other => panic!("encode produced {other:?}"),
            };
            match (bits, f.program_level(r, c, intended, top)) {
                (..=1, 0) => CamCell::Zero,
                (..=1, _) => CamCell::One,
                (_, stored) => CamCell::Multi(stored),
            }
        })
        .collect();
    cells.resize(COLS, CamCell::DontCare);
    cells
}

fn decoded(s: &Subarray, r: usize) -> Vec<CamCell> {
    let mut cells = Vec::new();
    s.decode_row(r, &mut cells);
    cells
}

/// One row of raw cells from a palette: TCAM bits, MCAM levels, or
/// everything (mixes and analog ranges — the side-table rows).
fn cells_from(palette: u8, codes: &[u8]) -> Vec<CamCell> {
    codes
        .iter()
        .enumerate()
        .map(|(i, &code)| match (palette % 3, code % 6) {
            (_, 0) => CamCell::DontCare,
            (0, c) => [CamCell::Zero, CamCell::One][usize::from(c % 2)],
            (1, c) => CamCell::Multi(c * 40 + (i % 7) as u8),
            (_, 1) => CamCell::Zero,
            (_, 2) => CamCell::One,
            (_, 3) => CamCell::Multi((i % 5) as u8),
            (_, _) => CamCell::Range(i as f32 * 0.25 - 1.0, i as f32 * 0.5),
        })
        .collect()
}

fn padded(cells: &[CamCell]) -> Vec<CamCell> {
    let mut cells = cells.to_vec();
    cells.resize(COLS, CamCell::DontCare);
    cells
}

fn needs_side_table(cells: &[CamCell]) -> bool {
    let has = |p: fn(&CamCell) -> bool| cells.iter().any(p);
    has(|c| matches!(c, CamCell::Range(..)))
        || (has(|c| matches!(c, CamCell::Zero | CamCell::One))
            && has(|c| matches!(c, CamCell::Multi(_))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// bits 1..=4 × short / full / empty rows × fault rate {0, 0.25}.
    #[test]
    fn write_rows_stores_exactly_the_independent_encoding(
        bits in 1u32..5,
        seed in 0u64..1000,
        rows in proptest::collection::vec(
            proptest::collection::vec(-2.0f32..20.0, 0..COLS), 1..6),
    ) {
        let mut data = rows;
        data.push((0..COLS).map(|c| (c % 19) as f32 - 1.5).collect()); // full
        data.push(Vec::new()); // empty: padding only
        for rate in [0.0, 0.25] {
            let generate = || SubarrayFaults::generate(&FaultConfig::with_rate(rate, seed), 3, ROWS, COLS);
            let mut oracle = (rate > 0.0).then(generate);
            let mut s = Subarray::new(ROWS, COLS);
            s.set_faults(oracle.clone().map(Box::new));
            s.write_rows(0, &data, bits).unwrap();
            for (r, row) in data.iter().enumerate() {
                let want = expected_row(row, bits, r, oracle.as_mut());
                prop_assert_eq!(decoded(&s, r), want, "row {} at {} bits, rate {}", r, bits, rate);
            }
            prop_assert_eq!(
                s.faults().map(SubarrayFaults::fault_cells),
                oracle.as_ref().map(SubarrayFaults::fault_cells)
            );
            prop_assert_eq!(decoded(&s, ROWS - 1), vec![CamCell::DontCare; COLS]);
        }
    }

    /// `write_cells` round-trips every cell kind: explicit and padding
    /// don't-cares, analog ranges, and binary/multi mixes.
    #[test]
    fn write_cells_round_trips_every_row_kind(
        rows in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(0u8..6, 0..COLS)), 1..ROWS),
    ) {
        let cells: Vec<Vec<CamCell>> = rows.iter().map(|(p, codes)| cells_from(*p, codes)).collect();
        let mut s = Subarray::new(ROWS, COLS);
        s.write_cells(0, &cells).unwrap();
        for (r, row) in cells.iter().enumerate() {
            prop_assert_eq!(decoded(&s, r), padded(row), "row {}", r);
        }
    }

    /// Random overwrites of random rows, packed and side-table kinds
    /// interleaved (packed → `Other` → packed and back): after every
    /// write each row decodes to the last thing written to it, the
    /// side table holds exactly the rows that need it, and the plane
    /// kernels still agree with the oracle.
    #[test]
    fn overwrites_keep_planes_and_side_table_in_step(
        writes in proptest::collection::vec(
            (0usize..ROWS, 0u8..4, proptest::collection::vec(0u8..6, 1..COLS)), 1..24),
        q in proptest::collection::vec(-1.0f32..4.0, 1..COLS),
    ) {
        let mut s = Subarray::new(ROWS, COLS);
        let planes_only = s.heap_bytes();
        let mut model: Vec<Option<Vec<CamCell>>> = vec![None; ROWS];
        for (r, palette, codes) in &writes {
            if *palette == 3 {
                // Through the f32 encoder, 2-bit.
                let row: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
                s.write_rows(*r, std::slice::from_ref(&row), 2).unwrap();
                model[*r] = Some(expected_row(&row, 2, *r, None));
            } else {
                let cells = cells_from(*palette, codes);
                s.write_cells(*r, std::slice::from_ref(&cells)).unwrap();
                model[*r] = Some(padded(&cells));
            }
            for (row, want) in model.iter().enumerate() {
                let want = want.clone().unwrap_or_else(|| vec![CamCell::DontCare; COLS]);
                prop_assert_eq!(decoded(&s, row), want, "row {} after writing row {}", row, r);
            }
            let side_rows = model.iter().flatten().filter(|c| needs_side_table(c)).count();
            if side_rows == 0 {
                prop_assert_eq!(s.heap_bytes(), planes_only, "side table not released");
            } else {
                prop_assert!(s.heap_bytes() >= planes_only + side_rows * COLS * 12);
            }
        }
        for metric in [Metric::Hamming, Metric::Euclidean, Metric::Dot] {
            for selection in [RowSelection::All, RowSelection::Window { start: 2, len: 4 }] {
                let naive = s
                    .search_naive(&q, MatchKind::Best, metric, selection, 0.0, None)
                    .unwrap()
                    .clone();
                let packed = s
                    .search(&q, MatchKind::Best, metric, selection, 0.0, None, &mut SearchScratch::default())
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

/// The sequence the issue names, spelled out: a packed row, overwritten
/// by a row that needs the side table (entry created), overwritten by a
/// packed row again (entry released).
#[test]
fn packed_then_other_then_packed_creates_and_releases_the_entry() {
    let mut s = Subarray::new(4, 8);
    let planes_only = s.heap_bytes();
    s.write_rows(1, &[vec![1.0, 0.0, 1.0]], 1).unwrap();
    assert_eq!(s.heap_bytes(), planes_only);
    let mixed = vec![CamCell::One, CamCell::Multi(3), CamCell::Range(0.5, 1.5)];
    s.write_cells(1, std::slice::from_ref(&mixed)).unwrap();
    assert_eq!(s.heap_bytes(), planes_only + 12 * 8);
    let mut want = mixed;
    want.resize(8, CamCell::DontCare);
    assert_eq!(decoded(&s, 1), want);
    s.write_rows(1, &[vec![2.0, 3.0]], 2).unwrap();
    assert_eq!(s.heap_bytes(), planes_only);
    let mut want = vec![CamCell::Multi(2), CamCell::Multi(3)];
    want.resize(8, CamCell::DontCare);
    assert_eq!(decoded(&s, 1), want);
}
