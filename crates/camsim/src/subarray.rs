//! Functional model of one CAM subarray: `R` rows of `C` cells held as
//! packed **match planes**, searched in parallel over all (or a
//! selected window of) rows.
//!
//! ## The planes are the device state
//!
//! A real CAM evaluates every row in one parallel operation, so rows
//! are stored in the layout the search kernels read and programming
//! encodes each row straight into it — there is no per-cell
//! [`CamCell`] grid. Per row: a `u8` **level plane** (the stored
//! integer level of every cell, `0`/`1` for TCAM bits), a `u8` **care
//! plane** (`0` for don't-care cells and padding, which never
//! mismatch), the same two packed 64 cells per `u64` word for rows of
//! TCAM bits, and one classification (`RowKind`). A multi-bit row has
//! no use for those two words, so their first word each holds its
//! record instead (`LevelsRecord`: care-prefix length and `Σ level²`).
//!
//! A `Binary` row holds only `Zero`/`One`/`DontCare` cells and a
//! `Levels` row only `Multi`/`DontCare`, so (kind, level, care) names
//! each cell exactly: the row is **invertible** and
//! [`Subarray::decode_row`] rebuilds its cells from the planes. An
//! `Other` row is not — a `Range` cell is two `f32` bounds no level
//! byte can carry, and among mixed TCAM and multi-bit cells level `1`
//! would be ambiguous between `One` and `Multi(1)` — so its cells live
//! in a **side table** that does not exist until the first such row is
//! written and is released when the last one is overwritten.
//!
//! Binary rows search as `XOR → AND care → popcount` word folds,
//! multi-bit rows over the level plane, `Other` rows through the
//! per-cell walk. Euclidean distances accumulate as exact integers
//! when the query is integral — a multi-bit row cared over exactly the
//! query's columns as the expanded square `Σq² − 2·Σ level·q + Σ level²`,
//! reading the level plane alone — and in column order over per-column
//! squares otherwise, so packed results are **bit-identical** to the
//! per-cell oracle [`Subarray::search_naive`], which decodes each row
//! it walks and shares no arithmetic with the plane kernels.

use crate::cell::CamCell;
use c4cam_arch::{MatchKind, Metric};
use c4cam_faults::{query_hash, SubarrayFaults};
use std::sync::OnceLock;

/// SIMD dispatch tier of the packed row kernels.
///
/// Tiers are ordered by capability (`Scalar < Avx2 < Avx512`); a host
/// that supports a tier supports every tier below it. Every tier runs
/// the same integer kernel bodies, so distances are bit-identical
/// across tiers by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Portable scalar bodies (always available).
    Scalar,
    /// AVX2 + POPCNT auto-vectorized variants.
    Avx2,
    /// AVX-512 (F/BW/VL + VPOPCNTDQ, and POPCNT for scalar words)
    /// variants.
    Avx512,
}

impl KernelTier {
    /// Environment variable forcing a tier process-wide.
    pub const ENV: &'static str = "C4CAM_KERNEL_TIER";

    /// The tier's canonical keyword (the `C4CAM_KERNEL_TIER` value).
    pub fn keyword(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    /// Parse a tier keyword.
    ///
    /// # Errors
    /// Fails with a structured message naming the valid keywords.
    pub fn from_keyword(s: &str) -> Result<KernelTier, String> {
        match s {
            "scalar" => Ok(KernelTier::Scalar),
            "avx2" => Ok(KernelTier::Avx2),
            "avx512" => Ok(KernelTier::Avx512),
            other => Err(format!(
                "unknown kernel tier '{other}' (expected 'scalar', 'avx2' or 'avx512')"
            )),
        }
    }

    /// Best tier this host supports. Feature detection runs once per
    /// process; later calls are a single atomic load.
    pub fn detect() -> KernelTier {
        static BEST: OnceLock<KernelTier> = OnceLock::new();
        *BEST.get_or_init(detect_best_tier)
    }
}

fn detect_best_tier() -> KernelTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            return KernelTier::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            return KernelTier::Avx2;
        }
    }
    KernelTier::Scalar
}

/// Validate a tier request against an explicit host capability.
///
/// Pure so the unsupported-host rejection is testable on any machine:
/// pass [`KernelTier::detect`] as `best` for the real check.
///
/// # Errors
/// Fails when `requested` exceeds `best`.
pub fn resolve_tier(requested: Option<KernelTier>, best: KernelTier) -> Result<KernelTier, String> {
    match requested {
        None => Ok(best),
        Some(t) if t <= best => Ok(t),
        Some(t) => Err(format!(
            "kernel tier '{}' is not supported by this host (best supported: '{}')",
            t.keyword(),
            best.keyword()
        )),
    }
}

/// Process-wide tier: `C4CAM_KERNEL_TIER` when set (validated against
/// the host), else the detected best. Resolved once and cached — the
/// search hot path pays one load, not an env lookup plus CPUID walk
/// per dispatch.
fn env_tier() -> &'static Result<KernelTier, String> {
    static TIER: OnceLock<Result<KernelTier, String>> = OnceLock::new();
    TIER.get_or_init(|| match std::env::var(KernelTier::ENV) {
        Err(_) => Ok(KernelTier::detect()),
        Ok(s) => {
            let t =
                KernelTier::from_keyword(&s).map_err(|e| format!("{}: {e}", KernelTier::ENV))?;
            resolve_tier(Some(t), KernelTier::detect())
                .map_err(|e| format!("{}: {e}", KernelTier::ENV))
        }
    })
}

/// Which rows participate in a search.
///
/// [`RowSelection::Window`] models *selective row precharging* (paper
/// \[27\], used by the `cam-density` configuration): only the selected rows
/// are precharged and sensed, so a query can target one stored batch out
/// of several sharing the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSelection {
    /// All valid rows participate.
    All,
    /// Only rows `start..start+len` participate.
    Window {
        /// First selected row.
        start: usize,
        /// Number of selected rows.
        len: usize,
    },
}

impl RowSelection {
    /// Resolve into a concrete row range bounded by `rows`.
    pub fn range(&self, rows: usize) -> std::ops::Range<usize> {
        match *self {
            RowSelection::All => 0..rows,
            RowSelection::Window { start, len } => {
                let start = start.min(rows);
                start..start.saturating_add(len).min(rows)
            }
        }
    }

    /// Number of rows activated.
    pub fn active_rows(&self, rows: usize) -> usize {
        self.range(rows).len()
    }
}

/// Outcome of one subarray search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchResult {
    /// Absolute row indices that participated, in order.
    pub rows: Vec<usize>,
    /// Distance per participating row (Hamming count or squared
    /// Euclidean, per the metric).
    pub distances: Vec<f64>,
    /// Match flag per participating row under the requested match kind.
    pub matched: Vec<bool>,
}

impl SearchResult {
    /// Rows flagged as matches.
    pub fn matching_rows(&self) -> Vec<usize> {
        self.rows
            .iter()
            .zip(&self.matched)
            .filter_map(|(&r, &m)| if m { Some(r) } else { None })
            .collect()
    }

    /// Rows achieving the minimum distance (the best-match winners).
    pub fn best_rows(&self) -> Vec<usize> {
        let min = self.distances.iter().cloned().fold(f64::INFINITY, f64::min);
        self.rows
            .iter()
            .zip(&self.distances)
            .filter_map(|(&r, &d)| if d == min { Some(r) } else { None })
            .collect()
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.distances.clear();
        self.matched.clear();
    }
}

/// Reusable query-side scratch for packed searches.
///
/// Packing a query (bit vector, rounded levels, per-column squares)
/// costs one `O(C)` pass; the buffers live on the
/// [`CamMachine`](crate::CamMachine) so the steady-state search loop
/// performs no heap allocation at all.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// Query bits (`q != 0`), one per column, packed 64 per word.
    qbits: Vec<u64>,
    /// Query levels rounded exactly as the naive `Multi` match does,
    /// clamped to `u8` alongside an in-range validity byte (an
    /// out-of-range level can never equal a stored `u8` level).
    qlvl8: Vec<u8>,
    /// 1 where the rounded query level is exactly representable in the
    /// stored `u8` range.
    qvalid: Vec<u8>,
    /// Integral query values past `|q| ≤ 1024` (exact-integer Euclidean
    /// accumulation, scalar).
    qint: Vec<i64>,
    /// Integral query values when every `|q| ≤ 1024`, for the
    /// vectorizable small-magnitude path.
    qint16: Vec<i16>,
    /// `Σq²` over `qint16` (the dense sweep's expanded square).
    qsq: i64,
    /// Per-column squared distance to a stored `0` bit.
    sq0: Vec<f64>,
    /// Per-column squared distance to a stored `1` bit.
    sq1: Vec<f64>,
    /// Forced kernel tier (`None` = process default: the
    /// `C4CAM_KERNEL_TIER` override, else the detected best).
    tier: Option<KernelTier>,
}

impl SearchScratch {
    /// Force a kernel tier for searches using this scratch; `None`
    /// restores the process default. The request is validated against
    /// the host immediately.
    ///
    /// # Errors
    /// Fails when the host does not support the requested tier.
    pub fn set_kernel_tier(&mut self, tier: Option<KernelTier>) -> Result<(), String> {
        if let Some(t) = tier {
            resolve_tier(Some(t), KernelTier::detect())?;
        }
        self.tier = tier;
        Ok(())
    }

    /// The forced kernel tier, if any.
    pub fn kernel_tier(&self) -> Option<KernelTier> {
        self.tier
    }
}

/// How a row participates in the packed fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    /// Only `Zero`/`One`/`DontCare` cells: bit-plane kernels apply.
    Binary,
    /// Only `Multi`/`DontCare` cells: level-plane kernels apply.
    Levels,
    /// Contains `Range` cells or mixes binary with multi-bit cells:
    /// searched through the per-cell naive path.
    Other,
}

/// What the dense sweep knows of a `Levels` row, fixed when the row is
/// written. It lives in the first word of the row's two bit planes,
/// which only binary rows otherwise use, so it costs no memory: a
/// per-row vector for it, or a wider one in place of `kinds`, slows
/// machine programming by 11–15 % through the allocator alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LevelsRecord {
    /// `L` when the row's cared cells are exactly columns `0..L`;
    /// [`LevelsRecord::NO_PREFIX`] when don't-care cells break them up.
    care_len: u64,
    /// `Σ level²` over the stored levels (after faults).
    level_sq: u64,
}

impl LevelsRecord {
    /// `care_len` of a row the dense sweep never expands.
    const NO_PREFIX: u64 = u64::MAX;
}

/// Upper bound on `|q|` for the exact-integer Euclidean path.
const INT_QUERY_BOUND: f64 = 1_048_576.0; // 2^20

/// `1.5 · 2²³`: adding it to an `f32` of magnitude below `2²²` leaves
/// the value rounded to the nearest integer, in the low mantissa bits.
const ROUND_TO_INT: f32 = 12_582_912.0;

// ---------------------------------------------------------------------
// Integer row kernels
//
// The workspace compiles for baseline x86-64 (SSE2), which cannot
// vectorize 32-bit multiplies or emit VPOPCNTQ; the hot integer folds
// therefore carry runtime-dispatched AVX2 and AVX-512 variants
// (`#[target_feature]` on the same body, auto-vectorized by LLVM).
// Integer addition is associative, so lane order cannot change a
// single bit of the result — every tier is bit-identical.
//
// The tier is resolved once per search (`env_tier`, a cached load) and
// dispatched once per search at the whole row-sweep level
// (`Subarray::on_tier`): the `#[target_feature]` wrappers wrap the
// entire row loop, so these bodies inline into it and rows of a few
// plane words pay no per-row call or dispatch overhead.
// ---------------------------------------------------------------------

/// Exact-integer small-magnitude squared-Euclidean fold: the caller
/// guarantees `|q| ≤ 1024`, so `q - level` fits `i16` and the per-cell
/// squares fit `u32`; folding in 1024-cell blocks keeps the block sum
/// in `u32` too. The narrow difference lets the vectorizer run the
/// subtract/mask at 16-bit width (twice the lanes) before widening for
/// the square.
#[inline(always)]
fn euclid_int_small_body(lv: &[u8], care: &[u8], q: &[i16]) -> u64 {
    let mut acc = 0u64;
    for ((lvb, careb), qb) in lv.chunks(1024).zip(care.chunks(1024)).zip(q.chunks(1024)) {
        let mut s = 0u32;
        for ((&l, &cb), &qv) in lvb.iter().zip(careb).zip(qb) {
            let d = (qv - i16::from(l)) * i16::from(cb);
            s += (i32::from(d) * i32::from(d)) as u32;
        }
        acc += u64::from(s);
    }
    acc
}

/// `Σ level·q` over the level plane alone — the cross term of the dense
/// sweep's expanded square. With `|q| ≤ 1024` a product is at most
/// `255 · 1024` in magnitude, so a 1024-cell block sums in `i32`; the
/// `i16 × i16 → i32` shape is what the wider tiers fold as
/// multiply-adds.
#[inline(always)]
fn dot_levels_small_body(lv: &[u8], q: &[i16]) -> i64 {
    let mut acc = 0i64;
    for (lvb, qb) in lv.chunks(1024).zip(q.chunks(1024)) {
        let mut s = 0i32;
        for (&l, &qv) in lvb.iter().zip(qb) {
            s += i32::from(i16::from(l)) * i32::from(qv);
        }
        acc += i64::from(s);
    }
    acc
}

/// Rows the AVX-512 dense block kernel folds at once.
const BLOCK_ROWS: usize = 16;

/// The dense sweep's cross terms for one block of [`BLOCK_ROWS`] rows,
/// each cared over exactly the query's columns, and its epilogue:
/// `Σq² − 2·Σ level·q + Σ level²` per row into `out` as `f64`, returning
/// the block's least distance.
///
/// The per-row fold ([`dot_levels_small_body`]) pays a loop set-up and a
/// horizontal reduction per row — on a 128-cell row, for two vector
/// iterations. Here each 32-cell chunk of the query is loaded once and
/// multiply-added into sixteen row accumulators, and one transposing
/// shuffle tree reduces all sixteen into one vector of row sums. LLVM
/// does not find this shape from the per-row body, so it is written in
/// intrinsics; the scalar and AVX2 tiers keep the per-row body and are
/// its reference. Each 1024-cell block sums in `i32`: a row's block sum
/// is at most 1024 products of `255 · 1024`, below 2³¹. Integer sums are
/// exact in any order, so the result is bit-identical to the per-row
/// fold. Only the `avx512` tier may call it: its features are what
/// makes the call sound.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
fn euclid_dense_block(
    levels: &[u8],
    cols: usize,
    q: &[i16],
    qsq: i64,
    level_sq: &[u64; BLOCK_ROWS],
    out: &mut [f64],
) -> u64 {
    use std::arch::x86_64::*;
    let qlen = q.len();
    // Every pointer below stays inside these bounds: row `i` reads
    // `i·cols + c` for `c < qlen ≤ cols`, and the ragged tail is masked.
    assert!(qlen <= cols && levels.len() == BLOCK_ROWS * cols && out.len() == BLOCK_ROWS);
    let (lp, qp) = (levels.as_ptr(), q.as_ptr());
    // Row sums in `i64`, rows 0..8 and 8..16.
    let mut cross = [_mm512_setzero_si512(); 2];
    for start in (0..qlen).step_by(1024) {
        let end = qlen.min(start + 1024);
        let mut acc = [_mm512_setzero_si512(); BLOCK_ROWS];
        // `Σ level·q` of one 32-cell chunk, widened, into a row's lanes.
        let madd = |a: &mut __m512i, lv: __m256i, qv: __m512i| {
            *a = _mm512_add_epi32(*a, _mm512_madd_epi16(_mm512_cvtepu8_epi16(lv), qv));
        };
        let mut c = start;
        while c + 32 <= end {
            // SAFETY: tier resolution verified the AVX-512 features, and
            // the bounds asserted above cover `c..c + 32` of the query
            // and of every row.
            let qv = unsafe { _mm512_loadu_si512(qp.add(c).cast()) };
            for (i, a) in acc.iter_mut().enumerate() {
                // SAFETY: as for the query chunk.
                let lv = unsafe { _mm256_loadu_si256(lp.add(i * cols + c).cast()) };
                madd(a, lv, qv);
            }
            c += 32;
        }
        if c < end {
            let mask = u32::MAX >> (32 - (end - c));
            // SAFETY: tier resolution verified the AVX-512 features, and
            // the bounds asserted above cover `c..end` of the query and
            // of every row; masked-off lanes are not read.
            let qv = unsafe { _mm512_maskz_loadu_epi16(mask, qp.add(c)) };
            for (i, a) in acc.iter_mut().enumerate() {
                // SAFETY: as for the query chunk.
                let lv = unsafe { _mm256_maskz_loadu_epi8(mask, lp.add(i * cols + c).cast()) };
                madd(a, lv, qv);
            }
        }
        // Transposing reduction, 16 → 8 → 4 → 2 → 1 vectors. First the
        // 128-bit lanes of row pairs: each row's partials fill one half.
        let mut half = [_mm512_setzero_si512(); 8];
        for (h, pair) in half.iter_mut().zip(acc.chunks_exact(2)) {
            let (a, b) = (pair[0], pair[1]);
            *h = _mm512_add_epi32(
                _mm512_shuffle_i32x4::<0x44>(a, b),
                _mm512_shuffle_i32x4::<0xEE>(a, b),
            );
        }
        // Then halves of row quads: lane `j` of `quad[k]` is row `4k + j`.
        let mut quad = [_mm512_setzero_si512(); 4];
        for (qd, pair) in quad.iter_mut().zip(half.chunks_exact(2)) {
            let (a, b) = (pair[0], pair[1]);
            *qd = _mm512_add_epi32(
                _mm512_shuffle_i32x4::<0x88>(a, b),
                _mm512_shuffle_i32x4::<0xDD>(a, b),
            );
        }
        // Within lane `j`: rows `j` and `j + 4`, then `j + 8` and `j + 12`.
        let fold =
            |a, b| _mm512_add_epi32(_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b));
        let (lo, hi) = (
            _mm512_castsi512_ps(fold(quad[0], quad[1])),
            _mm512_castsi512_ps(fold(quad[2], quad[3])),
        );
        // Lane `j` now holds rows `j`, `j + 4`, `j + 8`, `j + 12`.
        let sums = _mm512_add_epi32(
            _mm512_castps_si512(_mm512_shuffle_ps::<0x88>(lo, hi)),
            _mm512_castps_si512(_mm512_shuffle_ps::<0xDD>(lo, hi)),
        );
        let row_order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
        let sums = _mm512_permutexvar_epi32(row_order, sums);
        cross[0] = _mm512_add_epi64(
            cross[0],
            _mm512_cvtepi32_epi64(_mm512_castsi512_si256(sums)),
        );
        cross[1] = _mm512_add_epi64(
            cross[1],
            _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(sums)),
        );
    }
    let mut least = _mm512_set1_epi64(-1);
    for (h, &x) in cross.iter().enumerate() {
        // SAFETY: tier resolution verified the AVX-512 features; the
        // records are 16 words and `out` was asserted 16 long.
        let sq = unsafe { _mm512_loadu_si512(level_sq.as_ptr().add(8 * h).cast()) };
        let d = _mm512_add_epi64(
            _mm512_sub_epi64(_mm512_set1_epi64(qsq), _mm512_slli_epi64::<1>(x)),
            sq,
        );
        least = _mm512_min_epu64(least, d);
        // `u64 → f64` without AVX-512DQ: both 32-bit halves convert
        // exactly, and so does their sum below 2⁵³ (the packing guard).
        let hi = _mm512_cvtepu32_pd(_mm512_cvtepi64_epi32(_mm512_srli_epi64::<32>(d)));
        let lo = _mm512_cvtepu32_pd(_mm512_cvtepi64_epi32(d));
        let d = _mm512_add_pd(_mm512_mul_pd(hi, _mm512_set1_pd(4_294_967_296.0)), lo);
        // SAFETY: as for the records.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr().add(8 * h), d) };
    }
    _mm512_reduce_min_epu64(least)
}

/// Branchless level-plane mismatch count (byte compares).
#[inline(always)]
fn mismatch_levels_body(lv: &[u8], care: &[u8], qlvl8: &[u8], qvalid: &[u8]) -> u64 {
    let mut n = 0u32;
    for ((&l, &cb), (&q8, &qv)) in lv.iter().zip(care).zip(qlvl8.iter().zip(qvalid)) {
        let eq = qv & u8::from(l == q8);
        n += u32::from(cb & (1 - eq));
    }
    u64::from(n)
}

/// Word fold of a binary row: `XOR → AND care → popcount`. Full words
/// stream branch-free (the AVX-512 variant folds them as VPOPCNTQ
/// lanes); a ragged tail word is masked separately.
#[inline(always)]
fn mismatch_binary_body(bits: &[u64], care: &[u64], qbits: &[u64], qlen: usize) -> u64 {
    let full = qlen / 64;
    let mut n = 0u64;
    for ((&b, &cm), &qb) in bits[..full].iter().zip(&care[..full]).zip(&qbits[..full]) {
        n += u64::from(((b ^ qb) & cm).count_ones());
    }
    if !qlen.is_multiple_of(64) {
        let x = (bits[full] ^ qbits[full]) & care[full] & ((1u64 << (qlen % 64)) - 1);
        n += u64::from(x.count_ones());
    }
    n
}

/// Encode one `f32` row straight into a level-plane row and its byte
/// care plane (both one subarray row wide): 1-bit cells store
/// `value != 0`, multi-bit cells the rounded value clamped to the level
/// range, columns past the row's end are don't-care padding. `faults`
/// (the state, and the logical row being programmed) perturbs the
/// programmed levels before they are stored. Returns `Σ level²` over
/// the stored levels of a multi-bit row (`0` for 1-bit rows).
fn encode_row(
    row: &[f32],
    bits_per_cell: u32,
    faults: Option<(&mut SubarrayFaults, usize)>,
    levels: &mut [u8],
    care: &mut [u8],
) -> u64 {
    let (programmed, padding) = levels.split_at_mut(row.len());
    // Top level of the cell alphabet — what a stuck-at-one cell stores.
    let top = ((1u32 << bits_per_cell.clamp(1, 8)) - 1) as u8;
    let square = |l: &u8| u64::from(*l) * u64::from(*l);
    let mut level_sq = 0u64;
    if bits_per_cell <= 1 {
        for (l, &v) in programmed.iter_mut().zip(row) {
            *l = u8::from(v != 0.0);
        }
    } else {
        for (l, &v) in programmed.iter_mut().zip(row) {
            *l = v.round().clamp(0.0, f32::from(top)) as u8;
            level_sq += square(l);
        }
    }
    if let Some((f, r)) = faults {
        f.program_row(r, programmed, top);
        if bits_per_cell > 1 {
            level_sq = programmed.iter().map(square).sum();
        }
    }
    padding.fill(0);
    care[..row.len()].fill(1);
    care[row.len()..].fill(0);
    level_sq
}

/// Pack up to 64 `0`/`1` bytes into one plane word, bit `i` = byte `i`.
fn pack_word(bytes: &[u8]) -> u64 {
    let mut word = 0u64;
    let mut groups = bytes.chunks_exact(8);
    for (g, group) in groups.by_ref().enumerate() {
        // Eight 0/1 bytes at once: the multiply lands byte `k`'s bit at
        // `56 + k`, and no two partial products share a bit to carry.
        let x = u64::from_le_bytes(group.try_into().expect("chunks_exact(8)"));
        word |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    let tail = bytes.len() - groups.remainder().len();
    for (i, &b) in groups.remainder().iter().enumerate() {
        word |= u64::from(b) << (tail + i);
    }
    word
}

/// Pack `query` into `scratch` for rows of the kinds `(binary,
/// levels)` under `metric`, once per search. Returns whether a
/// Euclidean search accumulates in exact integers.
#[inline(always)]
fn pack_query(
    query: &[f32],
    metric: Metric,
    (has_binary, has_levels): (bool, bool),
    scratch: &mut SearchScratch,
) -> bool {
    let qlen = query.len();
    let mut int_mode = false;
    match metric {
        Metric::Hamming | Metric::Dot => {
            if has_binary {
                // Eight columns per multiply, as the planes are packed.
                scratch.qbits.clear();
                let mut bytes = [0u8; 64];
                for chunk in query.chunks(64) {
                    for (b, &q) in bytes.iter_mut().zip(chunk) {
                        *b = u8::from(q != 0.0);
                    }
                    scratch.qbits.push(pack_word(&bytes[..chunk.len()]));
                }
            }
            if has_levels {
                scratch.qlvl8.clear();
                scratch.qvalid.clear();
                for &q in query {
                    // Exactly the naive `Multi` comparison: the
                    // rounded query as i64 (NaN → 0, ±inf saturate)
                    // equals a stored u8 level iff it is in range.
                    let l = q.round() as i64;
                    scratch.qlvl8.push(l.clamp(0, 255) as u8);
                    scratch.qvalid.push(u8::from((0..=255).contains(&l)));
                }
            }
        }
        Metric::Euclidean => {
            if has_binary || has_levels {
                // The packing runs per search, so its passes are
                // written to vectorize on the SSE2 baseline: no
                // branches and no saturating float → int casts. Inside
                // the bound, `q + ROUND_TO_INT − ROUND_TO_INT` is `q`
                // rounded to an integer, so the round trip is
                // `q.fract() == 0.0` (NaN and −0.0 included); and the
                // bits of `|q|` order as its values do.
                let (mut fractional, mut max_bits) = (0u32, 0u32);
                for &q in query {
                    let a = q.abs();
                    let integral =
                        (a <= INT_QUERY_BOUND as f32) & ((q + ROUND_TO_INT) - ROUND_TO_INT == q);
                    fractional |= u32::from(!integral);
                    max_bits = max_bits.max(a.to_bits());
                }
                let maxq = f32::from_bits(max_bits);
                // The u64 accumulator and the final f64 convert
                // are exact only below 2^53.
                let maxd = f64::from(maxq) + 255.0;
                int_mode = fractional == 0 && (qlen as f64) * maxd * maxd < 2f64.powi(53);
                scratch.qint.clear();
                scratch.qint16.clear();
                if int_mode && maxq <= 1024.0 {
                    // The low 16 bits of `q + ROUND_TO_INT` are `q`.
                    let q16 = query.iter().map(|&q| (q + ROUND_TO_INT).to_bits() as i16);
                    scratch.qint16.extend(q16);
                    // A 1024-cell block of squares sums in `i32`.
                    let square = |&q: &i16| i32::from(q) * i32::from(q);
                    let blocks = scratch.qint16.chunks(1024);
                    scratch.qsq = blocks
                        .map(|b| i64::from(b.iter().map(square).sum::<i32>()))
                        .sum();
                } else if int_mode {
                    scratch.qint.extend(query.iter().map(|&q| q as i64));
                }
                if !int_mode && has_binary {
                    scratch.sq0.clear();
                    scratch.sq1.clear();
                    for &q in query {
                        let d = f64::from(q);
                        scratch.sq0.push(d * d);
                        let d = f64::from(q) - 1.0;
                        scratch.sq1.push(d * d);
                    }
                }
            }
        }
    }
    int_mode
}

/// Where a row sweep puts each participating row's distance: a
/// [`SearchResult`] (one search), or one query's accumulator row (a
/// block search). The sweep bodies are written once, over this.
trait RowSink {
    /// One past the last row this sink keeps: a sweep may stop there.
    fn end(&self) -> usize;
    /// Room for `rows` more distances.
    fn reserve(&mut self, rows: usize);
    /// Row `r` participated at distance `dist`; rows arrive ascending.
    fn put(&mut self, r: usize, dist: f64);
}

impl RowSink for SearchResult {
    fn end(&self) -> usize {
        usize::MAX
    }

    fn reserve(&mut self, rows: usize) {
        self.rows.reserve(rows);
        self.distances.reserve(rows);
    }

    #[inline(always)]
    fn put(&mut self, r: usize, dist: f64) {
        self.rows.push(r);
        self.distances.push(dist);
    }
}

/// One query's accumulator row in a block search: a participating row
/// `r` up to `last` (the last of the merged rows) adds its distance,
/// rounded to `f32` as the read-back does, at column `r + offset`.
/// The block checked every such column against the row beforehand.
struct MergeRow<'a> {
    row: &'a mut [f32],
    offset: isize,
    last: usize,
}

impl RowSink for MergeRow<'_> {
    #[inline(always)]
    fn end(&self) -> usize {
        self.last + 1
    }

    fn reserve(&mut self, _rows: usize) {}

    #[inline(always)]
    fn put(&mut self, r: usize, dist: f64) {
        if r <= self.last {
            self.row[(r as isize + self.offset) as usize] += dist as f32;
        }
    }
}

/// The queries of a block search: query `q`'s window is columns
/// `col..col + width` of row `q` of a row-major `rows × cols` tensor,
/// zero-filled where it runs past the tensor (the padded tail chunk of
/// a query that does not divide into windows).
#[derive(Debug, Clone, Copy)]
pub struct QueryWindows<'a> {
    /// The query tensor's elements, row-major.
    pub data: &'a [f32],
    /// Rows of the query tensor.
    pub rows: usize,
    /// Columns of the query tensor.
    pub cols: usize,
    /// First column of every window.
    pub col: usize,
    /// Columns per window.
    pub width: usize,
}

impl<'a> QueryWindows<'a> {
    /// Query `q`'s window: borrowed in place when the tensor holds all
    /// of it, else copied into `pad` with zeros beyond the tensor.
    #[inline]
    pub fn window<'s>(&self, q: usize, pad: &'s mut Vec<f32>) -> &'s [f32]
    where
        'a: 's,
    {
        let end = self.col.saturating_add(self.width);
        if q < self.rows && end <= self.cols {
            let start = q * self.cols;
            return &self.data[start + self.col..start + end];
        }
        pad.clear();
        pad.resize(self.width, 0.0);
        if q < self.rows && self.col < self.cols {
            let have = self.cols - self.col;
            pad[..have].copy_from_slice(&self.data[q * self.cols + self.col..][..have]);
        }
        pad
    }
}

/// The accumulator of a block search: `rows × cols`, row-major. Query
/// `q`'s distances are added into row `q` as `cam.read` followed by
/// `cam.merge_partial_subarray` would add them: the first `declared`
/// participating rows, row `r` at column `r + offset`.
#[derive(Debug)]
pub struct MergeInto<'a> {
    /// The accumulator's elements, row-major.
    pub acc: &'a mut [f32],
    /// Rows of the accumulator.
    pub rows: usize,
    /// Columns of the accumulator.
    pub cols: usize,
    /// Column of stored row 0.
    pub offset: i64,
    /// Elements the read declares: rows past the first `declared` are
    /// not merged.
    pub declared: usize,
}

/// Everything one row sweep works on besides the subarray itself.
struct Sweep<'a, S: RowSink> {
    window: std::ops::Range<usize>,
    query: &'a [f32],
    metric: Metric,
    int_mode: bool,
    wta: Option<u32>,
    /// Query identity for transient-fault draws (`None` = none can fire).
    qh: Option<u64>,
    faults: &'a mut Option<Box<SubarrayFaults>>,
    scratch: &'a SearchScratch,
    out: &'a mut S,
}

/// Work dispatched once on a kernel tier: its `run` inlines into that
/// tier's `#[target_feature]` wrapper (`Subarray::on_tier`), so the
/// small row kernels inline into it too and pay no per-row call.
trait TierJob {
    type Out;
    fn run(self, sub: &Subarray, tier: KernelTier) -> Self::Out;
}

impl<S: RowSink> TierJob for Sweep<'_, S> {
    type Out = (u64, Option<f64>);

    #[inline(always)]
    fn run(self, sub: &Subarray, tier: KernelTier) -> Self::Out {
        sub.sweep_rows_body(self, tier)
    }
}

/// A block search's sweeps, all on one tier dispatch: each query is
/// packed and swept straight into its accumulator row.
struct BlockSweep<'a> {
    queries: &'a QueryWindows<'a>,
    rows: &'a [usize],
    window: std::ops::Range<usize>,
    /// The window's row kinds, `(binary, levels)`.
    kinds: (bool, bool),
    metric: Metric,
    wta: Option<u32>,
    /// The last merged row.
    last: usize,
    into: MergeInto<'a>,
    scratch: &'a mut SearchScratch,
}

impl TierJob for BlockSweep<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self, sub: &Subarray, tier: KernelTier) {
        let (cols, offset) = (self.into.cols, self.into.offset as isize);
        let (mut pad, mut faults) = (Vec::new(), None);
        for &q in self.rows {
            let query = self.queries.window(q, &mut pad);
            let int_mode = pack_query(query, self.metric, self.kinds, self.scratch);
            let mut sink = MergeRow {
                row: &mut self.into.acc[q * cols..(q + 1) * cols],
                offset,
                last: self.last,
            };
            let sweep = Sweep {
                window: self.window.clone(),
                query,
                metric: self.metric,
                int_mode,
                wta: self.wta,
                qh: None,
                faults: &mut faults,
                scratch: self.scratch,
                out: &mut sink,
            };
            sub.sweep_rows_body(sweep, tier);
        }
    }
}

/// A single `rows × cols` CAM subarray.
#[derive(Debug, Clone)]
pub struct Subarray {
    rows: usize,
    cols: usize,
    valid: Vec<bool>,
    /// `u64` words per packed plane row.
    words_per_row: usize,
    /// Value (`One` = 1) and care bit planes of [`RowKind::Binary`]
    /// rows, 64 cells per word. A [`RowKind::Levels`] row keeps its
    /// [`LevelsRecord`] in its first word of each (`Σ level²` in `bits`,
    /// `L` in `care`); unspecified for `Other` rows.
    bits: Vec<u64>,
    care: Vec<u64>,
    /// Byte care plane (`1`/`0` per cell) of binary and multi-bit rows,
    /// for the branchless level-plane kernels.
    care_bytes: Vec<u8>,
    /// Level plane: stored integer level per binary/multi-bit cell.
    levels: Vec<u8>,
    /// Packed classification per row (`Binary` until programmed).
    kinds: Vec<RowKind>,
    /// Valid-row counts by [`RowKind`] (`[Binary, Levels, Other]`),
    /// maintained at write time so a full-window search skips the
    /// per-row classification scan.
    kind_mix: [usize; 3],
    /// Side table: the cells of the [`RowKind::Other`] rows, `cols`
    /// per row, densely in ascending row order (row `r`'s slot is the
    /// number of `Other` rows below it). Empty — and unallocated —
    /// while the subarray holds no such row.
    other_cells: Vec<CamCell>,
    /// Plane words (packed rows) / cells (fallback rows) visited by the
    /// most recent search.
    last_words: u64,
    /// Result of the most recent search (for `cam.read`); its buffers
    /// are reused across searches.
    last_result: Option<SearchResult>,
    /// Injected fault state (None = ideal device; the hooks below are
    /// a single branch on this option, mirroring the telemetry
    /// zero-cost-when-disabled pattern).
    faults: Option<Box<SubarrayFaults>>,
}

impl Subarray {
    /// New subarray with all rows invalid (unprogrammed). The OS backs
    /// the zero-filled planes lazily: unprogrammed rows are never touched.
    pub fn new(rows: usize, cols: usize) -> Subarray {
        let words_per_row = cols.div_ceil(64);
        Subarray {
            rows,
            cols,
            valid: vec![false; rows],
            words_per_row,
            bits: vec![0; rows * words_per_row],
            care: vec![0; rows * words_per_row],
            care_bytes: vec![0; rows * cols],
            levels: vec![0; rows * cols],
            kinds: vec![RowKind::Binary; rows],
            kind_mix: [0; 3],
            other_cells: Vec::new(),
            last_words: 0,
            last_result: None,
            faults: None,
        }
    }

    /// Install (or clear) this subarray's fault state. Passing `None`
    /// restores the ideal device.
    pub fn set_faults(&mut self, faults: Option<Box<SubarrayFaults>>) {
        self.faults = faults;
    }

    /// The installed fault state, if any.
    pub fn faults(&self) -> Option<&SubarrayFaults> {
        self.faults.as_deref()
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes of heap this subarray owns for its contents — planes,
    /// per-row flags, side table; not result buffers or the fault map —
    /// by capacity: a count that repeats exactly for the same writes.
    pub fn heap_bytes(&self) -> usize {
        self.valid.capacity()
            + self.kinds.capacity() * std::mem::size_of::<RowKind>()
            + (self.bits.capacity() + self.care.capacity()) * 8
            + self.care_bytes.capacity()
            + self.levels.capacity()
            + self.other_cells.capacity() * std::mem::size_of::<CamCell>()
    }

    /// Plane words the most recent search visited — the work metric
    /// behind [`ExecStats::searched_words`](crate::ExecStats::searched_words):
    /// one 8-byte word per 64 cells for bit-plane rows, per 8 cells for
    /// byte-granular level-plane rows, and per walked cell for
    /// fallback rows and the naive kernel.
    pub fn last_searched_words(&self) -> u64 {
        self.last_words
    }

    /// Reject a write whose rows don't fit or are wider than the
    /// subarray, before anything is programmed.
    fn check_write<T, R: AsRef<[T]>>(&self, row_offset: usize, data: &[R]) -> Result<(), String> {
        let (n, rows, cols) = (data.len(), self.rows, self.cols);
        if row_offset + n > rows {
            return Err(format!(
                "write of {n} rows at offset {row_offset} exceeds {rows} rows"
            ));
        }
        if let Some(i) = data.iter().position(|row| row.as_ref().len() > cols) {
            let (r, width) = (row_offset + i, data[i].as_ref().len());
            return Err(format!(
                "row {r} has {width} elements but subarray has {cols} columns"
            ));
        }
        Ok(())
    }

    /// Reject a query wider than the subarray.
    fn check_query(&self, query: &[f32]) -> Result<(), String> {
        let (width, cols) = (query.len(), self.cols);
        if width > cols {
            return Err(format!("query width {width} exceeds {cols} columns"));
        }
        Ok(())
    }

    /// Program `data` rows starting at `row_offset`, encoding each datum
    /// with `bits_per_cell` resolution. Short rows are padded with
    /// don't-care cells (they never mismatch).
    ///
    /// # Errors
    /// Fails if the rows don't fit or a row is wider than the subarray;
    /// nothing is programmed in that case.
    pub fn write_rows(
        &mut self,
        row_offset: usize,
        data: &[Vec<f32>],
        bits_per_cell: u32,
    ) -> Result<(), String> {
        self.write_row_views(row_offset, data, bits_per_cell)
    }

    /// [`Subarray::write_rows`] from rows of any borrowed form — slices
    /// of a tensor's storage program without a per-row copy.
    ///
    /// # Errors
    /// As [`Subarray::write_rows`].
    pub fn write_row_views<R: AsRef<[f32]>>(
        &mut self,
        row_offset: usize,
        data: &[R],
        bits_per_cell: u32,
    ) -> Result<(), String> {
        self.check_write(row_offset, data)?;
        let cols = self.cols;
        for (i, row) in data.iter().enumerate() {
            let (r, row) = (row_offset + i, row.as_ref());
            let level_sq = encode_row(
                row,
                bits_per_cell,
                self.faults.as_deref_mut().map(|f| (f, r)),
                &mut self.levels[r * cols..(r + 1) * cols],
                &mut self.care_bytes[r * cols..(r + 1) * cols],
            );
            // An empty row is all padding: don't-care cells only.
            let record = (bits_per_cell > 1 && !row.is_empty()).then_some(LevelsRecord {
                care_len: row.len() as u64,
                level_sq,
            });
            self.commit_packed_row(r, record);
        }
        Ok(())
    }

    /// Program raw cells (for wildcard patterns) starting at `row_offset`.
    /// Short rows are padded with don't-care cells.
    ///
    /// # Errors
    /// Fails if the rows don't fit or a row is wider than the subarray;
    /// nothing is programmed in that case.
    pub fn write_cells(&mut self, row_offset: usize, data: &[Vec<CamCell>]) -> Result<(), String> {
        self.check_write(row_offset, data)?;
        let cols = self.cols;
        for (i, row) in data.iter().enumerate() {
            let r = row_offset + i;
            let levels = &mut self.levels[r * cols..(r + 1) * cols];
            let care = &mut self.care_bytes[r * cols..(r + 1) * cols];
            levels.fill(0);
            care.fill(0);
            let (mut binary, mut multi, mut range) = (false, false, false);
            // The record of a `Levels` row: cared cells, one past the
            // last of them, and `Σ level²`.
            let (mut cared, mut care_end, mut level_sq) = (0usize, 0usize, 0u64);
            for (c, ((l, cb), cell)) in levels.iter_mut().zip(care.iter_mut()).zip(row).enumerate()
            {
                let (flag, level, cared_bit) = match *cell {
                    CamCell::Zero => (&mut binary, 0, 1),
                    CamCell::One => (&mut binary, 1, 1),
                    CamCell::Multi(v) => (&mut multi, v, 1),
                    CamCell::Range(..) => (&mut range, 0, 0),
                    CamCell::DontCare => continue,
                };
                (*flag, *l, *cb) = (true, level, cared_bit);
                cared += usize::from(cared_bit);
                care_end = c + 1;
                level_sq += u64::from(level) * u64::from(level);
            }
            if !(range || (binary && multi)) {
                let care_len = if cared == care_end {
                    care_end as u64
                } else {
                    LevelsRecord::NO_PREFIX
                };
                let record = multi.then_some(LevelsRecord { care_len, level_sq });
                self.commit_packed_row(r, record);
                continue;
            }
            // The planes cannot name these cells: keep them as they are.
            let pad = std::iter::repeat(CamCell::DontCare);
            let at = self.other_offset(r);
            let held = usize::from(self.kinds[r] == RowKind::Other) * cols;
            let padded = row.iter().copied().chain(pad).take(cols);
            self.other_cells.splice(at..at + held, padded);
            self.set_kind(r, RowKind::Other);
        }
        Ok(())
    }

    /// Finish programming row `r` from its freshly written byte planes:
    /// classify it (a `Levels` row when it has a `record`), release a
    /// side-table slot it no longer needs, and fill its bit-plane words
    /// — a binary row's cells packed a `u64` word at a time, a `Levels`
    /// row's record.
    fn commit_packed_row(&mut self, r: usize, record: Option<LevelsRecord>) {
        if self.kinds[r] == RowKind::Other {
            let at = self.other_offset(r);
            self.other_cells.drain(at..at + self.cols);
            self.other_cells.shrink_to_fit(); // the last one out frees it
        }
        let (cols, wpr) = (self.cols, self.words_per_row);
        if let Some(record) = record {
            self.set_kind(r, RowKind::Levels);
            // A `Levels` row has a cell, so `cols ≥ 1` and a word each.
            self.bits[r * wpr] = record.level_sq;
            self.care[r * wpr] = record.care_len;
            return;
        }
        self.set_kind(r, RowKind::Binary);
        for w in 0..wpr {
            let cells = r * cols + w * 64..r * cols + cols.min(w * 64 + 64);
            self.bits[r * wpr + w] = pack_word(&self.levels[cells.clone()]);
            self.care[r * wpr + w] = pack_word(&self.care_bytes[cells]);
        }
    }

    /// The record of `Levels` row `r` (meaningless for other kinds).
    fn levels_record(&self, r: usize) -> LevelsRecord {
        let w = r * self.words_per_row;
        LevelsRecord {
            care_len: self.care[w],
            level_sq: self.bits[w],
        }
    }

    /// Mark row `r` programmed as `kind`, keeping `kind_mix` in step.
    fn set_kind(&mut self, r: usize, kind: RowKind) {
        if self.valid[r] {
            self.kind_mix[self.kinds[r] as usize] -= 1;
        }
        self.valid[r] = true;
        self.kinds[r] = kind;
        self.kind_mix[kind as usize] += 1;
    }

    /// Where row `r`'s cells start (or would be inserted) in the side
    /// table: `cols` cells per `Other` row below `r`.
    fn other_offset(&self, r: usize) -> usize {
        self.kinds[..r]
            .iter()
            .filter(|&&k| k == RowKind::Other)
            .count()
            * self.cols
    }

    /// The cells of row `r` (all `cols` of them, padding included),
    /// written into `out`: decoded from the level and care planes for
    /// binary and multi-bit rows, copied from the side table otherwise.
    /// An unprogrammed row decodes as all don't-care.
    ///
    /// # Panics
    /// If `r` is not a row of this subarray.
    pub fn decode_row(&self, r: usize, out: &mut Vec<CamCell>) {
        let (kind, cols) = (self.kinds[r], self.cols);
        out.clear();
        if kind == RowKind::Other {
            let at = self.other_offset(r);
            return out.extend_from_slice(&self.other_cells[at..at + cols]);
        }
        let levels = &self.levels[r * cols..(r + 1) * cols];
        let care = &self.care_bytes[r * cols..(r + 1) * cols];
        out.extend(levels.iter().zip(care).map(|(&l, &cb)| match (cb, kind) {
            (0, _) => CamCell::DontCare,
            (_, RowKind::Levels) => CamCell::Multi(l),
            (_, _) if l == 0 => CamCell::Zero,
            (_, _) => CamCell::One,
        }));
    }

    // ------------------------------------------------------------------
    // Packed row kernels
    // ------------------------------------------------------------------

    /// Mismatch count of a binary row: `XOR → AND care → popcount`.
    #[inline(always)]
    fn mismatch_binary(&self, r: usize, qlen: usize, qbits: &[u64]) -> u64 {
        let wpr = self.words_per_row;
        let words = qlen.div_ceil(64);
        mismatch_binary_body(
            &self.bits[r * wpr..r * wpr + words],
            &self.care[r * wpr..r * wpr + words],
            qbits,
            qlen,
        )
    }

    /// Mismatch count of a multi-bit row over the level plane:
    /// branchless byte compares against the packed query levels.
    #[inline(always)]
    fn mismatch_levels(&self, r: usize, qlen: usize, qlvl8: &[u8], qvalid: &[u8]) -> u64 {
        mismatch_levels_body(
            &self.levels[r * self.cols..r * self.cols + qlen],
            &self.care_bytes[r * self.cols..r * self.cols + qlen],
            qlvl8,
            qvalid,
        )
    }

    /// Exact-integer squared-Euclidean over the level plane (binary rows
    /// store levels 0/1, so one kernel covers both packed kinds).
    ///
    /// When every `|q| ≤ 1024` the per-cell products fit `u32` and the
    /// row folds in vectorizable 1024-cell blocks; larger magnitudes
    /// take a branchless scalar `u64` loop. Integer addition is
    /// associative, so both orders are exact — and therefore identical
    /// to the naive column-order `f64` walk while the total stays below
    /// 2^53 (guaranteed by the caller's packing guard).
    #[inline(always)]
    fn euclid_int(&self, r: usize, qlen: usize, qint: &[i64], qint16: &[i16]) -> u64 {
        let lv = &self.levels[r * self.cols..r * self.cols + qlen];
        let care = &self.care_bytes[r * self.cols..r * self.cols + qlen];
        if qint16.len() == qlen {
            euclid_int_small_body(lv, care, qint16)
        } else {
            let mut acc = 0u64;
            for ((&l, &cb), &q) in lv.iter().zip(care).zip(qint) {
                let d = (q - i64::from(l)) * i64::from(cb);
                acc += (d * d) as u64;
            }
            acc
        }
    }

    /// Column-order `f64` squared-Euclidean of a binary row from the
    /// per-column square tables (bit-identical to the naive walk:
    /// don't-care cells contribute exactly `+0.0`, and every partial
    /// sum is non-negative-or-NaN, so skipping the `+0.0` cannot change
    /// a single bit).
    #[inline(always)]
    fn euclid_f64_binary(&self, r: usize, qlen: usize, sq0: &[f64], sq1: &[f64]) -> f64 {
        let lv = &self.levels[r * self.cols..r * self.cols + qlen];
        let care = &self.care_bytes[r * self.cols..r * self.cols + qlen];
        let mut sum = 0.0f64;
        for c in 0..qlen {
            let contrib = if lv[c] == 1 { sq1[c] } else { sq0[c] };
            sum += if care[c] == 1 { contrib } else { 0.0 };
        }
        sum
    }

    /// Column-order `f64` squared-Euclidean of a multi-bit row.
    #[inline(always)]
    fn euclid_f64_levels(&self, r: usize, qlen: usize, query: &[f32]) -> f64 {
        let lv = &self.levels[r * self.cols..r * self.cols + qlen];
        let care = &self.care_bytes[r * self.cols..r * self.cols + qlen];
        let mut sum = 0.0f64;
        for c in 0..qlen {
            let d = f64::from(query[c]) - f64::from(lv[c]);
            sum += if care[c] == 1 { d * d } else { 0.0 };
        }
        sum
    }

    /// Per-cell distance of one row's cells (the original enum walk):
    /// the oracle kernel, and the fallback for [`RowKind::Other`] rows.
    fn cells_distance(cells: &[CamCell], query: &[f32], metric: Metric) -> f64 {
        let pairs = cells.iter().zip(query); // the query's width decides
        match metric {
            Metric::Hamming => pairs.map(|(c, &q)| f64::from(c.hamming(q))).sum(),
            Metric::Euclidean => pairs.map(|(c, &q)| c.squared_distance(q)).sum(),
            // A dot-product similarity is realized on CAM hardware by
            // bit-encoding such that Hamming distance is inversely
            // proportional to the dot product (cf. [22]); functionally
            // we count matching positions and negate so that "smaller
            // is better" holds uniformly.
            Metric::Dot => -(pairs.filter(|(c, &q)| c.matches(q)).count() as f64),
        }
    }

    /// Whether `sw` can take [`Subarray::sweep_dense`]: exact-integer
    /// small-magnitude Euclidean over the full window of a subarray whose
    /// rows are all valid and packed, with no transient draw to make.
    fn dense_sweep_applies<S: RowSink>(&self, sw: &Sweep<S>) -> bool {
        sw.int_mode
            && sw.qh.is_none()
            && sw.scratch.qint16.len() == sw.query.len()
            && sw.window == (0..self.rows)
            && self.kind_mix[RowKind::Binary as usize] + self.kind_mix[RowKind::Levels as usize]
                == self.rows
    }

    /// Row `r`'s record when the dense sweep expands its square: a
    /// `Levels` row cared over exactly the query's `qlen` columns.
    #[inline(always)]
    fn expanding_record(&self, r: usize, qlen: usize) -> Option<LevelsRecord> {
        let record = (self.kinds[r] == RowKind::Levels).then(|| self.levels_record(r));
        record.filter(|rec| rec.care_len == qlen as u64)
    }

    /// One row of the dense sweep: an expanding row computes
    /// `Σq² − 2·Σ level·q + Σ level²`, exact in integers and so
    /// bit-identical to the care-masked fold, reading the level plane
    /// alone; any other row takes [`Subarray::euclid_int`].
    #[inline(always)]
    fn dense_row(&self, r: usize, qlen: usize, scratch: &SearchScratch) -> u64 {
        if let Some(rec) = self.expanding_record(r, qlen) {
            let lv = &self.levels[r * self.cols..r * self.cols + qlen];
            let cross = dot_levels_small_body(lv, &scratch.qint16);
            (scratch.qsq - 2 * cross + rec.level_sq as i64) as u64
        } else {
            self.euclid_int(r, qlen, &scratch.qint, &scratch.qint16)
        }
    }

    /// `Σ level²` of the [`BLOCK_ROWS`] rows from `r0` when every one of
    /// them expands its square.
    #[inline(always)]
    fn block_level_sq(&self, r0: usize, qlen: usize) -> Option<[u64; BLOCK_ROWS]> {
        let mut level_sq = [0u64; BLOCK_ROWS];
        for (i, sq) in level_sq.iter_mut().enumerate() {
            *sq = self.expanding_record(r0 + i, qlen)?.level_sq;
        }
        Some(level_sq)
    }

    /// The dense sweep: every row participates, in blocks of
    /// [`BLOCK_ROWS`], [`Subarray::dense_row`] by row. On the AVX-512
    /// tier a whole block of rows that all expand their squares takes
    /// [`euclid_dense_block`] instead. The integer minimum rides along,
    /// so `Best` needs no second fold. The work count is the generic
    /// sweep's.
    #[inline(always)]
    fn sweep_dense<S: RowSink>(&self, sw: Sweep<S>, tier: KernelTier) -> (u64, Option<f64>) {
        let (qlen, cols, scratch) = (sw.query.len(), self.cols, sw.scratch);
        let mut min = u64::MAX;
        sw.out.reserve(self.rows);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        // Plain loops, not `extend(map(..))`: a closure handed to the
        // out-of-line `extend` would lose this tier's target features.
        let end = self.rows.min(sw.out.end());
        for r0 in (0..end).step_by(BLOCK_ROWS) {
            #[cfg(target_arch = "x86_64")]
            if tier == KernelTier::Avx512 && r0 + BLOCK_ROWS <= self.rows {
                if let Some(level_sq) = self.block_level_sq(r0, qlen) {
                    let lv = &self.levels[r0 * cols..(r0 + BLOCK_ROWS) * cols];
                    let (q, qsq) = (&scratch.qint16, scratch.qsq);
                    let mut out = [0.0; BLOCK_ROWS];
                    // SAFETY: tier resolution verified the AVX-512
                    // features; the kernel asserts its slice bounds.
                    let least =
                        unsafe { euclid_dense_block(lv, cols, q, qsq, &level_sq, &mut out) };
                    min = min.min(least);
                    for (i, &d) in out.iter().enumerate() {
                        sw.out.put(r0 + i, d);
                    }
                    continue;
                }
            }
            for r in r0..end.min(r0 + BLOCK_ROWS) {
                let dist = self.dense_row(r, qlen, scratch);
                min = min.min(dist);
                sw.out.put(r, dist as f64);
            }
        }
        let words = self.kind_mix[RowKind::Binary as usize] * qlen.div_ceil(64)
            + self.kind_mix[RowKind::Levels as usize] * qlen.div_ceil(8);
        (words as u64, (self.rows > 0).then_some(min as f64))
    }

    /// Whether `sw` can take [`Subarray::sweep_binary`]: Hamming or Dot
    /// over the full window of a subarray whose programmed rows are all
    /// [`RowKind::Binary`], with no transient draw to make.
    fn binary_sweep_applies<S: RowSink>(&self, sw: &Sweep<S>) -> bool {
        matches!(sw.metric, Metric::Hamming | Metric::Dot)
            && sw.qh.is_none()
            && sw.window == (0..self.rows)
            && self.kind_mix[RowKind::Levels as usize] + self.kind_mix[RowKind::Other as usize] == 0
    }

    /// The binary sweep: one tight `XOR → AND care → popcount` loop over
    /// the programmed rows, the WTA clamp taken on the integer mismatch
    /// count (exact, so bit-identical to clamping its `f64`), and the
    /// minimum carried along, so `Best` needs no second fold. Distances
    /// grow with the mismatch count under both metrics, so the least
    /// count gives the least distance. The work count is the generic
    /// sweep's.
    #[inline(always)]
    fn sweep_binary<S: RowSink>(&self, sw: Sweep<S>) -> (u64, Option<f64>) {
        let qlen = sw.query.len();
        let (words, wpr) = (qlen.div_ceil(64), self.words_per_row);
        let dot = sw.metric == Metric::Dot;
        let clamp = match sw.wta {
            Some(window) if !dot => u64::from(window),
            _ => u64::MAX,
        };
        // Counts are at most `qlen`, so the signed conversion is exact.
        let distance = |m: u64| {
            if dot {
                -((qlen as u64 - m) as i64 as f64)
            } else {
                m as i64 as f64
            }
        };
        let n = self.kind_mix[RowKind::Binary as usize];
        if n == 0 {
            return (0, None); // the query was not packed
        }
        let qbits = &sw.scratch.qbits[..words];
        sw.out.reserve(n);
        let mut min = u64::MAX;
        // A plain loop with the row fold spelled out in it, as in
        // `sweep_dense`: a closure would be compiled without this tier's
        // target features, and called per row.
        let end = self.rows.min(sw.out.end());
        for r in 0..end {
            if !self.valid[r] {
                continue;
            }
            let m = if let [q] = *qbits {
                // One word per row: the common narrow subarray.
                let mask = u64::MAX >> (64 - qlen);
                u64::from(((self.bits[r * wpr] ^ q) & self.care[r * wpr] & mask).count_ones())
            } else {
                let at = r * wpr..r * wpr + words;
                mismatch_binary_body(&self.bits[at.clone()], &self.care[at], qbits, qlen)
            };
            let m = m.min(clamp);
            min = min.min(m);
            sw.out.put(r, distance(m));
        }
        ((n * words) as u64, Some(distance(min)))
    }

    /// One whole-window row sweep: distances, the WTA clamp, transient
    /// fault penalties, work accounting and the sink's puts. Returns
    /// the plane words visited and, when the sweep already knows it,
    /// the minimum distance. A sweep may stop at the sink's end, and
    /// then both describe the rows it swept only.
    ///
    /// The body is wrapped per kernel tier (`on_avx2` / `on_avx512`
    /// below), so the tier is dispatched **once per search**, or once
    /// per block of them, and the tiny per-row kernels inline straight into the
    /// loop — rows of one to four plane words pay no per-row call or
    /// dispatch overhead. The `f64` fallbacks stay bit-identical under
    /// wider features: Rust emits no fast-math flags, so LLVM cannot
    /// contract or reassociate the float sums.
    #[inline(always)]
    fn sweep_rows_body<S: RowSink>(&self, sw: Sweep<S>, tier: KernelTier) -> (u64, Option<f64>) {
        if self.dense_sweep_applies(&sw) {
            return self.sweep_dense(sw, tier);
        }
        if self.binary_sweep_applies(&sw) {
            return self.sweep_binary(sw);
        }
        let (query, metric, scratch) = (sw.query, sw.metric, sw.scratch);
        let qlen = query.len();
        let mut words = 0u64;
        // Side-table cursor: `Other` rows sit there in row order.
        let mut other_at = match self.kind_mix[RowKind::Other as usize] {
            0 => 0,
            _ => self.other_offset(sw.window.start),
        };
        for r in sw.window.start..sw.window.end.min(sw.out.end()) {
            if !self.valid[r] {
                continue;
            }
            let kind_r = self.kinds[r];
            let mut dist = match (kind_r, metric) {
                (RowKind::Other, _) => {
                    let cells = &self.other_cells[other_at..other_at + self.cols];
                    other_at += self.cols;
                    Self::cells_distance(cells, query, metric)
                }
                (RowKind::Binary, Metric::Hamming) => {
                    self.mismatch_binary(r, qlen, &scratch.qbits) as f64
                }
                (RowKind::Levels, Metric::Hamming) => {
                    self.mismatch_levels(r, qlen, &scratch.qlvl8, &scratch.qvalid) as f64
                }
                (RowKind::Binary, Metric::Dot) => {
                    -((qlen as u64 - self.mismatch_binary(r, qlen, &scratch.qbits)) as f64)
                }
                (RowKind::Levels, Metric::Dot) => {
                    -((qlen as u64 - self.mismatch_levels(r, qlen, &scratch.qlvl8, &scratch.qvalid))
                        as f64)
                }
                (RowKind::Binary | RowKind::Levels, Metric::Euclidean) => {
                    if sw.int_mode {
                        self.euclid_int(r, qlen, &scratch.qint, &scratch.qint16) as f64
                    } else if kind_r == RowKind::Binary {
                        self.euclid_f64_binary(r, qlen, &scratch.sq0, &scratch.sq1)
                    } else {
                        self.euclid_f64_levels(r, qlen, query)
                    }
                }
            };
            if let Some(window) = sw.wta {
                if metric == Metric::Hamming {
                    dist = dist.min(f64::from(window));
                }
            }
            // A transient sense-amp misfire lands *after* the WTA
            // discrimination: the row reports one spurious mismatch.
            if let Some(qh) = sw.qh {
                if let Some(f) = sw.faults.as_deref_mut() {
                    if f.transient_hit(qh, r) {
                        dist += SubarrayFaults::TRANSIENT_PENALTY;
                    }
                }
            }
            // Work metric: 8-byte plane words the row kernel streams —
            // 64 cells/word for bit-plane rows, 8 cells/word for the
            // byte-granular level-plane rows, one "word" per walked
            // cell for the per-cell fallback.
            words += match kind_r {
                RowKind::Binary => qlen.div_ceil(64) as u64,
                RowKind::Levels => qlen.div_ceil(8) as u64,
                RowKind::Other => qlen as u64,
            };
            sw.out.put(r, dist);
        }
        (words, None)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn on_avx2<J: TierJob>(&self, job: J) -> J::Out {
        job.run(self, KernelTier::Avx2)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vpopcntdq,popcnt")]
    unsafe fn on_avx512<J: TierJob>(&self, job: J) -> J::Out {
        job.run(self, KernelTier::Avx512)
    }

    /// Dispatch `job` once on the resolved kernel tier.
    fn on_tier<J: TierJob>(&self, tier: KernelTier, job: J) -> J::Out {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier resolution verified the target features at startup.
        match tier {
            KernelTier::Avx512 => return unsafe { self.on_avx512(job) },
            KernelTier::Avx2 => return unsafe { self.on_avx2(job) },
            KernelTier::Scalar => {}
        }
        job.run(self, tier)
    }

    /// Whether the valid rows of `window` hold binary and multi-bit
    /// rows: what a query must be packed for. A full window reads the
    /// write-time kind counts; a selective one scans its row range.
    fn window_kinds(&self, window: &std::ops::Range<usize>) -> (bool, bool) {
        if *window == (0..self.rows) {
            let any = |kind| self.kind_mix[kind as usize] > 0;
            return (any(RowKind::Binary), any(RowKind::Levels));
        }
        let kinds = window.clone().filter(|&r| self.valid[r]);
        let kinds = kinds.map(|r| self.kinds[r]);
        let has = |kind| kinds.clone().any(|k| k == kind);
        (has(RowKind::Binary), has(RowKind::Levels))
    }

    /// Search all selected valid rows against `query` using the packed
    /// match planes (bit-identical to [`Subarray::search_naive`]).
    ///
    /// `threshold` is only meaningful for [`MatchKind::Threshold`];
    /// `wta_window` models a winner-take-all sensing circuit that can
    /// only discriminate best matches within a bounded mismatch count
    /// (paper \[19\]) — rows beyond the window saturate to the window
    /// value. `scratch` holds the reusable query-side packing buffers.
    ///
    /// # Errors
    /// Fails if the query is wider than the subarray.
    #[allow(clippy::too_many_arguments)]
    pub fn search(
        &mut self,
        query: &[f32],
        kind: MatchKind,
        metric: Metric,
        selection: RowSelection,
        threshold: f64,
        wta_window: Option<u32>,
        scratch: &mut SearchScratch,
    ) -> Result<&SearchResult, String> {
        self.check_query(query)?;
        // One tier decision per search; the whole row sweep below is
        // dispatched once on this value (never per row) and feature
        // detection is not touched again.
        let tier = match scratch.tier {
            Some(t) => t,
            None => env_tier().clone()?,
        };
        let window = selection.range(self.rows);
        let int_mode = pack_query(query, metric, self.window_kinds(&window), scratch);

        // Transient faults key on the query's own bit pattern, so the
        // packed path, the naive oracle and the SIMD backend all draw
        // the same per-row flips for the same search.
        let mut faults = self.faults.take();
        let qh = match faults.as_deref() {
            Some(f) if f.transient_enabled() => Some(query_hash(query)),
            _ => None,
        };
        let mut result = self.last_result.take().unwrap_or_default();
        result.clear();
        let sweep = Sweep {
            window,
            query,
            metric,
            int_mode,
            wta: wta_window,
            qh,
            faults: &mut faults,
            scratch,
            out: &mut result,
        };
        let (words, min) = self.on_tier(tier, sweep);
        Self::flag_matches(&mut result, kind, threshold, min);
        self.faults = faults;
        self.last_words = words;
        self.last_result = Some(result);
        Ok(self.last_result.as_ref().unwrap())
    }

    /// Search once per query of `rows` and add each query's distances
    /// into its accumulator row, as [`Subarray::search`] followed by
    /// `cam.read` and `cam.merge_partial_subarray` would: the first
    /// `into.declared` participating rows, row `r` at column
    /// `r + into.offset` of accumulator row `q`, each distance rounded
    /// to `f32`. Every query sweeps the same rows, so the merged rows,
    /// and the columns they land on, are found and checked once for the
    /// block; each query is then packed and swept straight into its
    /// row, with no search result in between. The match kind, which
    /// the merge never reads, is not an input.
    ///
    /// Serves nothing and returns `false` — before writing anything —
    /// when a per-query search or merge would fail or could differ: a
    /// window wider than the subarray, a query row outside the
    /// accumulator, a merged column outside it, or installed faults
    /// (transient draws are per search). The caller then takes the
    /// per-query path, which reports the failure. Leaves the last
    /// search result and work count as they were.
    #[allow(clippy::too_many_arguments)]
    pub fn search_merge_block(
        &mut self,
        queries: &QueryWindows,
        rows: &[usize],
        metric: Metric,
        selection: RowSelection,
        wta_window: Option<u32>,
        into: MergeInto,
        scratch: &mut SearchScratch,
    ) -> bool {
        let Some(tier) = scratch.tier.or_else(|| env_tier().as_ref().ok().copied()) else {
            return false;
        };
        if queries.width > self.cols || self.faults.is_some() {
            return false;
        }
        let shaped = into.rows.checked_mul(into.cols) == Some(into.acc.len());
        if !shaped || rows.iter().any(|&q| q >= into.rows) {
            return false;
        }
        let window = selection.range(self.rows);
        let mut merged = window
            .clone()
            .filter(|&r| self.valid[r])
            .take(into.declared);
        let Some(first) = merged.next() else {
            return true; // nothing to merge
        };
        let last = merged.last().unwrap_or(first);
        let column = |r: usize| (r as i64).checked_add(into.offset);
        let fits = |c: Option<i64>| c.is_some_and(|c| 0 <= c && (c as u64) < into.cols as u64);
        if !fits(column(first)) || !fits(column(last)) {
            return false;
        }
        let block = BlockSweep {
            queries,
            rows,
            kinds: self.window_kinds(&window),
            window,
            metric,
            wta: wta_window,
            last,
            into,
            scratch,
        };
        self.on_tier(tier, block);
        true
    }

    /// The original per-cell search: decodes each selected row back
    /// into `CamCell`s ([`Subarray::decode_row`]) and walks them one
    /// cell at a time. Kept as the differential-testing oracle for the
    /// plane kernels.
    ///
    /// # Errors
    /// Fails if the query is wider than the subarray.
    pub fn search_naive(
        &mut self,
        query: &[f32],
        kind: MatchKind,
        metric: Metric,
        selection: RowSelection,
        threshold: f64,
        wta_window: Option<u32>,
    ) -> Result<&SearchResult, String> {
        self.check_query(query)?;
        let mut faults = self.faults.take();
        let qh = match faults.as_deref() {
            Some(f) if f.transient_enabled() => Some(query_hash(query)),
            _ => None,
        };
        let mut result = SearchResult::default();
        let mut cells = Vec::with_capacity(self.cols);
        for r in selection.range(self.rows) {
            if !self.valid[r] {
                continue;
            }
            self.decode_row(r, &mut cells);
            let mut dist = Self::cells_distance(&cells, query, metric);
            if let Some(window) = wta_window {
                if metric == Metric::Hamming {
                    dist = dist.min(f64::from(window));
                }
            }
            if let Some(qh) = qh {
                if let Some(f) = faults.as_deref_mut() {
                    if f.transient_hit(qh, r) {
                        dist += SubarrayFaults::TRANSIENT_PENALTY;
                    }
                }
            }
            result.rows.push(r);
            result.distances.push(dist);
        }
        Self::flag_matches(&mut result, kind, threshold, None);
        self.faults = faults;
        self.last_words = result.rows.len() as u64 * query.len() as u64;
        self.last_result = Some(result);
        Ok(self.last_result.as_ref().unwrap())
    }

    /// Fill `result.matched` from the distances under `kind`; `min` is
    /// the minimum distance when the sweep already knows it.
    fn flag_matches(result: &mut SearchResult, kind: MatchKind, threshold: f64, min: Option<f64>) {
        let (distances, matched) = (&result.distances, &mut result.matched);
        match kind {
            MatchKind::Exact => matched.extend(distances.iter().map(|&d| d == 0.0)),
            MatchKind::Threshold => matched.extend(distances.iter().map(|&d| d <= threshold)),
            MatchKind::Best => {
                let min =
                    min.unwrap_or_else(|| distances.iter().cloned().fold(f64::INFINITY, f64::min));
                matched.extend(distances.iter().map(|&d| d == min));
            }
        }
    }

    /// Result of the most recent search (`cam.read` semantics).
    pub fn last_result(&self) -> Option<&SearchResult> {
        self.last_result.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch() -> SearchScratch {
        SearchScratch::default()
    }

    fn programmed() -> Subarray {
        let mut s = Subarray::new(4, 4);
        s.write_rows(
            0,
            &[
                vec![1.0, 0.0, 1.0, 0.0],
                vec![1.0, 1.0, 1.0, 1.0],
                vec![0.0, 0.0, 0.0, 0.0],
            ],
            1,
        )
        .unwrap();
        s
    }

    #[test]
    fn exact_match_finds_identical_row() {
        let mut s = programmed();
        let r = s
            .search(
                &[1.0, 1.0, 1.0, 1.0],
                MatchKind::Exact,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!(r.matching_rows(), vec![1]);
        assert_eq!(r.distances, vec![2.0, 0.0, 4.0]);
    }

    #[test]
    fn unprogrammed_rows_are_excluded() {
        let mut s = programmed();
        let r = s
            .search(
                &[0.0; 4],
                MatchKind::Exact,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!(r.rows, vec![0, 1, 2]); // row 3 never written
    }

    #[test]
    fn best_match_reports_minimum_distance_rows() {
        let mut s = programmed();
        let r = s
            .search(
                &[1.0, 0.0, 1.0, 1.0],
                MatchKind::Best,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        // Rows 0 and 1 are both at Hamming distance 1 — both win.
        assert_eq!(r.best_rows(), vec![0, 1]);
        assert_eq!(r.matching_rows(), vec![0, 1]);
        assert_eq!(r.distances, vec![1.0, 1.0, 3.0]);
    }

    #[test]
    fn threshold_match_selects_within_radius() {
        let mut s = programmed();
        let r = s
            .search(
                &[1.0, 0.0, 1.0, 1.0],
                MatchKind::Threshold,
                Metric::Hamming,
                RowSelection::All,
                1.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!(r.matching_rows(), vec![0, 1]); // distances 1 and 1
    }

    #[test]
    fn selective_window_restricts_rows() {
        let mut s = programmed();
        let r = s
            .search(
                &[1.0, 0.0, 1.0, 0.0],
                MatchKind::Best,
                Metric::Hamming,
                RowSelection::Window { start: 1, len: 2 },
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!(r.rows, vec![1, 2]);
        // Rows 1 and 2 are both at distance 2 from the query.
        assert_eq!(r.best_rows(), vec![1, 2]);
        assert_eq!(RowSelection::Window { start: 2, len: 9 }.active_rows(4), 2);
    }

    #[test]
    fn window_selection_survives_usize_overflow() {
        // start + len used to overflow; it must clamp instead.
        assert_eq!(
            RowSelection::Window {
                start: 2,
                len: usize::MAX,
            }
            .range(8),
            2..8
        );
        assert_eq!(
            RowSelection::Window {
                start: usize::MAX,
                len: usize::MAX,
            }
            .range(8),
            8..8
        );
        assert_eq!(
            RowSelection::Window {
                start: usize::MAX,
                len: 1,
            }
            .active_rows(8),
            0
        );
    }

    #[test]
    fn dont_care_cells_never_mismatch() {
        let mut s = Subarray::new(2, 4);
        s.write_cells(
            0,
            &[vec![
                CamCell::One,
                CamCell::DontCare,
                CamCell::Zero,
                CamCell::DontCare,
            ]],
        )
        .unwrap();
        let r = s
            .search(
                &[1.0, 1.0, 0.0, 0.0],
                MatchKind::Exact,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!(r.matching_rows(), vec![0]);
    }

    #[test]
    fn euclidean_metric_on_multibit_rows() {
        let mut s = Subarray::new(2, 3);
        s.write_rows(0, &[vec![1.0, 2.0, 3.0], vec![3.0, 3.0, 3.0]], 2)
            .unwrap();
        let r = s
            .search(
                &[1.0, 2.0, 2.0],
                MatchKind::Best,
                Metric::Euclidean,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!(r.distances, vec![1.0, 6.0]);
        assert_eq!(r.best_rows(), vec![0]);
    }

    #[test]
    fn dot_metric_prefers_most_overlap() {
        let mut s = Subarray::new(2, 4);
        s.write_rows(0, &[vec![1.0, 1.0, 0.0, 0.0], vec![1.0, 1.0, 1.0, 1.0]], 1)
            .unwrap();
        let r = s
            .search(
                &[1.0, 1.0, 1.0, 1.0],
                MatchKind::Best,
                Metric::Dot,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!(r.best_rows(), vec![1]);
    }

    #[test]
    fn wta_window_saturates_distances() {
        let mut s = programmed();
        let r = s
            .search(
                &[1.0, 1.0, 1.0, 1.0],
                MatchKind::Best,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                Some(2),
                &mut scratch(),
            )
            .unwrap();
        // row2's true distance 4 saturates to 2.
        assert_eq!(r.distances, vec![2.0, 0.0, 2.0]);
    }

    #[test]
    fn write_errors_are_reported() {
        let mut s = Subarray::new(2, 2);
        assert!(s.write_rows(1, &[vec![0.0], vec![1.0]], 1).is_err());
        assert!(s.write_rows(0, &[vec![0.0, 1.0, 0.5]], 1).is_err());
        assert!(s
            .search(
                &[0.0, 1.0, 0.0],
                MatchKind::Exact,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .is_err());
        assert!(s
            .search_naive(
                &[0.0, 1.0, 0.0],
                MatchKind::Exact,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
            )
            .is_err());
    }

    /// Everything a write may change, for before/after comparison.
    fn contents(s: &Subarray) -> impl PartialEq + std::fmt::Debug {
        (
            (s.levels.clone(), s.care_bytes.clone()),
            (s.bits.clone(), s.care.clone()),
            (s.valid.clone(), s.kinds.clone(), s.kind_mix),
            s.other_cells.clone(),
        )
    }

    #[test]
    fn failing_writes_program_nothing() {
        let mut s = Subarray::new(4, 3);
        s.write_rows(0, &[vec![1.0, 0.0, 1.0]], 1).unwrap();
        s.write_cells(1, &[vec![CamCell::Range(0.0, 1.0), CamCell::One]])
            .unwrap();
        let q = [1.0f32, 1.0, 0.0];
        let search = |s: &mut Subarray| {
            let spec = (MatchKind::Best, Metric::Hamming, RowSelection::All);
            s.search(&q, spec.0, spec.1, spec.2, 0.0, None, &mut scratch())
                .unwrap()
                .clone()
        };
        let (before, found) = (contents(&s), search(&mut s));

        // Row 1 of the batch is too wide: rows 0 and 2 of it must not
        // land either, whichever write call carries them.
        let ok = vec![CamCell::Multi(2); 3];
        let wide = vec![CamCell::Zero; 4];
        let e = s
            .write_cells(0, &[ok.clone(), wide, ok.clone()])
            .unwrap_err();
        assert_eq!(e, "row 1 has 4 elements but subarray has 3 columns");
        let e = s.write_cells(2, &[ok.clone(), ok.clone(), ok]).unwrap_err();
        assert_eq!(e, "write of 3 rows at offset 2 exceeds 4 rows");
        let e = s
            .write_rows(1, &[vec![0.0; 3], vec![0.0; 5]], 1)
            .unwrap_err();
        assert_eq!(e, "row 2 has 5 elements but subarray has 3 columns");

        assert_eq!(contents(&s), before);
        assert_eq!(search(&mut s), found);
    }

    #[test]
    fn footprint_is_the_planes_plus_a_side_table_only_when_needed() {
        let (rows, cols) = (128usize, 128usize);
        let mut s = Subarray::new(rows, cols);
        let planes = s.heap_bytes();
        assert!(
            planes as f64 <= 2.5 * (rows * cols) as f64,
            "{planes} B for {} cells",
            rows * cols
        );
        assert_eq!(s.other_cells.capacity(), 0, "no cell storage up front");

        // Fully programmed, 2-bit: still the planes and nothing else.
        let data: Vec<Vec<f32>> = (0..rows)
            .map(|r| (0..cols).map(|c| ((r + c) % 4) as f32).collect())
            .collect();
        s.write_rows(0, &data, 2).unwrap();
        assert_eq!(s.heap_bytes(), planes);

        // One analog row: 12 B per column of side table, nothing more.
        assert_eq!(std::mem::size_of::<CamCell>(), 12);
        s.write_cells(7, &[vec![CamCell::Range(0.0, 1.0); cols]])
            .unwrap();
        assert_eq!(s.heap_bytes(), planes + 12 * cols);
        // Rewriting it in place allocates nothing; a packed row over it
        // releases the table.
        s.write_cells(7, &[vec![CamCell::Range(1.0, 2.0)]]).unwrap();
        assert_eq!(s.heap_bytes(), planes + 12 * cols);
        s.write_rows(7, &data[..1], 2).unwrap();
        assert_eq!(s.heap_bytes(), planes);
    }

    #[test]
    fn side_table_keeps_row_order_under_out_of_order_writes() {
        let mut s = Subarray::new(6, 2);
        let range = |lo: f32| vec![CamCell::Range(lo, lo + 0.5), CamCell::One];
        let mut cells = Vec::new();
        for r in [4usize, 1, 5, 2] {
            s.write_cells(r, &[range(r as f32)]).unwrap();
        }
        s.write_rows(1, &[vec![1.0, 1.0]], 1).unwrap(); // releases slot 0
        s.write_cells(2, &[range(20.0)]).unwrap(); // rewrites in place
        assert_eq!(s.other_cells.len(), 3 * 2);
        for (r, lo) in [(2usize, 20.0f32), (4, 4.0), (5, 5.0)] {
            s.decode_row(r, &mut cells);
            assert_eq!(cells, range(lo), "row {r}");
        }
        s.decode_row(1, &mut cells);
        assert_eq!(cells, vec![CamCell::One, CamCell::One]);
        s.decode_row(0, &mut cells);
        assert_eq!(cells, vec![CamCell::DontCare; 2], "unprogrammed row");
        // A windowed search starts its side-table cursor mid-table.
        let r = s
            .search(
                &[4.25, 1.0],
                MatchKind::Exact,
                Metric::Hamming,
                RowSelection::Window { start: 3, len: 3 },
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!((r.rows.clone(), r.matching_rows()), (vec![4, 5], vec![4]));
    }

    #[test]
    fn row_encoder_agrees_with_the_cell_encoder_at_every_resolution() {
        let values = [
            0.0f32,
            -0.0,
            0.4999,
            0.5,
            1.5,
            2.5,
            -3.0,
            254.5,
            255.0,
            300.0,
            1e9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut cells = Vec::new();
        for bits in [0u32, 1, 2, 3, 5, 8, 9, 12, 31] {
            let mut s = Subarray::new(1, values.len());
            s.write_rows(0, &[values.to_vec()], bits).unwrap();
            s.decode_row(0, &mut cells);
            let want: Vec<CamCell> = values.iter().map(|&v| CamCell::encode(v, bits)).collect();
            assert_eq!(cells, want, "{bits} bits per cell");
        }
    }

    #[test]
    fn pack_word_gathers_bytes_in_column_order() {
        for len in [0usize, 1, 7, 8, 9, 37, 63, 64] {
            let bytes: Vec<u8> = (0..len).map(|i| u8::from(i % 3 == 0 || i == 62)).collect();
            let want = bytes
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &b)| w | u64::from(b) << i);
            assert_eq!(pack_word(&bytes), want, "{len} bytes");
        }
        assert_eq!(pack_word(&[1; 64]), u64::MAX);
    }

    #[test]
    fn padded_columns_do_not_affect_distance() {
        let mut s = Subarray::new(1, 8);
        s.write_rows(0, &[vec![1.0, 0.0]], 1).unwrap();
        let r = s
            .search(
                &[1.0, 0.0],
                MatchKind::Exact,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!(r.distances, vec![0.0]);
    }

    #[test]
    fn wide_rows_pack_across_word_boundaries() {
        // 100 columns spans two u64 plane words with a ragged tail.
        let mut s = Subarray::new(2, 100);
        let row: Vec<f32> = (0..100).map(|c| f32::from(u8::from(c % 3 == 0))).collect();
        s.write_rows(0, std::slice::from_ref(&row), 1).unwrap();
        let mut q = row;
        q[0] = 0.0; // one flip in word 0
        q[99] = 1.0 - q[99]; // one flip in the tail word
        let r = s
            .search(
                &q,
                MatchKind::Best,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap();
        assert_eq!(r.distances, vec![2.0]);
    }

    #[test]
    fn range_rows_fall_back_to_the_cell_walk() {
        let mut s = Subarray::new(2, 3);
        s.write_cells(
            0,
            &[
                vec![
                    CamCell::Range(0.0, 1.0),
                    CamCell::One,
                    CamCell::Range(2.0, 3.0),
                ],
                vec![CamCell::Zero, CamCell::One, CamCell::Zero],
            ],
        )
        .unwrap();
        let packed = s
            .search(
                &[0.5, 1.0, 4.0],
                MatchKind::Best,
                Metric::Euclidean,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap()
            .clone();
        let naive = s
            .search_naive(
                &[0.5, 1.0, 4.0],
                MatchKind::Best,
                Metric::Euclidean,
                RowSelection::All,
                0.0,
                None,
            )
            .unwrap();
        assert_eq!(&packed, naive);
        assert_eq!(packed.distances, vec![1.0, 0.25 + 16.0]);
    }

    #[test]
    fn packed_matches_naive_bitwise_on_mixed_content() {
        // Binary rows, multi-bit rows (2- and 4-bit, fractional and
        // clamped values), a mixed row, and a range row in one
        // subarray; fractional, negative, out-of-level-range and
        // past-the-integer-guard queries; every metric/kind; ideal and
        // under 25 % seeded faults with 3-way voting.
        let mut faulty = c4cam_faults::FaultConfig::with_rate(0.25, 42);
        faulty.resilience.vote = 3;
        for faults in [None, Some(faulty)] {
            let mut s = Subarray::new(7, 5);
            s.set_faults(faults.map(|cfg| Box::new(SubarrayFaults::generate(&cfg, 0, 7, 5))));
            s.write_rows(0, &[vec![1.0, 0.0, 1.0], vec![0.0, 0.0, 1.0]], 1)
                .unwrap();
            s.write_rows(2, &[vec![3.0, 1.0, 0.0], vec![2.0, 2.0, 2.0]], 2)
                .unwrap();
            s.write_cells(
                4,
                &[
                    vec![CamCell::One, CamCell::Multi(2), CamCell::Zero],
                    vec![CamCell::Range(0.5, 1.5), CamCell::One, CamCell::DontCare],
                ],
            )
            .unwrap();
            s.write_rows(6, &[vec![15.0, 0.5, 2.6, 1.0, 7.0]], 4)
                .unwrap();
            for q in [
                vec![1.0f32, 0.0, 1.0, 0.0, 0.0],
                vec![0.25, -1.5, 3.75],
                vec![2.0, 2.0, 2.0],
                vec![2.5, 0.5, 1.5],
                vec![300.0, -2.0, 1.0],
                vec![1e7, 0.0, 1.0],
            ] {
                for metric in [Metric::Hamming, Metric::Euclidean, Metric::Dot] {
                    for kind in [MatchKind::Exact, MatchKind::Best, MatchKind::Threshold] {
                        for (selection, wta) in [
                            (RowSelection::All, None),
                            (RowSelection::All, Some(1)),
                            (RowSelection::Window { start: 1, len: 2 }, Some(1)),
                        ] {
                            let naive = s
                                .search_naive(&q, kind, metric, selection, 1.5, wta)
                                .unwrap()
                                .clone();
                            let packed = s
                                .search(&q, kind, metric, selection, 1.5, wta, &mut scratch())
                                .unwrap();
                            assert_eq!(naive.rows, packed.rows);
                            assert_eq!(naive.matched, packed.matched);
                            let same = naive
                                .distances
                                .iter()
                                .zip(&packed.distances)
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                            assert!(
                                same,
                                "{metric:?}/{kind:?}/{selection:?}/wta={wta:?}: {:?} vs {:?}",
                                naive.distances, packed.distances
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tier_resolution_orders_and_rejects() {
        // No request: the host's best tier wins.
        assert_eq!(
            resolve_tier(None, KernelTier::Avx2).unwrap(),
            KernelTier::Avx2
        );
        // Requests at or below the host capability pass through.
        assert_eq!(
            resolve_tier(Some(KernelTier::Scalar), KernelTier::Avx512).unwrap(),
            KernelTier::Scalar
        );
        // Requests above it are rejected with a structured error.
        let e = resolve_tier(Some(KernelTier::Avx512), KernelTier::Avx2).unwrap_err();
        assert!(e.contains("avx512") && e.contains("not supported"), "{e}");
        assert!(e.contains("best supported: 'avx2'"), "{e}");
    }

    #[test]
    fn tier_keywords_round_trip_and_reject_unknowns() {
        for t in [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512] {
            assert_eq!(KernelTier::from_keyword(t.keyword()).unwrap(), t);
        }
        let e = KernelTier::from_keyword("sse9").unwrap_err();
        assert!(e.contains("sse9") && e.contains("expected"), "{e}");
    }

    #[test]
    fn forced_scalar_tier_matches_default_tier_bitwise() {
        let mut s = programmed();
        let q = [1.0f32, 0.0, 1.0, 1.0];
        let default = s
            .search(
                &q,
                MatchKind::Best,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
                &mut scratch(),
            )
            .unwrap()
            .clone();
        let mut forced = scratch();
        forced.set_kernel_tier(Some(KernelTier::Scalar)).unwrap();
        assert_eq!(forced.kernel_tier(), Some(KernelTier::Scalar));
        let scalar = s
            .search(
                &q,
                MatchKind::Best,
                Metric::Hamming,
                RowSelection::All,
                0.0,
                None,
                &mut forced,
            )
            .unwrap();
        assert_eq!(&default, scalar);
    }

    #[test]
    fn every_supported_tier_is_bit_identical_on_all_kernels() {
        // One subarray exercising all three kernel families: binary
        // rows (bit-plane fold), multi-bit rows (byte compares), and
        // integral Euclidean queries (exact-integer fold).
        let mut s = Subarray::new(4, 70);
        s.write_rows(0, &[vec![1.0; 70], vec![0.0; 70]], 1).unwrap();
        s.write_rows(2, &[vec![3.0; 70], vec![2.0; 70]], 2).unwrap();
        let queries = [vec![1.0f32; 70], vec![2.0; 70]];
        let best = KernelTier::detect();
        for metric in [Metric::Hamming, Metric::Euclidean, Metric::Dot] {
            for q in &queries {
                let mut base = scratch();
                base.set_kernel_tier(Some(KernelTier::Scalar)).unwrap();
                let want = s
                    .search(
                        q,
                        MatchKind::Best,
                        metric,
                        RowSelection::All,
                        0.0,
                        None,
                        &mut base,
                    )
                    .unwrap()
                    .clone();
                for t in [KernelTier::Avx2, KernelTier::Avx512] {
                    if t > best {
                        continue;
                    }
                    let mut forced = scratch();
                    forced.set_kernel_tier(Some(t)).unwrap();
                    let got = s
                        .search(
                            q,
                            MatchKind::Best,
                            metric,
                            RowSelection::All,
                            0.0,
                            None,
                            &mut forced,
                        )
                        .unwrap();
                    assert_eq!(want.rows, got.rows, "{t:?}/{metric:?}");
                    let same = want
                        .distances
                        .iter()
                        .zip(&got.distances)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "{t:?}/{metric:?}: {:?} vs {:?}",
                        want.distances, got.distances
                    );
                }
            }
        }
    }

    #[test]
    fn unsupported_forced_tier_is_rejected_at_set_time() {
        // `resolve_tier` covers the pure rejection on any host; here we
        // additionally pin the scratch-level behavior when the host
        // really is below Avx512.
        if KernelTier::detect() >= KernelTier::Avx512 {
            return;
        }
        let mut sc = scratch();
        let e = sc.set_kernel_tier(Some(KernelTier::Avx512)).unwrap_err();
        assert!(e.contains("not supported"), "{e}");
        assert_eq!(sc.kernel_tier(), None);
    }

    #[test]
    fn searched_words_reflect_packed_and_fallback_rows() {
        let mut s = Subarray::new(4, 70);
        s.write_rows(0, &[vec![1.0; 70], vec![0.0; 70]], 1).unwrap();
        s.write_rows(2, &[vec![3.0; 70]], 2).unwrap();
        s.write_cells(3, &[vec![CamCell::Range(0.0, 1.0); 70]])
            .unwrap();
        s.search(
            &[1.0; 70],
            MatchKind::Best,
            Metric::Hamming,
            RowSelection::All,
            0.0,
            None,
            &mut scratch(),
        )
        .unwrap();
        // Two bit-plane rows at ceil(70/64)=2 words each + one
        // level-plane row at ceil(70/8)=9 words + one fallback row at
        // 70 cells.
        assert_eq!(s.last_searched_words(), 2 * 2 + 9 + 70);
    }

    #[test]
    fn the_dense_sweep_reads_the_levels_record_and_only_the_full_window_takes_it() {
        // Row 1 is narrower than the query; rows 0, 2, 3 are cared over
        // exactly its columns and so expand their squares.
        let mut s = Subarray::new(4, 8);
        let data: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                (0..8 - usize::from(r == 1))
                    .map(|c| ((r + c) % 4) as f32)
                    .collect()
            })
            .collect();
        s.write_rows(0, &data, 2).unwrap();
        assert_eq!(s.levels_record(1).care_len, 7);
        let record = s.levels_record(2);
        // Levels 2, 3, 0, 1, twice.
        assert_eq!((record.care_len, record.level_sq), (8, 2 * (4 + 9 + 1)));
        let q = [1.0f32; 8];
        let search = |s: &mut Subarray, selection| {
            let spec = (MatchKind::Best, Metric::Euclidean);
            let r = s.search(&q, spec.0, spec.1, selection, 0.0, None, &mut scratch());
            r.unwrap().distances.clone()
        };
        let honest = search(&mut s, RowSelection::All);
        assert_eq!(honest, vec![12.0, 11.0, 12.0, 12.0]);

        // Skewing a record moves exactly the rows that expand: the
        // dense sweep ran, and read nothing else of them.
        for r in [1, 2] {
            s.bits[r * s.words_per_row] += 1; // the record's `Σ level²`
        }
        assert_eq!(
            search(&mut s, RowSelection::All),
            vec![12.0, 11.0, 13.0, 12.0]
        );
        // A window short of the array, or a transient draw to make,
        // takes the generic sweep, which never reads the record.
        let window = RowSelection::Window { start: 0, len: 3 };
        assert_eq!(search(&mut s, window), honest[..3]);
        let mut cfg = c4cam_faults::FaultConfig::with_rate(0.0, 1);
        cfg.model.transient = 1e-12;
        s.set_faults(Some(Box::new(SubarrayFaults::generate(&cfg, 0, 4, 8))));
        assert_eq!(search(&mut s, RowSelection::All), honest);
    }

    #[test]
    fn euclidean_packing_matches_the_oracle_at_its_edges() {
        // Each query puts one edge value among small integers: the
        // integrality test, the `|q| ≤ 1024` fold bound and the 2²⁰
        // exact-integer bound are decided by it alone.
        let mut s = Subarray::new(17, 6);
        let rows: Vec<Vec<f32>> = (0..17)
            .map(|r| (0..6).map(|c| ((r + c) % 4) as f32).collect())
            .collect();
        s.write_rows(0, &rows, 2).unwrap();
        let bound = INT_QUERY_BOUND as f32;
        for edge in [
            -0.0,
            0.5,
            -1.5,
            1024.0,
            -1024.0,
            1025.0,
            -1025.0,
            bound,
            -bound,
            bound + 1.0,
            bound - 0.5,
            1e7,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ] {
            let q = [1.0, edge, 3.0, 0.0, 2.0, 1.0];
            let spec = (MatchKind::Best, Metric::Euclidean, RowSelection::All);
            let naive = s.search_naive(&q, spec.0, spec.1, spec.2, 0.0, None);
            let naive = naive.unwrap().clone();
            for tier in [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512] {
                if tier > KernelTier::detect() {
                    continue;
                }
                let mut sc = scratch();
                sc.set_kernel_tier(Some(tier)).unwrap();
                let got = s
                    .search(&q, spec.0, spec.1, spec.2, 0.0, None, &mut sc)
                    .unwrap();
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got.distances),
                    bits(&naive.distances),
                    "{edge}/{tier:?}"
                );
                assert_eq!(got.matched, naive.matched, "{edge}/{tier:?}");
            }
        }
    }

    #[test]
    fn a_zero_width_block_takes_the_dense_sweep_without_a_record() {
        // Sixteen empty rows: binary, with no plane words to hold a
        // record, so the block check must not read one.
        let mut s = Subarray::new(16, 0);
        s.write_rows(0, &vec![Vec::new(); 16], 2).unwrap();
        let spec = (MatchKind::Best, Metric::Euclidean, RowSelection::All);
        let naive = s.search_naive(&[], spec.0, spec.1, spec.2, 0.0, None);
        let naive = naive.unwrap().clone();
        for tier in [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512] {
            if tier > KernelTier::detect() {
                continue;
            }
            let mut sc = scratch();
            sc.set_kernel_tier(Some(tier)).unwrap();
            let got = s.search(&[], spec.0, spec.1, spec.2, 0.0, None, &mut sc);
            assert_eq!(got.unwrap(), &naive, "{tier:?}");
        }
    }
}
