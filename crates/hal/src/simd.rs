//! CPU-native vectorized reference device.
//!
//! [`SimdDevice`] implements [`CamDevice`] directly over flat `u8`
//! level/care planes — no `CamCell` enum grid, no hierarchy state
//! machine beyond budget bookkeeping — so the per-row search kernels
//! are tight, auto-vectorizable byte loops. It is the **output
//! oracle's equal but not its cost model**: every distance, match
//! flag, and returned tensor is bit-identical to
//! [`CamMachine`](c4cam_camsim::CamMachine) (the kernels reproduce the
//! packed match-plane semantics exactly, including the exact-integer
//! Euclidean fast path and its `f64` fallback in column order), while
//! statistics follow this backend's own deterministic estimate
//! ([`StatsContract::Estimated`](crate::StatsContract::Estimated)):
//! operation counters are exact, `searched_words` counts 16-lane SIMD
//! words, and latency/energy use fixed per-op constants folded through
//! the same parallel/sequential timing scopes as the device model.
//!
//! Because `SimdDevice` is `Clone + Send`, the tape engine's batched
//! executor shards query loops across clones of it exactly as it does
//! with `CamMachine` — the `simd` backend gets threading and
//! intra-query sharding for free.

use c4cam_arch::tech::Level;
use c4cam_arch::{ArchSpec, MatchKind, Metric};
use c4cam_camsim::{
    encode_row, ArrayId, BankId, CamDevice, ExecStats, MatId, RowSelection, SearchResult,
    SearchSpec, SimError, SubarrayId,
};
use c4cam_faults::{query_hash, FaultConfig, SubarrayFaults};

/// Cells per SIMD word in the `searched_words` work metric.
pub const LANES: usize = 16;

/// Upper bound on `|q|` for the exact-integer Euclidean path (mirrors
/// the packed-plane guard).
const INT_QUERY_BOUND: f32 = 1_048_576.0; // 2^20

// Deterministic cost-model constants (ns / fJ). These are estimates —
// chosen so latency is strictly monotone in the number of device
// operations — not the calibrated technology model.
const WRITE_NS_PER_ROW: f64 = 2.0;
const SEARCH_BASE_NS: f64 = 1.0;
const SEARCH_NS_PER_WORD: f64 = 0.05;
const SELECTIVE_NS: f64 = 0.2;
const CELL_FJ: f64 = 0.1;
const PERIPH_FJ_PER_COL: f64 = 0.2;
const WRITE_FJ_PER_CELL_BIT: f64 = 0.5;
const MERGE_FJ_PER_ELEM: f64 = 0.05;
const STATIC_UW_PER_UNIT: f64 = 0.01;

fn merge_latency_ns(level: Level) -> f64 {
    match level {
        Level::Bank => 0.8,
        Level::Mat => 0.4,
        Level::Array => 0.2,
        Level::Subarray => 0.1,
    }
}

/// One subarray's flat match planes.
#[derive(Debug, Clone)]
struct SimdSubarray {
    /// Stored integer level per cell, row-major (`rows * cols`).
    levels: Vec<u8>,
    /// 1 where the cell participates in matching (0 = don't-care pad).
    care: Vec<u8>,
    /// Programmed rows.
    valid: Vec<bool>,
    /// Rows written with multi-bit (MCAM) encoding: level-plane query
    /// rounding applies instead of the binary threshold.
    multi: Vec<bool>,
    /// Result of the most recent search (`cam.read` semantics).
    last: Option<SearchResult>,
    /// Injected fault state — the same deterministic per-subarray
    /// state the device model generates, so fault sites and transient
    /// draws agree with `CamMachine` bit-for-bit.
    faults: Option<Box<SubarrayFaults>>,
}

impl SimdSubarray {
    fn new(rows: usize, cols: usize) -> SimdSubarray {
        SimdSubarray {
            levels: vec![0; rows * cols],
            care: vec![0; rows * cols],
            valid: vec![false; rows],
            multi: vec![false; rows],
            last: None,
            faults: None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SimdScope {
    parallel: bool,
    elapsed_ns: f64,
}

/// The CPU-native vectorized reference device (see the module docs).
#[derive(Debug, Clone)]
pub struct SimdDevice {
    bits_per_cell: u32,
    rows: usize,
    cols: usize,
    mats_per_bank: usize,
    arrays_per_mat: usize,
    subarrays_per_array: usize,
    max_banks: Option<usize>,
    wta_window: Option<u32>,
    /// Mats allocated per bank / arrays per mat / subarrays per array.
    bank_mats: Vec<usize>,
    mat_arrays: Vec<usize>,
    array_subs: Vec<usize>,
    subs: Vec<SimdSubarray>,
    scopes: Vec<SimdScope>,
    stats: ExecStats,
    phases: Vec<(String, ExecStats)>,
    faults: Option<FaultConfig>,
}

impl SimdDevice {
    /// Build a device for the given architecture.
    pub fn new(spec: &ArchSpec) -> SimdDevice {
        SimdDevice {
            bits_per_cell: spec.bits_per_cell,
            rows: spec.rows_per_subarray,
            cols: spec.cols_per_subarray,
            mats_per_bank: spec.mats_per_bank,
            arrays_per_mat: spec.arrays_per_mat,
            subarrays_per_array: spec.subarrays_per_array,
            max_banks: spec.banks,
            wta_window: None,
            bank_mats: Vec::new(),
            mat_arrays: Vec::new(),
            array_subs: Vec::new(),
            subs: Vec::new(),
            scopes: vec![SimdScope {
                parallel: false,
                elapsed_ns: 0.0,
            }],
            stats: ExecStats::default(),
            phases: Vec::new(),
            faults: None,
        }
    }

    /// Model a bounded winner-take-all sensing window (Hamming
    /// distances saturate at `window` mismatches).
    pub fn set_wta_window(&mut self, window: Option<u32>) {
        self.wta_window = window;
    }

    /// Install (or clear) a fault-injection configuration — the same
    /// seeded state `CamMachine::set_faults` generates, keyed only on
    /// `(seed, subarray index, geometry)`.
    pub fn set_faults(&mut self, faults: Option<FaultConfig>) {
        self.faults = faults;
        self.stats.rows_remapped = 0;
        for (i, sub) in self.subs.iter_mut().enumerate() {
            let state = self
                .faults
                .as_ref()
                .map(|cfg| Box::new(SubarrayFaults::generate(cfg, i, self.rows, self.cols)));
            self.stats.rows_remapped += state.as_ref().map_or(0, |f| f.rows_remapped());
            sub.faults = state;
        }
    }

    /// Bytes of heap the allocated subarrays own for their contents
    /// (the byte planes and per-row flags, by capacity).
    pub fn heap_bytes(&self) -> usize {
        let of = |s: &SimdSubarray| {
            s.levels.capacity() + s.care.capacity() + s.valid.capacity() + s.multi.capacity()
        };
        self.subs.iter().map(of).sum()
    }

    fn add_latency(&mut self, ns: f64) {
        let scope = self.scopes.last_mut().unwrap();
        if scope.parallel {
            scope.elapsed_ns = scope.elapsed_ns.max(ns);
        } else {
            scope.elapsed_ns += ns;
        }
    }

    fn current_latency_ns(&self) -> f64 {
        let mut acc = 0.0;
        for scope in self.scopes.iter().rev() {
            if scope.parallel {
                acc = scope.elapsed_ns.max(acc);
            } else {
                acc += scope.elapsed_ns;
            }
        }
        acc
    }

    fn sub_index(&self, id: SubarrayId) -> Result<usize, SimError> {
        if id.0 < self.subs.len() {
            Ok(id.0)
        } else {
            Err(SimError::new(format!("invalid subarray handle {}", id.0)))
        }
    }
}

/// Distance of one row under the shared query planes — exactly the
/// packed match-plane semantics.
#[allow(clippy::too_many_arguments)]
fn row_distance(
    lv: &[u8],
    care: &[u8],
    multi: bool,
    metric: Metric,
    query: &[f32],
    qbits: &[u8],
    qlvl8: &[u8],
    qvalid: &[bool],
    int_mode: bool,
    qint: &[i64],
    sq0: &[f64],
    sq1: &[f64],
) -> f64 {
    let qlen = query.len();
    match metric {
        Metric::Hamming | Metric::Dot => {
            let mism: u64 = if multi {
                lv.iter()
                    .zip(care)
                    .zip(qlvl8.iter().zip(qvalid))
                    .map(|((&l, &cb), (&q8, &qv))| u64::from(cb == 1 && !(qv && l == q8)))
                    .sum()
            } else {
                lv.iter()
                    .zip(care)
                    .zip(qbits)
                    .map(|((&l, &cb), &qb)| u64::from(cb == 1 && l != qb))
                    .sum()
            };
            if metric == Metric::Hamming {
                mism as f64
            } else {
                // Dot similarity: count matching positions, negated so
                // "smaller is better" holds uniformly.
                -((qlen as u64 - mism) as f64)
            }
        }
        Metric::Euclidean => {
            if int_mode {
                // Exact integer accumulation: associative, so any fold
                // order equals the column-order f64 walk bit-for-bit.
                let mut acc = 0u64;
                for ((&l, &cb), &q) in lv.iter().zip(care).zip(qint) {
                    let d = (q - i64::from(l)) * i64::from(cb);
                    acc += (d * d) as u64;
                }
                acc as f64
            } else if multi {
                // Column-order f64 over the level plane.
                let mut sum = 0.0f64;
                for c in 0..qlen {
                    let d = f64::from(query[c]) - f64::from(lv[c]);
                    sum += if care[c] == 1 { d * d } else { 0.0 };
                }
                sum
            } else {
                // Column-order f64 from the per-column square tables.
                let mut sum = 0.0f64;
                for c in 0..qlen {
                    let contrib = if lv[c] == 1 { sq1[c] } else { sq0[c] };
                    sum += if care[c] == 1 { contrib } else { 0.0 };
                }
                sum
            }
        }
    }
}

fn flag_matches(result: &mut SearchResult, kind: MatchKind, threshold: f64) {
    let SearchResult {
        distances, matched, ..
    } = result;
    match kind {
        MatchKind::Exact => matched.extend(distances.iter().map(|&d| d == 0.0)),
        MatchKind::Threshold => matched.extend(distances.iter().map(|&d| d <= threshold)),
        MatchKind::Best => {
            let min = distances.iter().cloned().fold(f64::INFINITY, f64::min);
            matched.extend(distances.iter().map(|&d| d == min));
        }
    }
}

impl CamDevice for SimdDevice {
    fn alloc_bank(&mut self) -> Result<BankId, SimError> {
        if let Some(max) = self.max_banks {
            if self.bank_mats.len() >= max {
                return Err(SimError::new(format!("bank budget ({max}) exhausted")));
            }
        }
        self.bank_mats.push(0);
        self.stats.banks_allocated = self.bank_mats.len();
        Ok(BankId(self.bank_mats.len() - 1))
    }

    fn alloc_mat(&mut self, bank: BankId) -> Result<MatId, SimError> {
        let mats = self
            .bank_mats
            .get_mut(bank.0)
            .ok_or_else(|| SimError::new(format!("invalid bank handle {}", bank.0)))?;
        if *mats >= self.mats_per_bank {
            return Err(SimError::new(format!(
                "bank {} already has {} mats",
                bank.0, self.mats_per_bank
            )));
        }
        *mats += 1;
        self.mat_arrays.push(0);
        self.stats.mats_allocated = self.mat_arrays.len();
        Ok(MatId(self.mat_arrays.len() - 1))
    }

    fn alloc_array(&mut self, mat: MatId) -> Result<ArrayId, SimError> {
        let arrays = self
            .mat_arrays
            .get_mut(mat.0)
            .ok_or_else(|| SimError::new(format!("invalid mat handle {}", mat.0)))?;
        if *arrays >= self.arrays_per_mat {
            return Err(SimError::new(format!(
                "mat {} already has {} arrays",
                mat.0, self.arrays_per_mat
            )));
        }
        *arrays += 1;
        self.array_subs.push(0);
        self.stats.arrays_allocated = self.array_subs.len();
        Ok(ArrayId(self.array_subs.len() - 1))
    }

    fn alloc_subarray(&mut self, array: ArrayId) -> Result<SubarrayId, SimError> {
        let subs = self
            .array_subs
            .get_mut(array.0)
            .ok_or_else(|| SimError::new(format!("invalid array handle {}", array.0)))?;
        if *subs >= self.subarrays_per_array {
            return Err(SimError::new(format!(
                "array {} already has {} subarrays",
                array.0, self.subarrays_per_array
            )));
        }
        *subs += 1;
        let mut sub = SimdSubarray::new(self.rows, self.cols);
        if let Some(cfg) = &self.faults {
            let state = SubarrayFaults::generate(cfg, self.subs.len(), self.rows, self.cols);
            self.stats.rows_remapped += state.rows_remapped();
            sub.faults = Some(Box::new(state));
        }
        self.subs.push(sub);
        self.stats.subarrays_allocated = self.subs.len();
        Ok(SubarrayId(self.subs.len() - 1))
    }

    fn write_rows(
        &mut self,
        id: SubarrayId,
        row_offset: usize,
        data: &[Vec<f32>],
    ) -> Result<(), SimError> {
        let idx = self.sub_index(id)?;
        let (rows, cols, bits) = (self.rows, self.cols, self.bits_per_cell);
        if row_offset + data.len() > rows {
            return Err(SimError::new(format!(
                "write of {} rows at offset {row_offset} exceeds {rows} rows",
                data.len()
            )));
        }
        let sub = &mut self.subs[idx];
        if let Some(i) = data.iter().position(|row| row.len() > cols) {
            return Err(SimError::new(format!(
                "row {} has {} elements but subarray has {cols} columns",
                row_offset + i,
                data[i].len()
            )));
        }
        let faults_before = sub.faults.as_ref().map_or(0, |f| f.fault_cells());
        for (i, row) in data.iter().enumerate() {
            let r = row_offset + i;
            // The device model's own row encoder, faults included: the
            // two devices cannot drift apart on what a write stores.
            encode_row(
                row,
                bits,
                sub.faults.as_deref_mut().map(|f| (f, r)),
                &mut sub.levels[r * cols..(r + 1) * cols],
                &mut sub.care[r * cols..(r + 1) * cols],
            );
            sub.valid[r] = true;
            sub.multi[r] = bits > 1 && !row.is_empty();
        }
        let faults_after = sub.faults.as_ref().map_or(0, |f| f.fault_cells());
        self.stats.fault_cells += faults_after - faults_before;
        self.stats.write_ops += 1;
        self.stats.write_energy_fj +=
            (data.len() * cols) as f64 * f64::from(bits) * WRITE_FJ_PER_CELL_BIT;
        self.add_latency(WRITE_NS_PER_ROW * data.len() as f64);
        Ok(())
    }

    fn search(
        &mut self,
        id: SubarrayId,
        query: &[f32],
        spec: SearchSpec,
    ) -> Result<&SearchResult, SimError> {
        let idx = self.sub_index(id)?;
        let (rows, cols, wta) = (self.rows, self.cols, self.wta_window);
        if query.len() > cols {
            return Err(SimError::new(format!(
                "query width {} exceeds {cols} columns",
                query.len()
            )));
        }
        let qlen = query.len();

        // Pack the query once, exactly as the device's match planes do.
        let qbits: Vec<u8> = query.iter().map(|&q| u8::from(q != 0.0)).collect();
        let mut qlvl8 = Vec::with_capacity(qlen);
        let mut qvalid = Vec::with_capacity(qlen);
        for &q in query {
            let l = q.round() as i64;
            qlvl8.push(l.clamp(0, 255) as u8);
            qvalid.push((0..=255).contains(&l));
        }
        let mut int_mode = false;
        let mut qint: Vec<i64> = Vec::new();
        let (mut sq0, mut sq1) = (Vec::new(), Vec::new());
        if spec.metric == Metric::Euclidean {
            int_mode = query
                .iter()
                .all(|&q| q.fract() == 0.0 && q.abs() <= INT_QUERY_BOUND);
            if int_mode {
                qint.extend(query.iter().map(|&q| q as i64));
                // The u64 accumulator and the final f64 convert are
                // exact only below 2^53.
                let maxq = qint.iter().map(|q| q.abs()).max().unwrap_or(0);
                let maxd = maxq + 255;
                int_mode = (qlen as f64) * (maxd as f64) * (maxd as f64) < 2f64.powi(53);
            }
            if !int_mode {
                for &q in query {
                    let d = f64::from(q);
                    sq0.push(d * d);
                    let d = f64::from(q) - 1.0;
                    sq1.push(d * d);
                }
            }
        }

        let sub = &mut self.subs[idx];
        let mut faults = sub.faults.take();
        let qh = match faults.as_deref() {
            Some(f) if f.transient_enabled() => Some(query_hash(query)),
            _ => None,
        };
        let transients_before = faults.as_deref().map_or(0, |f| f.fault_transients());
        let mut result = sub.last.take().unwrap_or_default();
        result.rows.clear();
        result.distances.clear();
        result.matched.clear();
        let mut words = 0u64;
        for r in spec.selection.range(rows) {
            if !sub.valid[r] {
                continue;
            }
            let lv = &sub.levels[r * cols..r * cols + qlen];
            let care = &sub.care[r * cols..r * cols + qlen];
            let mut dist = row_distance(
                lv,
                care,
                sub.multi[r],
                spec.metric,
                query,
                &qbits,
                &qlvl8,
                &qvalid,
                int_mode,
                &qint,
                &sq0,
                &sq1,
            );
            if let Some(window) = wta {
                if spec.metric == Metric::Hamming {
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
            words += qlen.div_ceil(LANES).max(1) as u64;
            result.rows.push(r);
            result.distances.push(dist);
        }
        flag_matches(&mut result, spec.kind, spec.threshold);
        let active = result.rows.len();
        let transients_after = faults.as_deref().map_or(0, |f| f.fault_transients());
        let votes = faults.as_deref().map_or(1, |f| u64::from(f.vote()));
        sub.faults = faults;
        sub.last = Some(result);

        self.stats.fault_transients += transients_after - transients_before;
        self.stats.search_ops += votes;
        self.stats.searched_words += words * votes;
        self.stats.cell_energy_fj +=
            (active * qlen) as f64 * f64::from(self.bits_per_cell) * CELL_FJ * votes as f64;
        self.stats.periph_energy_fj +=
            cols as f64 * PERIPH_FJ_PER_COL * spec.broadcast_share * votes as f64;
        let mut lat = SEARCH_BASE_NS + SEARCH_NS_PER_WORD * words as f64;
        if spec.selection != RowSelection::All {
            lat += SELECTIVE_NS;
        }
        self.add_latency(lat);
        Ok(self.subs[idx]
            .last
            .as_ref()
            .expect("search stored a result"))
    }

    fn read(&mut self, id: SubarrayId) -> Result<&SearchResult, SimError> {
        let idx = self.sub_index(id)?;
        if self.subs[idx].last.is_none() {
            return Err(SimError::new("read before any search on this subarray"));
        }
        self.stats.read_ops += 1;
        Ok(self.subs[idx]
            .last
            .as_ref()
            .expect("presence checked above"))
    }

    fn merge(&mut self, level: Level, elems: usize) {
        self.stats.merge_ops += 1;
        self.stats.merge_energy_fj += elems as f64 * MERGE_FJ_PER_ELEM;
        self.add_latency(merge_latency_ns(level));
    }

    fn mark_phase(&mut self, name: &str) {
        let snapshot = self.stats();
        self.phases.push((name.to_string(), snapshot));
    }

    fn push_parallel(&mut self) {
        self.scopes.push(SimdScope {
            parallel: true,
            elapsed_ns: 0.0,
        });
    }

    fn push_sequential(&mut self) {
        self.scopes.push(SimdScope {
            parallel: false,
            elapsed_ns: 0.0,
        });
    }

    fn pop_scope(&mut self) {
        assert!(self.scopes.len() > 1, "pop_scope on root scope");
        let child = self.scopes.pop().unwrap();
        let parent = self.scopes.last_mut().unwrap();
        if parent.parallel {
            parent.elapsed_ns = parent.elapsed_ns.max(child.elapsed_ns);
        } else {
            parent.elapsed_ns += child.elapsed_ns;
        }
    }

    fn stats(&self) -> ExecStats {
        let mut s = self.stats.clone();
        s.latency_ns = self.current_latency_ns();
        s.static_energy_fj =
            STATIC_UW_PER_UNIT * (self.bank_mats.len() + self.subs.len()) as f64 * s.latency_ns;
        s
    }

    fn reset_stats(&mut self) {
        let banks = self.stats.banks_allocated;
        let mats = self.stats.mats_allocated;
        let arrays = self.stats.arrays_allocated;
        let subs = self.stats.subarrays_allocated;
        let remapped = self.stats.rows_remapped;
        self.stats = ExecStats {
            banks_allocated: banks,
            mats_allocated: mats,
            arrays_allocated: arrays,
            subarrays_allocated: subs,
            rows_remapped: remapped,
            ..ExecStats::default()
        };
        for s in self.scopes.iter_mut() {
            s.elapsed_ns = 0.0;
        }
        self.phases.clear();
    }

    fn absorb_delta(&mut self, delta: &ExecStats) {
        self.stats.search_ops += delta.search_ops;
        self.stats.searched_words += delta.searched_words;
        self.stats.write_ops += delta.write_ops;
        self.stats.read_ops += delta.read_ops;
        self.stats.merge_ops += delta.merge_ops;
        self.stats.cell_energy_fj += delta.cell_energy_fj;
        self.stats.periph_energy_fj += delta.periph_energy_fj;
        self.stats.merge_energy_fj += delta.merge_energy_fj;
        self.stats.write_energy_fj += delta.write_energy_fj;
        self.stats.fault_cells += delta.fault_cells;
        self.stats.fault_transients += delta.fault_transients;
        self.stats.rows_remapped = self.stats.rows_remapped.max(delta.rows_remapped);
        self.add_latency(delta.latency_ns);
    }

    fn phases(&self) -> &[(String, ExecStats)] {
        &self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_camsim::CamMachine;

    fn spec(bits: u32) -> ArchSpec {
        let kind = if bits > 2 {
            c4cam_arch::CamKind::Mcam
        } else {
            c4cam_arch::CamKind::Tcam
        };
        ArchSpec::builder()
            .subarray(8, 8)
            .hierarchy(2, 2, 4)
            .cam_kind(kind)
            .bits_per_cell(bits)
            .build()
            .unwrap()
    }

    /// Program identical data into both devices through the trait,
    /// search with identical specs, and demand bit-identical results.
    fn assert_search_parity(bits: u32, data: &[Vec<f32>], queries: &[Vec<f32>], spec_: SearchSpec) {
        let arch = spec(bits);
        let mut machine = CamMachine::new(&arch);
        let mut simd = SimdDevice::new(&arch);
        let ms = machine.alloc_chain().unwrap();
        let sb = simd.alloc_bank().unwrap();
        let sm = simd.alloc_mat(sb).unwrap();
        let sa = simd.alloc_array(sm).unwrap();
        let ss = simd.alloc_subarray(sa).unwrap();
        CamDevice::write_rows(&mut machine, ms, 0, data).unwrap();
        simd.write_rows(ss, 0, data).unwrap();
        for q in queries {
            let want = CamDevice::search(&mut machine, ms, q, spec_)
                .unwrap()
                .clone();
            let got = simd.search(ss, q, spec_).unwrap();
            assert_eq!(got.rows, want.rows, "rows for query {q:?}");
            assert_eq!(got.matched, want.matched, "matched for query {q:?}");
            let same = got
                .distances
                .iter()
                .zip(&want.distances)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert_eq!(
                got.distances, want.distances,
                "distances for query {q:?} (bits={bits})"
            );
            assert!(same, "distance bits for query {q:?} (bits={bits})");
        }
    }

    #[test]
    fn binary_search_is_bit_identical_to_the_machine() {
        let data = vec![
            vec![1.0, 0.0, 1.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.0; 5],
        ];
        let queries = vec![
            vec![1.0, 0.0, 1.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0],
            vec![1.0; 5],
        ];
        for metric in [Metric::Hamming, Metric::Euclidean, Metric::Dot] {
            for kind in [MatchKind::Exact, MatchKind::Best, MatchKind::Threshold] {
                assert_search_parity(
                    1,
                    &data,
                    &queries,
                    SearchSpec::new(kind, metric).with_threshold(1.5),
                );
            }
        }
    }

    #[test]
    fn multibit_search_is_bit_identical_to_the_machine() {
        let data = vec![
            vec![3.0, 0.0, 2.0, 1.0, 7.0],
            vec![15.0, 1.0, 2.0],
            vec![0.5, 2.4, 2.6],
        ];
        // Integral, fractional, out-of-range and negative queries cover
        // the int fast path, the f64 fallback and level clamping.
        let queries = vec![
            vec![3.0, 0.0, 2.0, 1.0, 7.0],
            vec![2.5, 0.5, 1.5],
            vec![300.0, -2.0, 1.0],
            vec![1e7, 0.0, 1.0],
        ];
        for bits in [2, 3, 4] {
            for metric in [Metric::Hamming, Metric::Euclidean, Metric::Dot] {
                assert_search_parity(
                    bits,
                    &data,
                    &queries,
                    SearchSpec::new(MatchKind::Best, metric),
                );
            }
        }
    }

    #[test]
    fn selective_window_and_wta_match_the_machine() {
        let arch = spec(1);
        let mut machine = CamMachine::new(&arch);
        let mut simd = SimdDevice::new(&arch);
        machine.set_wta_window(Some(1));
        simd.set_wta_window(Some(1));
        let ms = machine.alloc_chain().unwrap();
        let sb = simd.alloc_bank().unwrap();
        let sm = simd.alloc_mat(sb).unwrap();
        let sa = simd.alloc_array(sm).unwrap();
        let ss = simd.alloc_subarray(sa).unwrap();
        let data = vec![
            vec![1.0, 0.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.0; 4],
        ];
        CamDevice::write_rows(&mut machine, ms, 0, &data).unwrap();
        simd.write_rows(ss, 0, &data).unwrap();
        let sel = SearchSpec::new(MatchKind::Best, Metric::Hamming)
            .with_selection(RowSelection::Window { start: 1, len: 2 });
        let q = vec![1.0, 0.0, 1.0, 1.0];
        let want = CamDevice::search(&mut machine, ms, &q, sel)
            .unwrap()
            .clone();
        let got = simd.search(ss, &q, sel).unwrap();
        assert_eq!(got.rows, want.rows);
        assert_eq!(got.distances, want.distances);
        assert_eq!(got.matched, want.matched);
    }

    #[test]
    fn errors_mirror_the_machine() {
        let arch = spec(1);
        let mut simd = SimdDevice::new(&arch);
        let b = simd.alloc_bank().unwrap();
        let m = simd.alloc_mat(b).unwrap();
        let a = simd.alloc_array(m).unwrap();
        let s = simd.alloc_subarray(a).unwrap();
        assert!(simd
            .search(
                s,
                &[0.0; 9],
                SearchSpec::new(MatchKind::Best, Metric::Hamming)
            )
            .unwrap_err()
            .message
            .contains("exceeds"));
        assert!(simd.read(s).unwrap_err().message.contains("read before"));
        assert!(simd
            .write_rows(s, 7, &[vec![0.0], vec![0.0]])
            .unwrap_err()
            .message
            .contains("exceeds"));
        assert!(simd
            .alloc_mat(BankId(9))
            .unwrap_err()
            .message
            .contains("invalid bank"));
    }

    #[test]
    fn scopes_and_fork_protocol_fold_deterministically() {
        let arch = spec(1);
        let mut d = SimdDevice::new(&arch);
        let b = d.alloc_bank().unwrap();
        let m = d.alloc_mat(b).unwrap();
        let a = d.alloc_array(m).unwrap();
        let s = d.alloc_subarray(a).unwrap();
        d.write_rows(s, 0, &[vec![1.0, 0.0]]).unwrap();
        d.push_parallel();
        d.search(
            s,
            &[1.0, 0.0],
            SearchSpec::new(MatchKind::Best, Metric::Hamming),
        )
        .unwrap();
        d.pop_scope();
        let base = d.stats();
        assert!(base.latency_ns > 0.0);
        assert!(base.searched_words > 0);

        // Fork protocol: clone + reset, work on the clone, absorb.
        let mut shard = d.clone();
        shard.reset_stats();
        shard
            .search(
                s,
                &[0.0, 0.0],
                SearchSpec::new(MatchKind::Best, Metric::Hamming),
            )
            .unwrap();
        let delta = shard.stats();
        d.absorb_delta(&delta);
        let after = d.stats();
        assert_eq!(after.search_ops, base.search_ops + 1);
        assert!(after.latency_ns > base.latency_ns);
        // Gauges are not duplicated by the absorb.
        assert_eq!(after.subarrays_allocated, base.subarrays_allocated);

        d.mark_phase("done");
        assert_eq!(d.phases().len(), 1);
        assert_eq!(d.phases()[0].0, "done");
    }

    #[test]
    fn seeded_faults_match_the_machine_bit_for_bit() {
        use c4cam_camsim::FaultConfig;
        let data = vec![
            vec![3.0, 0.0, 2.0, 1.0, 7.0, 4.0, 5.0, 6.0],
            vec![7.0, 1.0, 2.0, 0.0, 3.0],
            vec![0.0; 8],
            vec![1.0, 2.0, 3.0],
        ];
        let queries = vec![
            vec![3.0, 0.0, 2.0, 1.0, 7.0, 4.0, 5.0, 6.0],
            vec![2.5, 0.5, 1.5],
            vec![7.0, 1.0, 2.0, 0.0, 3.0],
        ];
        for bits in [1, 3] {
            let arch = spec(bits);
            let cfg = FaultConfig::with_rate(0.25, 42);
            let mut machine = CamMachine::new(&arch);
            let mut simd = SimdDevice::new(&arch);
            machine.set_faults(Some(cfg.clone()));
            simd.set_faults(Some(cfg));
            let ms = machine.alloc_chain().unwrap();
            let sb = simd.alloc_bank().unwrap();
            let sm = simd.alloc_mat(sb).unwrap();
            let sa = simd.alloc_array(sm).unwrap();
            let ss = simd.alloc_subarray(sa).unwrap();
            let bin: Vec<Vec<f32>> = data
                .iter()
                .map(|r| r.iter().map(|&v| f32::from(u8::from(v > 3.0))).collect())
                .collect();
            let rows = if bits <= 1 { &bin } else { &data };
            CamDevice::write_rows(&mut machine, ms, 0, rows).unwrap();
            simd.write_rows(ss, 0, rows).unwrap();
            for metric in [Metric::Hamming, Metric::Euclidean, Metric::Dot] {
                for q in &queries {
                    let sp = SearchSpec::new(MatchKind::Best, metric);
                    let want = CamDevice::search(&mut machine, ms, q, sp).unwrap().clone();
                    let got = simd.search(ss, q, sp).unwrap();
                    assert_eq!(got.rows, want.rows, "rows (bits={bits}, {metric:?})");
                    assert_eq!(got.matched, want.matched, "matched (bits={bits})");
                    let same = got
                        .distances
                        .iter()
                        .zip(&want.distances)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "distance bits (bits={bits}, {metric:?}, q={q:?})");
                }
            }
            let (mw, sw) = (machine.stats(), simd.stats());
            assert_eq!(mw.fault_cells, sw.fault_cells, "fault_cells (bits={bits})");
            assert_eq!(
                mw.fault_transients, sw.fault_transients,
                "fault_transients (bits={bits})"
            );
            assert_eq!(mw.rows_remapped, sw.rows_remapped);
            assert!(
                sw.fault_cells > 0,
                "25% fault rate over an 8x8 subarray must perturb cells"
            );
        }
    }

    #[test]
    fn voting_scales_search_cost_like_the_machine() {
        use c4cam_camsim::{FaultConfig, FaultModel, Resilience};
        let arch = spec(1);
        let cfg = FaultConfig {
            model: FaultModel::none(7),
            resilience: Resilience {
                vote: 3,
                ..Resilience::default()
            },
        };
        let mut voted = SimdDevice::new(&arch);
        voted.set_faults(Some(cfg));
        let mut plain = SimdDevice::new(&arch);
        for d in [&mut voted, &mut plain] {
            let b = d.alloc_bank().unwrap();
            let m = d.alloc_mat(b).unwrap();
            let a = d.alloc_array(m).unwrap();
            let s = d.alloc_subarray(a).unwrap();
            d.write_rows(s, 0, &[vec![1.0, 0.0, 1.0, 0.0]]).unwrap();
            d.search(
                s,
                &[1.0, 0.0, 1.0, 0.0],
                SearchSpec::new(MatchKind::Best, Metric::Hamming),
            )
            .unwrap();
        }
        let (v, p) = (voted.stats(), plain.stats());
        assert_eq!(v.search_ops, p.search_ops * 3);
        assert_eq!(v.searched_words, p.searched_words * 3);
        assert!(v.cell_energy_fj > p.cell_energy_fj * 2.9);
        // Replicated modules vote in parallel: latency is unchanged.
        assert_eq!(v.latency_ns.to_bits(), p.latency_ns.to_bits());
    }
}
