//! Deterministic device-fault models and device-side resilience.
//!
//! FeFET/ReRAM CAM cells are physically unreliable: cells get stuck,
//! multi-bit levels drift across sensing margins, and individual
//! searches misfire transiently. This crate models all three as pure
//! functions of a seed so that every backend — and every thread count —
//! observes *exactly* the same fault sites and fault events.
//!
//! ## Determinism discipline
//!
//! There is no shared RNG stream anywhere. Every random decision is a
//! stateless hash of its coordinates:
//!
//! * **permanent cell faults** — `h(seed, subarray, phys_row, col)`,
//!   drawn once per subarray at allocation time;
//! * **transient search mismatches** — `h(seed, subarray, query_hash,
//!   phys_row, vote_attempt)`, drawn per search from the query's own
//!   bit pattern.
//!
//! Because no draw depends on execution order, fault injection is
//! byte-reproducible across backends, runs, and thread counts — the
//! property the engine's sharded executors rely on.
//!
//! ## Resilience
//!
//! Two device-side mechanisms ([`Resilience`]) ride along:
//!
//! * **spare-row remapping** — placement reserves `spare_rows` physical
//!   rows per subarray; a logical row with any stuck cell is remapped
//!   onto a spare with none. Data stays logically indexed — remapping
//!   swaps *which physical fault sites apply*, exactly as a
//!   row-redundancy fuse map would.
//! * **k-modular voting** — each search is logically issued `vote`
//!   times and a row's transient flip only lands if a majority of
//!   attempts draw it. Dynamic search cost scales by `vote`.

/// Probability that a physical cell (or a search row) is faulty, per
/// fault class. All probabilities are clamped to `[0, 1]` at draw time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Seed for every hash stream derived from this model.
    pub seed: u64,
    /// Probability a cell is stuck at level 0 (TCAM `0` / MCAM level 0).
    pub stuck_at_zero: f64,
    /// Probability a cell is stuck at the maximum level (TCAM `1` /
    /// MCAM `2^bits - 1`).
    pub stuck_at_one: f64,
    /// Probability a *multi-bit* cell drifts one sensing level up or
    /// down when programmed (ignored for 1-bit cells, which have no
    /// intermediate margin to drift across).
    pub drift: f64,
    /// Per-search, per-row probability of a transient mismatch: the
    /// row's measured distance is perturbed by +1 for that search.
    pub transient: f64,
}

impl FaultModel {
    /// A model with no faults at all (every probability zero).
    pub fn none(seed: u64) -> FaultModel {
        FaultModel {
            seed,
            stuck_at_zero: 0.0,
            stuck_at_one: 0.0,
            drift: 0.0,
            transient: 0.0,
        }
    }

    /// The single-knob model the CLI exposes: `rate` is split evenly
    /// between stuck-at-0 and stuck-at-1, and reused directly for the
    /// drift and transient probabilities.
    pub fn with_rate(rate: f64, seed: u64) -> FaultModel {
        let rate = rate.clamp(0.0, 1.0);
        FaultModel {
            seed,
            stuck_at_zero: rate / 2.0,
            stuck_at_one: rate / 2.0,
            drift: rate,
            transient: rate,
        }
    }

    /// Whether every probability is exactly zero (faults disabled in
    /// all but name — outputs must be bit-identical to a fault-free
    /// run).
    pub fn is_zero(&self) -> bool {
        self.stuck_at_zero == 0.0
            && self.stuck_at_one == 0.0
            && self.drift == 0.0
            && self.transient == 0.0
    }
}

/// Device-side resilience knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Resilience {
    /// Physical spare rows reserved per subarray (placement sees
    /// `rows - spare_rows` usable rows).
    pub spare_rows: usize,
    /// k-modular redundant-search voting factor (`1` = no voting).
    pub vote: usize,
}

impl Default for Resilience {
    fn default() -> Resilience {
        Resilience {
            spare_rows: 0,
            vote: 1,
        }
    }
}

/// A complete fault-injection configuration: the statistical model plus
/// the resilience mechanisms that counter it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    pub model: FaultModel,
    pub resilience: Resilience,
}

impl FaultConfig {
    /// Convenience constructor mirroring the CLI surface:
    /// `--fault-rate` + `--fault-seed`.
    pub fn with_rate(rate: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            model: FaultModel::with_rate(rate, seed),
            resilience: Resilience::default(),
        }
    }

    /// Whether this configuration can perturb an execution's outputs.
    pub fn is_zero(&self) -> bool {
        self.model.is_zero()
    }
}

/// Permanent fault state of one physical cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFault {
    /// Healthy cell: programs faithfully.
    None,
    /// Stuck at level 0 regardless of the programmed value.
    StuckZero,
    /// Stuck at the maximum level regardless of the programmed value.
    StuckOne,
    /// Programs one sensing level above the intended value (multi-bit
    /// cells only; clamped to the level range).
    DriftUp,
    /// Programs one sensing level below the intended value (multi-bit
    /// cells only; clamped at zero).
    DriftDown,
}

impl CellFault {
    /// The level a cell with this fault stores when programmed with
    /// `intended`, on an alphabet whose top level is `levels_max`.
    fn apply(self, intended: u8, levels_max: u8) -> u8 {
        match self {
            CellFault::None => intended,
            CellFault::StuckZero => 0,
            CellFault::StuckOne => levels_max,
            // 1-bit cells have no intermediate sensing margin to drift
            // across; drift only manifests on multi-level alphabets.
            CellFault::DriftUp if levels_max > 1 => intended.saturating_add(1).min(levels_max),
            CellFault::DriftDown if levels_max > 1 => intended.saturating_sub(1),
            CellFault::DriftUp | CellFault::DriftDown => intended,
        }
    }
}

// Distinct stream constants keep the cell-fault and transient hash
// families statistically independent even for identical coordinates.
const STREAM_CELL: u64 = 0x9E37_79B9_7F4A_7C15;
const STREAM_TRANSIENT: u64 = 0xD1B5_4A32_D192_ED03;

/// SplitMix64 finalizer: a high-quality 64-bit mixer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless hash of a 5-coordinate draw site.
fn mix(seed: u64, a: u64, b: u64, c: u64, stream: u64) -> u64 {
    let mut h = splitmix(seed ^ stream);
    h = splitmix(h ^ a.wrapping_mul(0xA076_1D64_78BD_642F));
    h = splitmix(h ^ b.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    h = splitmix(h ^ c.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
    h
}

/// Map a hash to a uniform draw in `[0, 1)` using the top 53 bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Fold a query's raw `f32` bit patterns into one 64-bit identity.
///
/// Both the packed and naive search paths — and the SIMD backend —
/// hash the *same* caller-provided query slice, so transient draws
/// agree across backends by construction.
pub fn query_hash(query: &[f32]) -> u64 {
    let mut h = splitmix(0x517C_C1B7_2722_0A95 ^ query.len() as u64);
    for &q in query {
        h = splitmix(h ^ u64::from(q.to_bits()));
    }
    h
}

/// The materialized fault state of one subarray: a per-physical-cell
/// fault map, the spare-row remap table, and event tallies.
///
/// Generated once per subarray at allocation time from
/// `(seed, subarray_index, geometry)` alone — identical for every
/// backend that allocates the same machine shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SubarrayFaults {
    /// Logical (data) rows — what the subarray exposes to placement.
    data_rows: usize,
    cols: usize,
    /// Per-physical-cell fault state, `(data_rows + spare_rows) × cols`.
    cells: Vec<CellFault>,
    /// Stuck-cell count per physical row.
    stuck_per_row: Vec<u32>,
    /// `effective_phys[logical_row]` — the physical row whose fault
    /// sites apply to that logical row (identity unless remapped).
    effective_phys: Vec<u32>,
    /// Logical rows remapped onto spares.
    rows_remapped: u64,
    /// Transient per-search mismatch probability.
    transient: f64,
    /// Voting factor (`>= 1`).
    vote: u32,
    seed: u64,
    sub_index: u64,
    /// Cells whose programmed value a permanent fault altered.
    fault_cells: u64,
    /// Search-row distances a transient fault perturbed.
    fault_transients: u64,
}

impl SubarrayFaults {
    /// Generate the fault state for subarray `sub_index` with
    /// `data_rows × cols` usable cells (plus the config's spare rows).
    ///
    /// Remapping happens eagerly: fault sites are static, so a logical
    /// row with a stuck cell is known before any write. Spares are
    /// assigned in physical order, skipping spares that have a stuck
    /// cell themselves.
    pub fn generate(cfg: &FaultConfig, sub_index: usize, data_rows: usize, cols: usize) -> Self {
        let m = &cfg.model;
        let spare_rows = cfg.resilience.spare_rows;
        let phys_rows = data_rows + spare_rows;
        let p0 = m.stuck_at_zero.clamp(0.0, 1.0);
        let p1 = m.stuck_at_one.clamp(0.0, 1.0);
        let pd = m.drift.clamp(0.0, 1.0);
        let mut cells = vec![CellFault::None; phys_rows * cols];
        let mut stuck_per_row = vec![0u32; phys_rows];
        for row in 0..phys_rows {
            for col in 0..cols {
                let h = mix(
                    m.seed,
                    sub_index as u64,
                    row as u64,
                    col as u64,
                    STREAM_CELL,
                );
                let u = unit(h);
                let fault = if u < p0 {
                    CellFault::StuckZero
                } else if u < p0 + p1 {
                    CellFault::StuckOne
                } else if u < p0 + p1 + pd {
                    // Reuse an untouched hash bit for the direction.
                    if h & 1 == 0 {
                        CellFault::DriftUp
                    } else {
                        CellFault::DriftDown
                    }
                } else {
                    CellFault::None
                };
                if matches!(fault, CellFault::StuckZero | CellFault::StuckOne) {
                    stuck_per_row[row] += 1;
                }
                cells[row * cols + col] = fault;
            }
        }

        // Remap logical rows with a stuck cell onto stuck-free spares.
        let mut effective_phys: Vec<u32> = (0..data_rows as u32).collect();
        let mut rows_remapped = 0u64;
        let mut next_spare = data_rows;
        for row in 0..data_rows {
            if stuck_per_row[row] == 0 {
                continue;
            }
            while next_spare < phys_rows && stuck_per_row[next_spare] > 0 {
                next_spare += 1;
            }
            if next_spare >= phys_rows {
                break; // spares exhausted
            }
            effective_phys[row] = next_spare as u32;
            next_spare += 1;
            rows_remapped += 1;
        }

        SubarrayFaults {
            data_rows,
            cols,
            cells,
            stuck_per_row,
            effective_phys,
            rows_remapped,
            transient: m.transient.clamp(0.0, 1.0),
            vote: cfg.resilience.vote.max(1) as u32,
            seed: m.seed,
            sub_index: sub_index as u64,
            fault_cells: 0,
            fault_transients: 0,
        }
    }

    /// The permanent fault affecting logical cell `(row, col)`, after
    /// spare-row remapping.
    pub fn cell_fault(&self, row: usize, col: usize) -> CellFault {
        if row >= self.data_rows || col >= self.cols {
            return CellFault::None;
        }
        let phys = self.effective_phys[row] as usize;
        self.cells[phys * self.cols + col]
    }

    /// Apply permanent faults to a quantized level being programmed
    /// into logical cell `(row, col)`. `levels_max` is the top level of
    /// the cell alphabet (`1` for TCAM, `2^bits - 1` for MCAM).
    ///
    /// Returns the level actually stored, tallying a fault event when
    /// it differs from the intent.
    pub fn program_level(&mut self, row: usize, col: usize, intended: u8, levels_max: u8) -> u8 {
        let stored = self.cell_fault(row, col).apply(intended, levels_max);
        self.fault_cells += u64::from(stored != intended);
        stored
    }

    /// [`SubarrayFaults::program_level`] over a whole row: `levels`
    /// holds the intended levels of logical `row`'s columns
    /// `0..levels.len()` and is rewritten in place with the levels
    /// actually stored. One remap lookup per row instead of per cell —
    /// the write hook of devices that program a level plane directly.
    pub fn program_row(&mut self, row: usize, levels: &mut [u8], levels_max: u8) {
        if row >= self.data_rows {
            return;
        }
        let phys = self.effective_phys[row] as usize;
        let sites = &self.cells[phys * self.cols..(phys + 1) * self.cols];
        let mut altered = 0u64;
        for (level, site) in levels.iter_mut().zip(sites) {
            let stored = site.apply(*level, levels_max);
            altered += u64::from(stored != *level);
            *level = stored;
        }
        self.fault_cells += altered;
    }

    /// Whether transient faults can fire at all (lets callers skip
    /// hashing the query when the rate is zero).
    pub fn transient_enabled(&self) -> bool {
        self.transient > 0.0
    }

    /// Whether this search perturbs logical `row`'s distance: a
    /// majority vote over `vote` independent transient draws keyed on
    /// the query's identity. Tallies a fault event when it fires.
    pub fn transient_hit(&mut self, qhash: u64, row: usize) -> bool {
        if self.transient <= 0.0 || row >= self.data_rows {
            return false;
        }
        let phys = u64::from(self.effective_phys[row]);
        let mut hits = 0u32;
        for attempt in 0..self.vote {
            let h = mix(
                self.seed,
                self.sub_index ^ qhash,
                phys,
                u64::from(attempt),
                STREAM_TRANSIENT,
            );
            hits += u32::from(unit(h) < self.transient);
        }
        let hit = hits * 2 > self.vote;
        if hit {
            self.fault_transients += 1;
        }
        hit
    }

    /// Distance perturbation applied to a transiently-hit row: one
    /// spurious mismatch.
    pub const TRANSIENT_PENALTY: f64 = 1.0;

    /// Voting factor (`>= 1`) — the device issues every search this
    /// many times, so dynamic search cost scales by it.
    pub fn vote(&self) -> u32 {
        self.vote
    }

    /// Logical rows remapped onto spare rows.
    pub fn rows_remapped(&self) -> u64 {
        self.rows_remapped
    }

    /// Cumulative count of cells a permanent fault altered at program
    /// time. Monotonic; callers snapshot-and-diff around an operation.
    pub fn fault_cells(&self) -> u64 {
        self.fault_cells
    }

    /// Cumulative count of transiently perturbed search rows.
    pub fn fault_transients(&self) -> u64 {
        self.fault_transients
    }

    /// Stuck-cell count of a *physical* row (for tests and reports).
    pub fn stuck_in_phys_row(&self, phys_row: usize) -> u32 {
        self.stuck_per_row.get(phys_row).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64, seed: u64) -> FaultConfig {
        FaultConfig::with_rate(rate, seed)
    }

    #[test]
    fn zero_rate_generates_no_faults() {
        let f = SubarrayFaults::generate(&cfg(0.0, 7), 3, 16, 16);
        for row in 0..16 {
            for col in 0..16 {
                assert_eq!(f.cell_fault(row, col), CellFault::None);
            }
        }
        assert_eq!(f.rows_remapped(), 0);
        let mut f = f;
        assert!(!f.transient_hit(0xDEAD_BEEF, 3));
        assert_eq!(f.program_level(0, 0, 5, 7), 5);
        assert_eq!(f.fault_cells(), 0);
        assert_eq!(f.fault_transients(), 0);
    }

    #[test]
    fn generation_is_deterministic_in_seed_and_coordinates() {
        let a = SubarrayFaults::generate(&cfg(0.05, 42), 2, 32, 24);
        let b = SubarrayFaults::generate(&cfg(0.05, 42), 2, 32, 24);
        assert_eq!(a, b);
        let c = SubarrayFaults::generate(&cfg(0.05, 43), 2, 32, 24);
        assert_ne!(a, c, "a different seed must move fault sites");
        let d = SubarrayFaults::generate(&cfg(0.05, 42), 3, 32, 24);
        assert_ne!(a, d, "a different subarray must draw its own sites");
    }

    #[test]
    fn fault_rate_lands_near_the_requested_probability() {
        let f = SubarrayFaults::generate(&cfg(0.1, 9), 0, 128, 128);
        let mut faulty = 0usize;
        for row in 0..128 {
            for col in 0..128 {
                faulty += usize::from(f.cell_fault(row, col) != CellFault::None);
            }
        }
        // stuck(0.05+0.05) + drift(0.1) = 0.2 expected across 16384
        // cells; allow a generous tolerance band.
        let observed = faulty as f64 / (128.0 * 128.0);
        assert!(
            (0.15..=0.25).contains(&observed),
            "observed fault density {observed}"
        );
    }

    #[test]
    fn stuck_cells_override_and_drift_respects_the_alphabet() {
        let mut f = SubarrayFaults::generate(&cfg(0.0, 1), 0, 4, 4);
        // Hand-plant faults to exercise program_level directly.
        f.cells[0] = CellFault::StuckZero;
        f.cells[1] = CellFault::StuckOne;
        f.cells[2] = CellFault::DriftUp;
        f.cells[3] = CellFault::DriftDown;
        assert_eq!(f.program_level(0, 0, 3, 7), 0);
        assert_eq!(f.program_level(0, 1, 3, 7), 7);
        assert_eq!(f.program_level(0, 2, 7, 7), 7, "drift clamps at the top");
        assert_eq!(f.program_level(0, 3, 0, 7), 0, "drift clamps at zero");
        assert_eq!(f.program_level(0, 2, 3, 7), 4);
        assert_eq!(f.program_level(0, 3, 3, 7), 2);
        // Binary alphabet: drift is a no-op, stuck still applies.
        assert_eq!(f.program_level(0, 2, 1, 1), 1);
        assert_eq!(f.program_level(0, 1, 0, 1), 1);
        // Tally counted only actual changes: 5 of the 8 calls above
        // (the two clamp cases and the binary drift stored the intent).
        assert_eq!(f.fault_cells(), 5);
    }

    #[test]
    fn program_row_equals_per_cell_program_level() {
        let mut c = cfg(0.3, 17);
        c.resilience.spare_rows = 2;
        let mut by_cell = SubarrayFaults::generate(&c, 4, 8, 12);
        let mut by_row = by_cell.clone();
        for levels_max in [1u8, 7] {
            // Short rows (ragged writes) and a row past the data rows.
            for (row, width) in [(0, 12), (3, 5), (7, 0), (8, 12)] {
                let intended: Vec<u8> = (0..width)
                    .map(|c| (c % 8) as u8 % (levels_max + 1))
                    .collect();
                let want: Vec<u8> = intended
                    .iter()
                    .enumerate()
                    .map(|(col, &l)| by_cell.program_level(row, col, l, levels_max))
                    .collect();
                let mut got = intended;
                by_row.program_row(row, &mut got, levels_max);
                assert_eq!(got, want, "row {row}, top level {levels_max}");
            }
        }
        assert_eq!(by_row, by_cell, "tallies agree too");
        assert!(by_row.fault_cells() > 0);
    }

    #[test]
    fn remapping_moves_stuck_rows_onto_spares() {
        // A modest stuck rate with spares: some data rows remap while
        // the spares themselves stay mostly clean.
        let mut c = cfg(0.04, 11);
        c.resilience.spare_rows = 4;
        let f = SubarrayFaults::generate(&c, 0, 16, 16);
        assert!(f.rows_remapped() > 0, "expected remaps at 2% stuck rate");
        assert!(f.rows_remapped() <= 4);
        // Every remapped row points at a stuck-free spare.
        for row in 0..16 {
            let phys = f.effective_phys[row] as usize;
            if phys != row {
                assert!(phys >= 16, "remap target must be a spare row");
                assert_eq!(f.stuck_in_phys_row(phys), 0, "spare must be clean");
            }
        }
    }

    #[test]
    fn remapped_rows_use_the_spare_rows_fault_sites() {
        let mut c = cfg(0.0, 5);
        c.resilience.spare_rows = 1;
        let mut f = SubarrayFaults::generate(&c, 0, 2, 2);
        // Logical row 0 has a stuck cell; the spare (phys row 2) is
        // clean. Remap by hand-editing the generated state the way a
        // nonzero rate would have.
        f.cells[0] = CellFault::StuckZero;
        f.stuck_per_row[0] = 1;
        f.effective_phys[0] = 2;
        assert_eq!(f.cell_fault(0, 0), CellFault::None, "spare sites apply");
        assert_eq!(f.cell_fault(1, 0), CellFault::None);
    }

    #[test]
    fn transients_depend_on_query_and_are_reproducible() {
        let c = cfg(0.3, 21);
        let mut a = SubarrayFaults::generate(&c, 1, 64, 8);
        let mut b = SubarrayFaults::generate(&c, 1, 64, 8);
        let q1 = query_hash(&[1.0, 0.0, 3.5]);
        let q2 = query_hash(&[1.0, 0.0, 3.25]);
        assert_ne!(q1, q2);
        let hits1: Vec<bool> = (0..64).map(|r| a.transient_hit(q1, r)).collect();
        let hits1b: Vec<bool> = (0..64).map(|r| b.transient_hit(q1, r)).collect();
        assert_eq!(hits1, hits1b, "same query → same transient pattern");
        let hits2: Vec<bool> = (0..64).map(|r| a.transient_hit(q2, r)).collect();
        assert_ne!(hits1, hits2, "different query → different pattern");
        assert!(hits1.iter().any(|&h| h), "30% rate should hit in 64 rows");
        assert_eq!(a.fault_transients(), {
            let h1 = hits1.iter().filter(|&&h| h).count() as u64;
            let h2 = hits2.iter().filter(|&&h| h).count() as u64;
            h1 + h2
        });
    }

    #[test]
    fn voting_reduces_transient_hits() {
        let base = cfg(0.2, 33);
        let mut voted = base.clone();
        voted.resilience.vote = 3;
        let mut plain = SubarrayFaults::generate(&base, 0, 256, 8);
        let mut kmod = SubarrayFaults::generate(&voted, 0, 256, 8);
        let q = query_hash(&[2.0, 4.0]);
        let plain_hits = (0..256).filter(|&r| plain.transient_hit(q, r)).count();
        let kmod_hits = (0..256).filter(|&r| kmod.transient_hit(q, r)).count();
        // P(majority of 3 at p=0.2) ≈ 0.104 < 0.2; with 256 draws the
        // ordering is overwhelmingly likely, and it is deterministic
        // for this fixed seed.
        assert!(
            kmod_hits < plain_hits,
            "voting should suppress transients ({kmod_hits} vs {plain_hits})"
        );
        assert_eq!(kmod.vote(), 3);
    }

    #[test]
    fn query_hash_is_order_and_bit_sensitive() {
        assert_ne!(query_hash(&[1.0, 2.0]), query_hash(&[2.0, 1.0]));
        assert_ne!(query_hash(&[0.0]), query_hash(&[-0.0]));
        assert_ne!(query_hash(&[]), query_hash(&[0.0]));
        assert_eq!(query_hash(&[1.5, 2.5]), query_hash(&[1.5, 2.5]));
    }

    #[test]
    fn with_rate_splits_and_clamps() {
        let m = FaultModel::with_rate(0.1, 3);
        assert_eq!(m.stuck_at_zero, 0.05);
        assert_eq!(m.stuck_at_one, 0.05);
        assert_eq!(m.drift, 0.1);
        assert_eq!(m.transient, 0.1);
        assert!(!m.is_zero());
        assert!(FaultModel::with_rate(0.0, 3).is_zero());
        assert_eq!(FaultModel::with_rate(7.0, 0).transient, 1.0);
        assert!(FaultModel::none(9).is_zero());
    }
}
