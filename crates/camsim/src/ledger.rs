//! The cost ledger: everything the simulator charges, and nothing it
//! stores.
//!
//! Every cost of a run — write, search, read and merge charges, the
//! timing-scope folds, static power, the allocation gauges — is a
//! function of the geometry, the [`TechnologyModel`] and a handful of
//! counts per operation (rows programmed, rows active, plane words
//! streamed, votes), never of cell contents. [`CostLedger`] is that
//! function. [`CamMachine`](crate::CamMachine) embeds one and calls it
//! with the counts it reads off its subarrays; a static evaluator can
//! drive one with counts it derives from a schedule alone
//! (`c4cam_engine::Tape::price`). Both charge through the same code in
//! the same order, so their `f64` folds agree to the bit, and each
//! [`TechnologyModel`] charge function has exactly one call site. The
//! ledger allocates through an [`Allocations`] over the spec's [`Floorplan`],
//! which a walk of a schedule uses on its own: the walk decides which
//! allocations succeed, the charge what they cost.
//!
//! ## Timing scopes
//!
//! The compiler's `cam-map` pass encodes its mapping policy as a loop
//! nest: `scf.parallel` loops over units that operate concurrently and
//! `scf.for` loops over units activated one after another (e.g. the
//! `cam-power` configuration serializes subarrays within an array). The
//! runtime mirrors that structure onto the ledger with
//! [`CostLedger::push_parallel`] / [`CostLedger::push_sequential`] /
//! [`CostLedger::pop_scope`]: latency contributions inside a parallel
//! scope fold as `max`, inside a sequential scope as `sum`. Energy always
//! sums — concurrency changes time, not work.
//!
//! ## One trip, replayed
//!
//! A query trip whose schedule repeats makes the same charges every
//! time. [`CostLedger::record_trip`] / [`CostLedger::finish_trip`]
//! capture one trip's charges as the `f64` additions the ledger made
//! ([`TripCharges`]), and [`CostLedger::replay_trip`] makes them again
//! in the same order, so every fold rounds exactly as it would have.
//! A scope opened and closed inside the trip starts from `0.0` each
//! time, so it is kept as the one value it folded into the scope the
//! trip runs in; a trip that leaves its scopes unbalanced is not
//! replayable.

use crate::machine::{ArrayId, BankId, MatId, SearchSpec, SimError, SubarrayId};
use crate::stats::ExecStats;
use crate::subarray::RowSelection;
use c4cam_arch::tech::{Level, TechnologyModel};
use c4cam_arch::ArchSpec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Sequential,
    Parallel,
}

#[derive(Debug, Clone, Copy)]
struct Scope {
    kind: ScopeKind,
    elapsed_ns: f64,
}

impl Scope {
    /// Fold `ns` of latency into this scope: `sum` or `max` by kind.
    fn fold(&mut self, ns: f64) {
        match self.kind {
            ScopeKind::Sequential => self.elapsed_ns += ns,
            ScopeKind::Parallel => self.elapsed_ns = self.elapsed_ns.max(ns),
        }
    }
}

/// The energy fields charges add to, in [`TripCharges::energy`] order.
#[derive(Debug, Clone, Copy)]
enum Energy {
    Cell,
    Periph,
    Merge,
    Write,
}

/// The charges of one query trip, as [`CostLedger::finish_trip`]
/// recorded them: the operation counts, each energy field's additions in
/// order, and the latency folds into the scope the trip runs in.
#[derive(Debug, Clone, Default)]
pub struct TripCharges {
    /// `search_ops`, `searched_words`, `write_ops`, `read_ops`,
    /// `merge_ops` — integers, so one sum per trip is exact.
    counts: [u64; 5],
    /// Cell, periphery, merge and write energy additions.
    energy: [Vec<f64>; 4],
    /// A charge's latency, or a scope opened and closed in the trip.
    folds: Vec<f64>,
}

/// A trip being recorded.
#[derive(Debug, Clone)]
struct Recording {
    /// The operation counts when the trip began.
    start: [u64; 5],
    trip: TripCharges,
    /// Where in `trip.folds` the latency of each scope the trip opened
    /// and has not yet closed begins.
    open: Vec<usize>,
    /// Cleared by anything a replay would not reproduce.
    replayable: bool,
}

fn counts(s: &ExecStats) -> [u64; 5] {
    [
        s.search_ops,
        s.searched_words,
        s.write_ops,
        s.read_ops,
        s.merge_ops,
    ]
}

impl ExecStats {
    /// Fold a shard's cost delta into an accumulator that represents the
    /// *sequential* composition of shards: operation counters and dynamic
    /// energy add; `latency_ns` is handled by the caller (it must be
    /// charged to a timing scope); static energy and allocation gauges
    /// are derived quantities and are skipped.
    fn add_dynamic(&mut self, delta: &ExecStats) {
        self.search_ops += delta.search_ops;
        self.searched_words += delta.searched_words;
        self.write_ops += delta.write_ops;
        self.read_ops += delta.read_ops;
        self.merge_ops += delta.merge_ops;
        self.fault_cells += delta.fault_cells;
        self.fault_transients += delta.fault_transients;
        self.cell_energy_fj += delta.cell_energy_fj;
        self.periph_energy_fj += delta.periph_energy_fj;
        self.merge_energy_fj += delta.merge_energy_fj;
        self.write_energy_fj += delta.write_energy_fj;
    }
}

/// The part of an architecture a schedule depends on: the subarray
/// geometry and the hierarchy budgets — not the cell width, the
/// technology or the optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Floorplan {
    /// Rows per subarray.
    pub rows: usize,
    /// Columns per subarray.
    pub cols: usize,
    /// Mats one bank holds.
    pub mats_per_bank: usize,
    /// Arrays one mat holds.
    pub arrays_per_mat: usize,
    /// Subarrays one array holds.
    pub subarrays_per_array: usize,
    /// The bank budget; `None` allocates banks on demand.
    pub banks: Option<usize>,
}

impl Floorplan {
    /// The floorplan of `spec`.
    pub fn of(spec: &ArchSpec) -> Floorplan {
        Floorplan {
            rows: spec.rows_per_subarray,
            cols: spec.cols_per_subarray,
            mats_per_bank: spec.mats_per_bank,
            arrays_per_mat: spec.arrays_per_mat,
            subarrays_per_array: spec.subarrays_per_array,
            banks: spec.banks,
        }
    }
}

/// The allocation tree of one accelerator, as child counts against a
/// [`Floorplan`]'s budgets: what [`CostLedger`] allocates through, and
/// all a walk of a schedule needs to know which allocations succeed.
#[derive(Debug, Clone)]
pub struct Allocations {
    plan: Floorplan,
    /// Mats allocated in each bank.
    banks: Vec<usize>,
    /// Arrays allocated in each mat.
    mats: Vec<usize>,
    /// Subarrays allocated in each array.
    arrays: Vec<usize>,
    subarrays: usize,
}

impl Allocations {
    /// Nothing allocated on `plan`.
    pub fn new(plan: Floorplan) -> Allocations {
        Allocations {
            plan,
            banks: Vec::new(),
            mats: Vec::new(),
            arrays: Vec::new(),
            subarrays: 0,
        }
    }

    /// The floorplan allocated against.
    pub fn floorplan(&self) -> &Floorplan {
        &self.plan
    }

    /// Allocate a bank.
    ///
    /// # Errors
    /// Fails if a fixed bank budget is exhausted.
    pub fn bank(&mut self) -> Result<BankId, SimError> {
        if let Some(max) = self.plan.banks {
            if self.banks.len() >= max {
                return Err(SimError::new(format!("bank budget ({max}) exhausted")));
            }
        }
        self.banks.push(0);
        Ok(BankId(self.banks.len() - 1))
    }

    /// Allocate a mat within `bank`.
    ///
    /// # Errors
    /// Fails on an invalid handle or when the bank's mat budget is full.
    pub fn mat(&mut self, bank: BankId) -> Result<MatId, SimError> {
        let held = self
            .banks
            .get_mut(bank.0)
            .ok_or_else(|| SimError::new(format!("invalid bank handle {}", bank.0)))?;
        if *held >= self.plan.mats_per_bank {
            return Err(SimError::new(format!(
                "bank {} already has {} mats",
                bank.0, self.plan.mats_per_bank
            )));
        }
        *held += 1;
        self.mats.push(0);
        Ok(MatId(self.mats.len() - 1))
    }

    /// Allocate an array within `mat`.
    ///
    /// # Errors
    /// Fails on an invalid handle or when the mat's array budget is full.
    pub fn array(&mut self, mat: MatId) -> Result<ArrayId, SimError> {
        let held = self
            .mats
            .get_mut(mat.0)
            .ok_or_else(|| SimError::new(format!("invalid mat handle {}", mat.0)))?;
        if *held >= self.plan.arrays_per_mat {
            return Err(SimError::new(format!(
                "mat {} already has {} arrays",
                mat.0, self.plan.arrays_per_mat
            )));
        }
        *held += 1;
        self.arrays.push(0);
        Ok(ArrayId(self.arrays.len() - 1))
    }

    /// Allocate a subarray within `array`.
    ///
    /// # Errors
    /// Fails on an invalid handle or when the array's subarray budget is
    /// full.
    pub fn subarray(&mut self, array: ArrayId) -> Result<SubarrayId, SimError> {
        let held = self
            .arrays
            .get_mut(array.0)
            .ok_or_else(|| SimError::new(format!("invalid array handle {}", array.0)))?;
        if *held >= self.plan.subarrays_per_array {
            return Err(SimError::new(format!(
                "array {} already has {} subarrays",
                array.0, self.plan.subarrays_per_array
            )));
        }
        *held += 1;
        self.subarrays += 1;
        Ok(SubarrayId(self.subarrays - 1))
    }
}

/// Cost accounting of one simulated accelerator: the allocation tree,
/// the timing-scope stack, the running [`ExecStats`] and the recorded
/// phase snapshots.
#[derive(Debug, Clone)]
pub struct CostLedger {
    tech: TechnologyModel,
    bits_per_cell: u32,
    /// One search cycle's latency: a function of the geometry and the
    /// cell width alone, so worked out once.
    search_ns: f64,
    alloc: Allocations,
    scopes: Vec<Scope>,
    /// The machine adds the fault counters itself: fault sites and
    /// transient hits are device state, not schedule.
    pub(crate) stats: ExecStats,
    phases: Vec<(String, ExecStats)>,
    recording: Option<Box<Recording>>,
}

impl CostLedger {
    /// An empty ledger for the given architecture and technology.
    pub fn new(spec: &ArchSpec, tech: TechnologyModel) -> CostLedger {
        CostLedger {
            search_ns: tech.search_latency_ns(spec.cols_per_subarray, spec.bits_per_cell),
            tech,
            bits_per_cell: spec.bits_per_cell,
            alloc: Allocations::new(Floorplan::of(spec)),
            scopes: vec![Scope {
                kind: ScopeKind::Sequential,
                elapsed_ns: 0.0,
            }],
            stats: ExecStats::default(),
            phases: Vec::new(),
            recording: None,
        }
    }

    /// The technology model in use.
    pub fn tech(&self) -> &TechnologyModel {
        &self.tech
    }

    /// Subarray geometry `(rows, cols)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.alloc.plan.rows, self.alloc.plan.cols)
    }

    /// Bits stored per cell.
    pub fn bits_per_cell(&self) -> u32 {
        self.bits_per_cell
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate a bank ([`Allocations::bank`]).
    ///
    /// # Errors
    /// Fails if a fixed bank budget is exhausted.
    pub fn alloc_bank(&mut self) -> Result<BankId, SimError> {
        self.unreplayable();
        let id = self.alloc.bank()?;
        self.stats.banks_allocated = self.alloc.banks.len();
        Ok(id)
    }

    /// Allocate a mat within `bank` ([`Allocations::mat`]).
    ///
    /// # Errors
    /// Fails on an invalid handle or when the bank's mat budget is full.
    pub fn alloc_mat(&mut self, bank: BankId) -> Result<MatId, SimError> {
        self.unreplayable();
        let id = self.alloc.mat(bank)?;
        self.stats.mats_allocated = self.alloc.mats.len();
        Ok(id)
    }

    /// Allocate an array within `mat` ([`Allocations::array`]).
    ///
    /// # Errors
    /// Fails on an invalid handle or when the mat's array budget is full.
    pub fn alloc_array(&mut self, mat: MatId) -> Result<ArrayId, SimError> {
        self.unreplayable();
        let id = self.alloc.array(mat)?;
        self.stats.arrays_allocated = self.alloc.arrays.len();
        Ok(id)
    }

    /// Allocate a subarray within `array` ([`Allocations::subarray`]).
    ///
    /// # Errors
    /// Fails on an invalid handle or when the array's subarray budget is
    /// full.
    pub fn alloc_subarray(&mut self, array: ArrayId) -> Result<SubarrayId, SimError> {
        self.unreplayable();
        let id = self.alloc.subarray(array)?;
        self.stats.subarrays_allocated = self.alloc.subarrays;
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Timing scopes
    // ------------------------------------------------------------------

    /// Open a parallel scope: nested latency folds as `max`.
    pub fn push_parallel(&mut self) {
        self.push(ScopeKind::Parallel);
    }

    /// Open a sequential scope: nested latency folds as `sum`.
    pub fn push_sequential(&mut self) {
        self.push(ScopeKind::Sequential);
    }

    fn push(&mut self, kind: ScopeKind) {
        self.scopes.push(Scope {
            kind,
            elapsed_ns: 0.0,
        });
        if let Some(rec) = &mut self.recording {
            rec.open.push(rec.trip.folds.len());
        }
    }

    /// Close the innermost scope, folding its elapsed time into the
    /// parent.
    ///
    /// # Panics
    /// Panics when called with only the root scope open (scope
    /// mismatch — a runtime bug, not a data error).
    pub fn pop_scope(&mut self) {
        assert!(self.scopes.len() > 1, "pop_scope on root scope");
        let child = self.scopes.pop().unwrap();
        self.scopes.last_mut().unwrap().fold(child.elapsed_ns);
        if let Some(rec) = &mut self.recording {
            match rec.open.pop() {
                // Opened in this trip: from 0.0, so the same value on
                // every trip — one fold into the parent.
                Some(at) => {
                    rec.trip.folds.truncate(at);
                    rec.trip.folds.push(child.elapsed_ns);
                }
                None => rec.replayable = false,
            }
        }
    }

    /// Depth of the scope stack (root = 1).
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    fn add_latency(&mut self, ns: f64) {
        self.scopes.last_mut().unwrap().fold(ns);
        if let Some(rec) = &mut self.recording {
            rec.trip.folds.push(ns);
        }
    }

    fn add_energy(&mut self, field: Energy, fj: f64) {
        let total = match field {
            Energy::Cell => &mut self.stats.cell_energy_fj,
            Energy::Periph => &mut self.stats.periph_energy_fj,
            Energy::Merge => &mut self.stats.merge_energy_fj,
            Energy::Write => &mut self.stats.write_energy_fj,
        };
        *total += fj;
        if let Some(rec) = &mut self.recording {
            rec.trip.energy[field as usize].push(fj);
        }
    }

    // ------------------------------------------------------------------
    // Trip recording
    // ------------------------------------------------------------------

    /// Start recording the charges of one query trip (see the module
    /// docs); [`CostLedger::finish_trip`] ends it.
    pub fn record_trip(&mut self) {
        self.recording = Some(Box::new(Recording {
            start: counts(&self.stats),
            trip: TripCharges::default(),
            open: Vec::new(),
            replayable: true,
        }));
    }

    /// Stop recording: the trip's charges, or `None` when nothing was
    /// being recorded or the trip did what a replay cannot repeat — an
    /// allocation, a phase marker, a folded delta, a reset, or a scope
    /// it closed without opening or opened without closing.
    pub fn finish_trip(&mut self) -> Option<TripCharges> {
        let rec = self.recording.take();
        let rec = rec.filter(|rec| rec.replayable && rec.open.is_empty())?;
        let mut trip = rec.trip;
        let now = counts(&self.stats);
        for ((n, now), start) in trip.counts.iter_mut().zip(now).zip(rec.start) {
            *n = now - start;
        }
        Some(trip)
    }

    /// Make a recorded trip's charges again, each energy field's and the
    /// latency folds in the order they were first made.
    pub fn replay_trip(&mut self, trip: &TripCharges) {
        let s = &mut self.stats;
        for (total, n) in [
            &mut s.search_ops,
            &mut s.searched_words,
            &mut s.write_ops,
            &mut s.read_ops,
            &mut s.merge_ops,
        ]
        .into_iter()
        .zip(trip.counts)
        {
            *total += n;
        }
        let [cell, periph, merge, write] = &trip.energy;
        for (total, adds) in [
            (&mut s.cell_energy_fj, cell),
            (&mut s.periph_energy_fj, periph),
            (&mut s.merge_energy_fj, merge),
            (&mut s.write_energy_fj, write),
        ] {
            for &fj in adds {
                *total += fj;
            }
        }
        let scope = self.scopes.last_mut().unwrap();
        for &ns in &trip.folds {
            scope.fold(ns);
        }
    }

    fn unreplayable(&mut self) {
        if let Some(rec) = &mut self.recording {
            rec.replayable = false;
        }
    }

    /// Latency observed so far, folding any open scopes (non-destructive
    /// snapshot).
    pub fn current_latency_ns(&self) -> f64 {
        let mut acc = 0.0;
        for scope in self.scopes.iter().rev() {
            match scope.kind {
                ScopeKind::Sequential => acc += scope.elapsed_ns,
                ScopeKind::Parallel => acc = scope.elapsed_ns.max(acc),
            }
        }
        acc
    }

    // ------------------------------------------------------------------
    // Charges
    // ------------------------------------------------------------------

    /// Charge one write of `rows` rows into a subarray
    /// (`cam.write_value`).
    #[inline]
    pub fn write(&mut self, rows: usize) {
        self.stats.write_ops += 1;
        let energy = self
            .tech
            .write_energy_fj(rows, self.alloc.plan.cols, self.bits_per_cell);
        self.add_energy(Energy::Write, energy);
        let lat = self.tech.write_latency_ns(rows);
        self.add_latency(lat);
    }

    /// Charge one subarray search (`cam.search`) that sensed
    /// `active_rows` rows and streamed `words` plane words.
    ///
    /// k-modular voting (`votes`) replicates the search across k module
    /// copies with a majority voter: dynamic search work scales by k
    /// while latency stays that of one (parallel) search.
    #[inline]
    pub fn search(&mut self, active_rows: usize, words: u64, spec: &SearchSpec, votes: u64) {
        let Floorplan { rows, cols, .. } = self.alloc.plan;
        let bits = self.bits_per_cell;
        self.stats.search_ops += votes;
        self.stats.searched_words += words * votes;
        let cell = self.tech.search_cell_energy_fj(active_rows, cols, bits) * votes as f64;
        self.add_energy(Energy::Cell, cell);
        let periph =
            self.tech
                .periph_energy_fj(active_rows.max(1), cols, bits, spec.broadcast_share)
                * votes as f64;
        self.add_energy(Energy::Periph, periph);
        let mut lat = self.search_ns + self.tech.sense_latency_ns(spec.kind, rows, cols);
        if spec.selection != RowSelection::All {
            lat += self.tech.selective_cycle_ns;
        }
        self.add_latency(lat);
    }

    /// Charge one result read-out (`cam.read`).
    #[inline]
    pub fn read(&mut self) {
        self.stats.read_ops += 1;
    }

    /// Charge one partial-result merge at `level` over `elems` elements
    /// (`cam.merge_partial_subarray` and the cim-level merges).
    pub fn merge(&mut self, level: Level, elems: usize) {
        self.stats.merge_ops += 1;
        let energy = self.tech.merge_energy_fj(elems);
        self.add_energy(Energy::Merge, energy);
        let lat = self.tech.merge_latency_ns(level);
        self.add_latency(lat);
    }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    /// Snapshot of the statistics, with latency folded from any open
    /// scopes and static (leakage) energy derived from the provisioned
    /// hardware and elapsed time.
    pub fn stats(&self) -> ExecStats {
        let mut s = self.stats.clone();
        s.latency_ns = self.current_latency_ns();
        s.static_energy_fj = self
            .tech
            .static_power_uw(s.banks_allocated, s.subarrays_allocated)
            * s.latency_ns;
        s
    }

    /// Fold the cost delta of work performed on a forked ledger back
    /// into this one (sequential composition).
    ///
    /// Operation counters and dynamic energy add; `delta.latency_ns` is
    /// charged to the *current timing scope* so it folds like any other
    /// latency contribution. Static energy and allocation gauges are
    /// skipped: static energy is re-derived from total latency at the
    /// next [`CostLedger::stats`] snapshot, and forks share this
    /// ledger's allocations.
    pub fn absorb_delta(&mut self, delta: &ExecStats) {
        self.unreplayable();
        self.stats.add_dynamic(delta);
        self.add_latency(delta.latency_ns);
    }

    /// Reset cost counters (keep allocations) — used by harnesses to
    /// exclude one-time setup (data loading) from per-query
    /// measurements.
    pub fn reset_stats(&mut self) {
        self.unreplayable();
        self.stats = ExecStats {
            banks_allocated: self.stats.banks_allocated,
            mats_allocated: self.stats.mats_allocated,
            arrays_allocated: self.stats.arrays_allocated,
            subarrays_allocated: self.stats.subarrays_allocated,
            // Alloc-time gauge, like the allocation counts.
            rows_remapped: self.stats.rows_remapped,
            ..ExecStats::default()
        };
        for s in self.scopes.iter_mut() {
            s.elapsed_ns = 0.0;
        }
        self.phases.clear();
    }

    /// Record a named snapshot of the cumulative statistics (used by the
    /// generated code's `cam.phase_marker` to separate the one-time
    /// setup/program phase from the per-query phase).
    pub fn mark_phase(&mut self, name: &str) {
        self.unreplayable();
        let snapshot = self.stats();
        self.phases.push((name.to_string(), snapshot));
    }

    /// All recorded phase snapshots, in order.
    pub fn phases(&self) -> &[(String, ExecStats)] {
        &self.phases
    }

    /// The snapshot recorded under `name`, if any.
    pub fn phase(&self, name: &str) -> Option<&ExecStats> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_arch::{MatchKind, Metric};

    fn ledger() -> CostLedger {
        CostLedger::new(&ArchSpec::default(), TechnologyModel::fefet_45nm())
    }

    #[test]
    fn allocation_respects_hierarchy_budgets() {
        let spec = ArchSpec::builder()
            .hierarchy(1, 1, 2)
            .banks(1)
            .build()
            .unwrap();
        let mut l = CostLedger::new(&spec, TechnologyModel::fefet_45nm());
        let bank = l.alloc_bank().unwrap();
        assert!(l.alloc_bank().is_err(), "bank budget is 1");
        let mat = l.alloc_mat(bank).unwrap();
        assert!(l.alloc_mat(bank).is_err(), "mats/bank is 1");
        let array = l.alloc_array(mat).unwrap();
        assert!(l.alloc_array(mat).is_err(), "arrays/mat is 1");
        assert_eq!(l.alloc_subarray(array).unwrap(), SubarrayId(0));
        assert_eq!(l.alloc_subarray(array).unwrap(), SubarrayId(1));
        assert!(l.alloc_subarray(array).is_err(), "subarrays/array is 2");
        let stats = l.stats();
        assert_eq!(stats.banks_allocated, 1);
        assert_eq!(stats.subarrays_allocated, 2);
        assert!(l.alloc_mat(BankId(9)).is_err());
        assert!(l.alloc_array(MatId(9)).is_err());
        assert!(l.alloc_subarray(ArrayId(9)).is_err());
    }

    #[test]
    fn nested_scopes_fold_correctly() {
        let mut l = ledger();
        // outer sequential { parallel { seq(3) ; seq(5) } ; 2 } = 5 + 2
        l.push_parallel();
        l.push_sequential();
        l.add_latency(3.0);
        l.pop_scope();
        l.push_sequential();
        l.add_latency(5.0);
        l.pop_scope();
        l.pop_scope();
        l.add_latency(2.0);
        assert!((l.current_latency_ns() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn current_latency_snapshots_open_scopes() {
        let mut l = ledger();
        l.add_latency(1.0);
        l.push_parallel();
        l.push_sequential();
        l.add_latency(4.0);
        // open scopes: root-seq(1.0) > par(0) > seq(4.0) → 1 + max(4) = 5
        assert!((l.current_latency_ns() - 5.0).abs() < 1e-12);
        assert_eq!(l.scope_depth(), 3);
    }

    #[test]
    fn merge_charges_level_latency() {
        let mut l = ledger();
        l.merge(Level::Array, 10);
        l.merge(Level::Bank, 10);
        let s = l.stats();
        assert_eq!(s.merge_ops, 2);
        let expected =
            l.tech().merge_latency_ns(Level::Array) + l.tech().merge_latency_ns(Level::Bank);
        assert!((s.latency_ns - expected).abs() < 1e-12);
    }

    #[test]
    fn charges_are_a_function_of_counts_and_votes() {
        let spec = SearchSpec::new(MatchKind::Best, Metric::Hamming);
        let charge = |active: usize, words: u64, votes: u64| {
            let mut l = ledger();
            l.search(active, words, &spec, votes);
            l.stats()
        };
        let (one, three) = (charge(8, 16, 1), charge(8, 16, 3));
        assert_eq!(three.search_ops, 3);
        assert_eq!(three.searched_words, 48);
        assert!(three.cell_energy_fj > 2.9 * one.cell_energy_fj);
        assert_eq!(three.latency_ns.to_bits(), one.latency_ns.to_bits());
        // An empty window still pays one row of periphery.
        assert_eq!(
            charge(0, 0, 1).periph_energy_fj.to_bits(),
            charge(1, 0, 1).periph_energy_fj.to_bits()
        );
        let selective = spec.with_selection(RowSelection::Window { start: 0, len: 8 });
        let mut l = ledger();
        l.search(8, 16, &selective, 1);
        assert!(
            l.stats().latency_ns > one.latency_ns,
            "selective adds a cycle"
        );
    }

    /// A trip replayed folds exactly as walking it again — its scopes
    /// nested in parallel and sequential ones, and the trip itself run
    /// inside a parallel scope.
    #[test]
    fn a_replayed_trip_folds_as_the_trip_did() {
        let spec = SearchSpec::new(MatchKind::Best, Metric::Hamming);
        let trip = |l: &mut CostLedger| {
            l.push_parallel();
            for active in [3, 5] {
                l.push_sequential();
                l.search(active, 2, &spec, 1);
                l.merge(Level::Array, 3);
                l.pop_scope();
            }
            l.pop_scope();
            l.merge(Level::Bank, 4);
            l.write(2);
            l.read();
        };
        let mut walked = ledger();
        walked.merge(Level::Mat, 2);
        walked.push_parallel();
        let mut replayed = walked.clone();
        for _ in 0..7 {
            trip(&mut walked);
        }
        replayed.record_trip();
        trip(&mut replayed);
        let charges = replayed.finish_trip().expect("a replayable trip");
        for _ in 1..7 {
            replayed.replay_trip(&charges);
        }
        for l in [&mut walked, &mut replayed] {
            l.pop_scope();
        }
        let bits = |s: ExecStats| (format!("{s:?}"), s.latency_ns.to_bits());
        assert_eq!(bits(replayed.stats()), bits(walked.stats()));
        assert_eq!(walked.stats().search_ops, 14);
    }

    #[test]
    fn a_trip_a_replay_cannot_repeat_is_not_recorded() {
        let mut l = ledger();
        l.record_trip();
        l.merge(Level::Bank, 4);
        assert!(l.finish_trip().is_some());
        assert!(l.finish_trip().is_none(), "nothing is being recorded");
        let unbalanced: [fn(&mut CostLedger); 4] = [
            |l| l.mark_phase("mid-trip"),
            |l| drop(l.alloc_bank()),
            |l| l.push_sequential(),
            |l| l.pop_scope(),
        ];
        for act in unbalanced {
            l.push_parallel();
            l.record_trip();
            act(&mut l);
            assert!(l.finish_trip().is_none());
        }
    }

    #[test]
    fn reset_stats_preserves_allocations_and_clears_phases() {
        let mut l = ledger();
        let bank = l.alloc_bank().unwrap();
        l.alloc_mat(bank).unwrap();
        l.merge(Level::Bank, 4);
        l.mark_phase("setup-complete");
        assert_eq!(l.phase("setup-complete").unwrap().merge_ops, 1);
        l.reset_stats();
        let s = l.stats();
        assert_eq!(s.merge_ops, 0);
        assert_eq!(s.latency_ns, 0.0);
        assert_eq!((s.banks_allocated, s.mats_allocated), (1, 1));
        assert!(l.phases().is_empty());
    }
}
