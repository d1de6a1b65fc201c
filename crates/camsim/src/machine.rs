//! The hierarchical CAM machine: the subarrays' contents, functional
//! dispatch to them, and an embedded [`CostLedger`] that every
//! operation charges with the counts read off the subarray it touched
//! (allocation bookkeeping, timing scopes and statistics live there).
//! A [`CamMachine::functional`] machine keeps only the allocation
//! bookkeeping: its runs are priced from their schedule instead.

use crate::ledger::CostLedger;
use crate::stats::ExecStats;
use crate::subarray::{
    KernelTier, MergeInto, QueryWindows, RowSelection, SearchResult, SearchScratch, Subarray,
};
use c4cam_arch::tech::{Level, TechnologyModel};
use c4cam_arch::{ArchSpec, MatchKind, Metric};
use c4cam_faults::{FaultConfig, SubarrayFaults};
use std::error::Error;
use std::fmt;

/// Which search kernel the machine drives.
///
/// [`SearchPath::Packed`] (the default) searches over the subarrays'
/// bit/level match planes; [`SearchPath::Naive`] decodes each row back
/// into `CamCell`s and walks them one cell at a time — the pre-packing
/// implementation, retained as a differential oracle and benchmark
/// baseline. Both produce
/// bit-identical results and statistics (except
/// [`ExecStats::searched_words`], which counts the work the selected
/// kernel actually performs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchPath {
    /// Packed match-plane kernels (default).
    #[default]
    Packed,
    /// Per-cell naive walk (differential oracle / benchmark baseline).
    Naive,
}

/// Handle to an allocated bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankId(pub usize);

/// Handle to an allocated mat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatId(pub usize);

/// Handle to an allocated array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub usize);

/// Handle to an allocated subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubarrayId(pub usize);

/// Simulator error (bad handle, capacity exceeded, functional misuse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Description of the failure.
    pub message: String,
}

impl SimError {
    /// Build an error from any displayable message.
    pub fn new(message: impl Into<String>) -> SimError {
        SimError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.message)
    }
}

impl Error for SimError {}

fn invalid_handle(id: SubarrayId) -> SimError {
    SimError::new(format!("invalid subarray handle {}", id.0))
}

/// Parameters of one search operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSpec {
    /// Match scheme (exact / best / threshold).
    pub kind: MatchKind,
    /// Distance metric.
    pub metric: Metric,
    /// Row participation (selective precharge).
    pub selection: RowSelection,
    /// Distance threshold for [`MatchKind::Threshold`].
    pub threshold: f64,
    /// Fraction of the query-broadcast periphery energy this search
    /// pays (selective-search batch cycles share one broadcast).
    pub broadcast_share: f64,
}

impl SearchSpec {
    /// Search over all rows with the given scheme and metric.
    pub fn new(kind: MatchKind, metric: Metric) -> SearchSpec {
        SearchSpec {
            kind,
            metric,
            selection: RowSelection::All,
            threshold: 0.0,
            broadcast_share: 1.0,
        }
    }

    /// Restrict to a row window (selective search).
    pub fn with_selection(mut self, selection: RowSelection) -> SearchSpec {
        self.selection = selection;
        self
    }

    /// Set the threshold-match radius.
    pub fn with_threshold(mut self, threshold: f64) -> SearchSpec {
        self.threshold = threshold;
        self
    }

    /// Set the broadcast-share fraction (see [`SearchSpec::broadcast_share`]).
    pub fn with_broadcast_share(mut self, share: f64) -> SearchSpec {
        self.broadcast_share = share.clamp(0.0, 1.0);
        self
    }
}

/// The simulated CAM accelerator.
///
/// `Clone` duplicates the full machine state — allocations, programmed
/// subarray contents (the match planes and per-row flags: see
/// [`CamMachine::heap_bytes`]), scope stack, and statistics. The tape
/// engine's
/// batched executor clones a machine per worker shard after the setup
/// phase and runs independent query iterations on each clone. A charging
/// machine folds the shards' cost deltas back with
/// [`CamMachine::absorb_delta`] — equal to a sequential run up to float
/// summation order; a functional machine has no costs to fold.
#[derive(Debug, Clone)]
pub struct CamMachine {
    ledger: CostLedger,
    /// Whether operations charge the ledger (`false`: a
    /// [`CamMachine::functional`] machine).
    charging: bool,
    wta_window: Option<u32>,
    search_path: SearchPath,
    scratch: SearchScratch,
    subs: Vec<Subarray>,
    /// Fault-injection configuration; installed on every subarray at
    /// allocation time (None = ideal device).
    faults: Option<FaultConfig>,
}

impl CamMachine {
    /// Build a machine for the given architecture with the default
    /// technology model.
    pub fn new(spec: &ArchSpec) -> CamMachine {
        CamMachine::with_tech(spec, TechnologyModel::fefet_45nm())
    }

    /// Build a machine with an explicit technology model.
    pub fn with_tech(spec: &ArchSpec, tech: TechnologyModel) -> CamMachine {
        CamMachine {
            ledger: CostLedger::new(spec, tech),
            charging: true,
            wta_window: None,
            search_path: SearchPath::default(),
            scratch: SearchScratch::default(),
            subs: Vec::new(),
            faults: None,
        }
    }

    /// A machine that computes matches and charges nothing, for a run
    /// whose statistics come from its schedule (`Tape::price`).
    /// Allocation still checks every hierarchy budget; searches, writes,
    /// reads, merges, timing scopes and phase markers cost nothing, so
    /// [`CamMachine::stats`] holds the allocation gauges alone and
    /// [`CamMachine::phases`] stays empty.
    pub fn functional(spec: &ArchSpec) -> CamMachine {
        CamMachine {
            charging: false,
            ..CamMachine::new(spec)
        }
    }

    /// Whether operations charge this machine's ledger (`false` for a
    /// [`CamMachine::functional`] machine).
    pub fn charges(&self) -> bool {
        self.charging
    }

    /// Install (or clear) a fault-injection configuration.
    ///
    /// The per-subarray fault state is generated deterministically from
    /// `(seed, subarray index, geometry)` — installation order and
    /// thread count cannot move a single fault site. Already-allocated
    /// subarrays are re-seeded immediately; future allocations pick the
    /// configuration up automatically.
    pub fn set_faults(&mut self, faults: Option<FaultConfig>) {
        self.faults = faults;
        let (rows, cols) = self.ledger.geometry();
        self.ledger.stats.rows_remapped = 0;
        for (i, sub) in self.subs.iter_mut().enumerate() {
            let state = self
                .faults
                .as_ref()
                .map(|cfg| Box::new(SubarrayFaults::generate(cfg, i, rows, cols)));
            self.ledger.stats.rows_remapped += state.as_ref().map_or(0, |f| f.rows_remapped());
            sub.set_faults(state);
        }
    }

    /// The installed fault configuration, if any.
    pub fn faults(&self) -> Option<&FaultConfig> {
        self.faults.as_ref()
    }

    /// Model a bounded winner-take-all sensing circuit: best-match
    /// distances saturate at `window` mismatches (paper \[19\]).
    pub fn set_wta_window(&mut self, window: Option<u32>) {
        self.wta_window = window;
    }

    /// Select the search kernel (packed match planes by default; the
    /// naive per-cell walk for differential testing and baselining).
    pub fn set_search_path(&mut self, path: SearchPath) {
        self.search_path = path;
    }

    /// The search kernel in use.
    pub fn search_path(&self) -> SearchPath {
        self.search_path
    }

    /// Force a SIMD kernel tier for this machine's packed searches
    /// (`None` restores the process default — the `C4CAM_KERNEL_TIER`
    /// override, else the detected best).
    ///
    /// # Errors
    /// Fails when the host does not support the requested tier.
    pub fn set_kernel_tier(&mut self, tier: Option<KernelTier>) -> Result<(), SimError> {
        self.scratch.set_kernel_tier(tier).map_err(SimError::new)
    }

    /// The forced kernel tier, if any.
    pub fn kernel_tier(&self) -> Option<KernelTier> {
        self.scratch.kernel_tier()
    }

    /// Subarray geometry `(rows, cols)` of this machine.
    pub fn geometry(&self) -> (usize, usize) {
        self.ledger.geometry()
    }

    /// Bytes of heap the allocated subarrays own for their contents
    /// ([`Subarray::heap_bytes`], summed): per subarray row, 1 B per
    /// cell each of level and care plane, 16 B per 64 columns of bit
    /// planes (together 2.25 B per cell when the width is a multiple of
    /// 64) and 2 B of flags (valid, kind); plus 12 B per cell of any row
    /// that needs the side table. A count that repeats exactly for the
    /// same allocation and write sequence.
    pub fn heap_bytes(&self) -> usize {
        self.subs.iter().map(Subarray::heap_bytes).sum()
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate a bank.
    ///
    /// # Errors
    /// Fails if a fixed bank budget is exhausted.
    pub fn alloc_bank(&mut self) -> Result<BankId, SimError> {
        self.ledger.alloc_bank()
    }

    /// Allocate a mat within `bank`.
    ///
    /// # Errors
    /// Fails on an invalid handle or when the bank's mat budget is full.
    pub fn alloc_mat(&mut self, bank: BankId) -> Result<MatId, SimError> {
        self.ledger.alloc_mat(bank)
    }

    /// Allocate an array within `mat`.
    ///
    /// # Errors
    /// Fails on an invalid handle or when the mat's array budget is full.
    pub fn alloc_array(&mut self, mat: MatId) -> Result<ArrayId, SimError> {
        self.ledger.alloc_array(mat)
    }

    /// Allocate a subarray within `array`.
    ///
    /// # Errors
    /// Fails on an invalid handle or when the array's subarray budget is
    /// full.
    pub fn alloc_subarray(&mut self, array: ArrayId) -> Result<SubarrayId, SimError> {
        let id = self.ledger.alloc_subarray(array)?;
        let (rows, cols) = self.ledger.geometry();
        let mut sub = Subarray::new(rows, cols);
        if let Some(cfg) = &self.faults {
            let state = SubarrayFaults::generate(cfg, id.0, rows, cols);
            self.ledger.stats.rows_remapped += state.rows_remapped();
            sub.set_faults(Some(Box::new(state)));
        }
        self.subs.push(sub);
        Ok(id)
    }

    /// Allocate one full chain bank→mat→array→subarray (convenience for
    /// tests and simple kernels).
    ///
    /// # Errors
    /// Propagates any allocation failure.
    pub fn alloc_chain(&mut self) -> Result<SubarrayId, SimError> {
        let bank = self.alloc_bank()?;
        let mat = self.alloc_mat(bank)?;
        let array = self.alloc_array(mat)?;
        self.alloc_subarray(array)
    }

    fn sub_mut(&mut self, id: SubarrayId) -> Result<&mut Subarray, SimError> {
        self.subs.get_mut(id.0).ok_or_else(|| invalid_handle(id))
    }

    // ------------------------------------------------------------------
    // Timing scopes (see [`CostLedger`])
    // ------------------------------------------------------------------

    /// Open a parallel scope: nested latency folds as `max`.
    pub fn push_parallel(&mut self) {
        if self.charging {
            self.ledger.push_parallel();
        }
    }

    /// Open a sequential scope: nested latency folds as `sum`.
    pub fn push_sequential(&mut self) {
        if self.charging {
            self.ledger.push_sequential();
        }
    }

    /// Close the innermost scope, folding its elapsed time into the
    /// parent.
    ///
    /// # Panics
    /// Panics when a charging machine has only the root scope open
    /// (scope mismatch — a runtime bug, not a data error).
    pub fn pop_scope(&mut self) {
        if self.charging {
            self.ledger.pop_scope();
        }
    }

    /// Depth of the scope stack (root = 1).
    pub fn scope_depth(&self) -> usize {
        self.ledger.scope_depth()
    }

    /// Latency observed so far, folding any open scopes (non-destructive
    /// snapshot).
    pub fn current_latency_ns(&self) -> f64 {
        self.ledger.current_latency_ns()
    }

    // ------------------------------------------------------------------
    // Device operations
    // ------------------------------------------------------------------

    /// Program `data` rows starting at `row_offset` (`cam.write_value`).
    ///
    /// # Errors
    /// Fails on invalid handles or geometry violations.
    pub fn write_rows(
        &mut self,
        id: SubarrayId,
        row_offset: usize,
        data: &[Vec<f32>],
    ) -> Result<(), SimError> {
        self.write_row_views(id, row_offset, data)
    }

    /// [`CamMachine::write_rows`] from rows of any borrowed form, such
    /// as slices of a tensor's storage.
    ///
    /// # Errors
    /// As [`CamMachine::write_rows`].
    pub fn write_row_views<R: AsRef<[f32]>>(
        &mut self,
        id: SubarrayId,
        row_offset: usize,
        data: &[R],
    ) -> Result<(), SimError> {
        let bits = self.ledger.bits_per_cell();
        let sub = self.sub_mut(id)?;
        let faults_before = sub.faults().map_or(0, |f| f.fault_cells());
        sub.write_row_views(row_offset, data, bits)
            .map_err(SimError::new)?;
        let faults_after = sub.faults().map_or(0, |f| f.fault_cells());
        if self.charging {
            self.ledger.stats.fault_cells += faults_after - faults_before;
            self.ledger.write(data.len());
        }
        Ok(())
    }

    /// Program raw cells (wildcard patterns) starting at `row_offset`.
    ///
    /// # Errors
    /// Fails on invalid handles or geometry violations.
    pub fn write_cells(
        &mut self,
        id: SubarrayId,
        row_offset: usize,
        data: &[Vec<crate::cell::CamCell>],
    ) -> Result<(), SimError> {
        self.sub_mut(id)?
            .write_cells(row_offset, data)
            .map_err(SimError::new)?;
        if self.charging {
            self.ledger.write(data.len());
        }
        Ok(())
    }

    /// Search one subarray (`cam.search`) and return a borrowed view of
    /// the functional result (no per-search allocation; the result
    /// buffers live in the subarray and are reused). A charging machine
    /// charges the costs to the current timing scope.
    ///
    /// # Errors
    /// Fails on invalid handles or if the query exceeds the geometry.
    pub fn search(
        &mut self,
        id: SubarrayId,
        query: &[f32],
        spec: SearchSpec,
    ) -> Result<&SearchResult, SimError> {
        let wta = self.wta_window;
        let path = self.search_path;
        let sub = self.subs.get_mut(id.0).ok_or_else(|| invalid_handle(id))?;
        let transients_before = sub.faults().map_or(0, |f| f.fault_transients());
        match path {
            SearchPath::Packed => sub
                .search(
                    query,
                    spec.kind,
                    spec.metric,
                    spec.selection,
                    spec.threshold,
                    wta,
                    &mut self.scratch,
                )
                .map_err(SimError::new)?,
            SearchPath::Naive => sub
                .search_naive(
                    query,
                    spec.kind,
                    spec.metric,
                    spec.selection,
                    spec.threshold,
                    wta,
                )
                .map_err(SimError::new)?,
        };
        let sub = &self.subs[id.0];
        if self.charging {
            let active_rows = sub.last_result().map_or(0, |r| r.rows.len());
            let transients_after = sub.faults().map_or(0, |f| f.fault_transients());
            let votes = sub.faults().map_or(1, |f| u64::from(f.vote()));
            self.ledger.stats.fault_transients += transients_after - transients_before;
            self.ledger
                .search(active_rows, sub.last_searched_words(), &spec, votes);
        }
        Ok(sub.last_result().expect("search stored a result"))
    }

    /// Search subarray `id` once per query row of `rows` and add each
    /// query's distances straight into its accumulator row
    /// ([`Subarray::search_merge_block`]): `cam.search`, `cam.read` and
    /// `cam.merge_partial_subarray` for a block of queries in one call.
    ///
    /// Only a functional machine on the packed path serves a block. A
    /// charging machine's `f64` cost totals depend on the order its
    /// searches are charged in, so its searches go one at a time. Returns
    /// `false`, having written nothing, when the block is not served
    /// here; the caller then takes the per-query calls, which report
    /// any failure.
    pub fn search_merge_block(
        &mut self,
        id: SubarrayId,
        spec: SearchSpec,
        queries: &QueryWindows,
        rows: &[usize],
        into: MergeInto,
    ) -> bool {
        if self.charging || self.search_path != SearchPath::Packed {
            return false;
        }
        let Some(sub) = self.subs.get_mut(id.0) else {
            return false;
        };
        sub.search_merge_block(
            queries,
            rows,
            spec.metric,
            spec.selection,
            self.wta_window,
            into,
            &mut self.scratch,
        )
    }

    /// Read back the latest search result (`cam.read`) as a borrowed
    /// view — no per-read clone of the result buffers.
    ///
    /// # Errors
    /// Fails if no search was performed on this subarray yet.
    pub fn read(&mut self, id: SubarrayId) -> Result<&SearchResult, SimError> {
        let result = self.subs.get(id.0).ok_or_else(|| invalid_handle(id))?;
        let result = result
            .last_result()
            .ok_or_else(|| SimError::new("read before any search on this subarray"))?;
        if self.charging {
            self.ledger.read();
        }
        Ok(result)
    }

    /// Charge one partial-result merge at `level` over `elems` elements
    /// (`cam.merge_partial_subarray` and the cim-level merges).
    pub fn merge(&mut self, level: Level, elems: usize) {
        if self.charging {
            self.ledger.merge(level, elems);
        }
    }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    /// Snapshot of the statistics, with latency folded from any open
    /// scopes and static (leakage) energy derived from the provisioned
    /// hardware and elapsed time.
    pub fn stats(&self) -> ExecStats {
        self.ledger.stats()
    }

    /// Fold the cost delta of work performed on a forked machine back
    /// into this one (sequential composition; see
    /// [`CostLedger::absorb_delta`]).
    ///
    /// The intended fork protocol is `clone()` + [`CamMachine::reset_stats`]
    /// on the clone, so that the clone's final `stats()` *is* the delta.
    pub fn absorb_delta(&mut self, delta: &ExecStats) {
        self.ledger.absorb_delta(delta);
    }

    /// Reset cost counters (keep contents and allocations) — used by
    /// harnesses to exclude one-time setup (data loading) from per-query
    /// measurements.
    pub fn reset_stats(&mut self) {
        self.ledger.reset_stats();
    }

    /// The technology model in use.
    pub fn tech(&self) -> &TechnologyModel {
        self.ledger.tech()
    }

    /// Record a named snapshot of the cumulative statistics (used by the
    /// generated code's `cam.phase_marker` to separate the one-time
    /// setup/program phase from the per-query phase).
    pub fn mark_phase(&mut self, name: &str) {
        if self.charging {
            self.ledger.mark_phase(name);
        }
    }

    /// All recorded phase snapshots, in order.
    pub fn phases(&self) -> &[(String, ExecStats)] {
        self.ledger.phases()
    }

    /// The snapshot recorded under `name`, if any.
    pub fn phase(&self, name: &str) -> Option<&ExecStats> {
        self.ledger.phase(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_arch::ArchSpec;

    fn machine() -> CamMachine {
        CamMachine::new(&ArchSpec::default())
    }

    #[test]
    fn invalid_handles_error() {
        let mut m = machine();
        assert!(m.alloc_subarray(ArrayId(9)).is_err());
        assert!(m.write_rows(SubarrayId(9), 0, &[vec![0.0]]).is_err());
        assert!(m.read(SubarrayId(9)).is_err());
    }

    #[test]
    fn search_is_functional_and_charged() {
        let mut m = machine();
        let sub = m.alloc_chain().unwrap();
        m.write_rows(sub, 0, &[vec![1.0, 0.0, 1.0], vec![0.0, 0.0, 0.0]])
            .unwrap();
        let before = m.stats();
        let r = m
            .search(
                sub,
                &[1.0, 0.0, 1.0],
                SearchSpec::new(MatchKind::Exact, Metric::Hamming),
            )
            .unwrap()
            .clone();
        assert_eq!(r.matching_rows(), vec![0]);
        let after = m.stats();
        assert_eq!(after.search_ops, before.search_ops + 1);
        assert_eq!(after.searched_words, before.searched_words + 2);
        assert!(after.total_energy_fj() > before.total_energy_fj());
        assert!(after.latency_ns > before.latency_ns);
        // read returns the same result
        assert_eq!(m.read(sub).unwrap(), &r);
    }

    #[test]
    fn naive_path_matches_packed_path_bitwise() {
        let build = |path: SearchPath| {
            let mut m = machine();
            m.set_search_path(path);
            let sub = m.alloc_chain().unwrap();
            m.write_rows(sub, 0, &[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0]])
                .unwrap();
            let r = m
                .search(
                    sub,
                    &[1.0, 1.0, 1.0],
                    SearchSpec::new(MatchKind::Best, Metric::Hamming),
                )
                .unwrap()
                .clone();
            (r, m.stats())
        };
        let (packed, ps) = build(SearchPath::Packed);
        let (naive, ns) = build(SearchPath::Naive);
        assert_eq!(packed, naive);
        assert_eq!(ps.search_ops, ns.search_ops);
        assert_eq!(ps.latency_ns.to_bits(), ns.latency_ns.to_bits());
        assert_eq!(
            ps.total_energy_fj().to_bits(),
            ns.total_energy_fj().to_bits()
        );
        // The work metric differs: 1 plane word vs 3 walked cells.
        assert_eq!(ps.searched_words, 2);
        assert_eq!(ns.searched_words, 6);
    }

    #[test]
    fn a_functional_machine_matches_alike_and_charges_only_allocation() {
        let spec = ArchSpec::builder()
            .hierarchy(1, 1, 1)
            .banks(1)
            .build()
            .unwrap();
        let run = |mut m: CamMachine| {
            let sub = m.alloc_chain().unwrap();
            assert!(m.alloc_bank().is_err(), "the bank budget still holds");
            m.write_rows(sub, 0, &[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0]])
                .unwrap();
            m.mark_phase("setup-complete");
            m.push_parallel();
            let spec = SearchSpec::new(MatchKind::Best, Metric::Hamming);
            let found = m.search(sub, &[1.0, 1.0, 1.0], spec).unwrap().clone();
            assert_eq!(m.read(sub).unwrap(), &found);
            m.pop_scope();
            m.merge(Level::Bank, 2);
            (found, m.stats(), m.phases().len())
        };
        let (charged, charged_stats, phases) = run(CamMachine::new(&spec));
        let (found, stats, no_phases) = run(CamMachine::functional(&spec));
        assert_eq!(found, charged);
        assert!(charged_stats.search_ops == 1 && phases == 1);
        let allocated = ExecStats {
            banks_allocated: 1,
            mats_allocated: 1,
            arrays_allocated: 1,
            subarrays_allocated: 1,
            ..ExecStats::default()
        };
        assert_eq!((stats, no_phases), (allocated, 0));
        assert!(!CamMachine::functional(&spec).charges() && machine().charges());
    }

    #[test]
    fn read_before_search_fails() {
        let mut m = machine();
        let sub = m.alloc_chain().unwrap();
        assert!(m.read(sub).is_err());
    }

    #[test]
    fn parallel_scope_takes_max_latency() {
        let mut m = machine();
        let s1 = m.alloc_chain().unwrap();
        let bank2 = m.alloc_bank().unwrap();
        let mat2 = m.alloc_mat(bank2).unwrap();
        let arr2 = m.alloc_array(mat2).unwrap();
        let s2 = m.alloc_subarray(arr2).unwrap();
        m.write_rows(s1, 0, &[vec![1.0, 0.0]]).unwrap();
        m.write_rows(s2, 0, &[vec![0.0, 1.0]]).unwrap();
        m.reset_stats();

        let spec = SearchSpec::new(MatchKind::Exact, Metric::Hamming);
        // Sequential: two searches sum.
        m.search(s1, &[1.0, 0.0], spec).unwrap();
        m.search(s2, &[1.0, 0.0], spec).unwrap();
        let seq = m.stats().latency_ns;

        m.reset_stats();
        m.push_parallel();
        m.push_sequential();
        m.search(s1, &[1.0, 0.0], spec).unwrap();
        m.pop_scope();
        m.push_sequential();
        m.search(s2, &[1.0, 0.0], spec).unwrap();
        m.pop_scope();
        m.pop_scope();
        let par = m.stats().latency_ns;
        assert!((par - seq / 2.0).abs() < 1e-9, "par={par} seq={seq}");
        // Energy is identical regardless of concurrency.
        assert_eq!(m.stats().search_ops, 2);
    }

    #[test]
    fn selective_search_costs_less_energy_but_extra_cycle_latency() {
        let spec = ArchSpec::builder().subarray(32, 16).build().unwrap();
        let mut m = CamMachine::new(&spec);
        let sub = m.alloc_chain().unwrap();
        let rows: Vec<Vec<f32>> = (0..32).map(|i| vec![(i % 2) as f32; 16]).collect();
        m.write_rows(sub, 0, &rows).unwrap();
        m.reset_stats();
        let q = vec![1.0f32; 16];
        let all = SearchSpec::new(MatchKind::Best, Metric::Hamming);
        m.search(sub, &q, all).unwrap();
        let full = m.stats();
        m.reset_stats();
        let sel = all.with_selection(RowSelection::Window { start: 0, len: 8 });
        m.search(sub, &q, sel).unwrap();
        let windowed = m.stats();
        assert!(windowed.cell_energy_fj < full.cell_energy_fj);
        assert!(
            windowed.latency_ns > full.latency_ns,
            "selective adds a cycle"
        );
    }

    #[test]
    fn reset_stats_preserves_allocations() {
        let mut m = machine();
        m.alloc_chain().unwrap();
        m.merge(Level::Bank, 4);
        m.reset_stats();
        let s = m.stats();
        assert_eq!(s.merge_ops, 0);
        assert_eq!(s.latency_ns, 0.0);
        assert_eq!(s.subarrays_allocated, 1);
    }

    #[test]
    fn clone_then_absorb_delta_equals_sequential_run() {
        let mut m = machine();
        let sub = m.alloc_chain().unwrap();
        m.write_rows(sub, 0, &[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0]])
            .unwrap();
        let spec = SearchSpec::new(MatchKind::Best, Metric::Hamming);

        // Reference: both searches on one machine.
        let mut seq = m.clone();
        seq.search(sub, &[1.0, 0.0, 1.0], spec).unwrap();
        seq.search(sub, &[0.0, 1.0, 0.0], spec).unwrap();
        let want = seq.stats();

        // Forked: first search on the base, second on a reset clone.
        m.search(sub, &[1.0, 0.0, 1.0], spec).unwrap();
        let mut fork = m.clone();
        fork.reset_stats();
        fork.search(sub, &[0.0, 1.0, 0.0], spec).unwrap();
        m.absorb_delta(&fork.stats());
        let got = m.stats();

        assert_eq!(got.search_ops, want.search_ops);
        assert_eq!(got.subarrays_allocated, want.subarrays_allocated);
        assert!((got.latency_ns - want.latency_ns).abs() < 1e-9);
        assert!((got.total_energy_fj() - want.total_energy_fj()).abs() < 1e-6);
    }

    #[test]
    fn clone_preserves_programmed_contents() {
        let mut m = machine();
        let sub = m.alloc_chain().unwrap();
        m.write_rows(sub, 0, &[vec![1.0, 1.0, 0.0]]).unwrap();
        let mut c = m.clone();
        let r = c
            .search(
                sub,
                &[1.0, 1.0, 0.0],
                SearchSpec::new(MatchKind::Exact, Metric::Hamming),
            )
            .unwrap();
        assert_eq!(r.matching_rows(), vec![0]);
        // Clone's writes do not leak back into the original.
        c.write_rows(sub, 1, &[vec![0.0, 0.0, 1.0]]).unwrap();
        let r = m
            .search(
                sub,
                &[0.0, 0.0, 1.0],
                SearchSpec::new(MatchKind::Exact, Metric::Hamming),
            )
            .unwrap();
        assert!(r.matching_rows().is_empty());
    }

    #[test]
    fn fault_rate_zero_is_bit_identical_to_ideal_device() {
        let run = |faults: Option<FaultConfig>| {
            let mut m = machine();
            m.set_faults(faults);
            let sub = m.alloc_chain().unwrap();
            m.write_rows(sub, 0, &[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0]])
                .unwrap();
            let r = m
                .search(
                    sub,
                    &[1.0, 0.0, 1.0],
                    SearchSpec::new(MatchKind::Best, Metric::Hamming),
                )
                .unwrap()
                .clone();
            (r, m.stats())
        };
        let (ideal, ideal_stats) = run(None);
        let (zero, zero_stats) = run(Some(FaultConfig::with_rate(0.0, 7)));
        assert_eq!(ideal, zero);
        assert_eq!(ideal_stats, zero_stats);
        assert_eq!(zero_stats.fault_cells, 0);
        assert_eq!(zero_stats.fault_transients, 0);
        assert_eq!(zero_stats.rows_remapped, 0);
    }

    #[test]
    fn seeded_faults_are_identical_across_packed_and_naive_paths() {
        let run = |path: SearchPath| {
            let mut m = machine();
            m.set_search_path(path);
            m.set_faults(Some(FaultConfig::with_rate(0.25, 42)));
            let sub = m.alloc_chain().unwrap();
            let rows: Vec<Vec<f32>> = (0..8).map(|i| vec![(i % 2) as f32; 8]).collect();
            m.write_rows(sub, 0, &rows).unwrap();
            let r = m
                .search(
                    sub,
                    &[1.0; 8],
                    SearchSpec::new(MatchKind::Best, Metric::Hamming),
                )
                .unwrap()
                .clone();
            (r, m.stats())
        };
        let (packed, ps) = run(SearchPath::Packed);
        let (naive, ns) = run(SearchPath::Naive);
        assert_eq!(packed, naive, "fault sites must not depend on the kernel");
        assert_eq!(ps.fault_cells, ns.fault_cells);
        assert_eq!(ps.fault_transients, ns.fault_transients);
        assert!(ps.fault_cells > 0, "25% rate must hit some of 64 cells");
    }

    #[test]
    fn voting_scales_dynamic_search_cost_not_latency() {
        let run = |vote: usize| {
            let mut m = machine();
            let mut cfg = FaultConfig::with_rate(0.0, 1);
            cfg.resilience.vote = vote;
            m.set_faults(Some(cfg));
            let sub = m.alloc_chain().unwrap();
            m.write_rows(sub, 0, &[vec![1.0, 0.0, 1.0]]).unwrap();
            m.reset_stats();
            m.search(
                sub,
                &[1.0, 0.0, 1.0],
                SearchSpec::new(MatchKind::Exact, Metric::Hamming),
            )
            .unwrap();
            m.stats()
        };
        let one = run(1);
        let three = run(3);
        assert_eq!(three.search_ops, 3 * one.search_ops);
        assert_eq!(three.searched_words, 3 * one.searched_words);
        assert!(three.cell_energy_fj > 2.9 * one.cell_energy_fj);
        assert_eq!(three.latency_ns.to_bits(), one.latency_ns.to_bits());
    }

    #[test]
    fn spare_rows_remap_and_report_through_stats() {
        let mut cfg = FaultConfig::with_rate(0.02, 3);
        cfg.resilience.spare_rows = 8;
        let mut m = machine();
        m.set_faults(Some(cfg));
        m.alloc_chain().unwrap();
        let s = m.stats();
        assert!(s.rows_remapped > 0, "1% stuck over 32×32 rows must remap");
        // The gauge survives reset_stats, like the allocation gauges.
        m.reset_stats();
        assert_eq!(m.stats().rows_remapped, s.rows_remapped);
    }

    #[test]
    fn wta_window_flows_through_machine() {
        let mut m = machine();
        m.set_wta_window(Some(1));
        let sub = m.alloc_chain().unwrap();
        m.write_rows(sub, 0, &[vec![0.0, 0.0, 0.0, 0.0]]).unwrap();
        let r = m
            .search(
                sub,
                &[1.0, 1.0, 1.0, 1.0],
                SearchSpec::new(MatchKind::Best, Metric::Hamming),
            )
            .unwrap();
        assert_eq!(r.distances, vec![1.0]); // saturated at window
    }
}
