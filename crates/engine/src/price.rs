//! Static cost evaluation: price a tape without running it.
//!
//! Everything the simulator charges is a function of the schedule — the
//! geometry, which rows a write programs, how wide a query is, which
//! window a search senses — and never of cell contents
//! ([`CostLedger`]). The tape *is* the schedule, so its cost is
//! computable from the tape alone, in two steps:
//!
//! 1. **Walk.** [`Tape::schedule`] is an integer-and-shape
//!    interpretation of the tape in the style of the specialisation
//!    pass: scalar slots are `i64`s, tensor slots are shapes, handle
//!    tables are tables of subarray ids, and each allocated subarray is
//!    a *row census* (which rows are programmed, and whether with data
//!    or with padding only) from which a search's active rows follow.
//!    It produces a [`Schedule`]: the ordered ledger calls a run makes —
//!    allocations, timing scopes, writes, searches, reads, merges, phase
//!    markers, and the query loop's first trip with its back-edge. The
//!    walk reads of an architecture only its [`Floorplan`] (subarray
//!    geometry and hierarchy budgets): it checks every allocation
//!    against the budgets and every write and search against the
//!    geometry, but never reads the cell width or the technology.
//! 2. **Charge.** [`Schedule::charge`] makes those calls, in order, on a
//!    fresh [`CostLedger`] of one spec and technology — the ledger the
//!    machine embeds — so every `f64` fold rounds as it does in
//!    simulation, and the result is bit-identical to the statistics a
//!    run would report. The census becomes plane words here, by
//!    `Subarray::write_rows`' rule for the spec's cell width.
//!
//! No plane is allocated and no tensor data is read. One schedule serves
//! every spec with its floorplan: every cell width and technology a
//! plan is retargeted to.
//!
//! A specialised query body is one straight line, the same schedule on
//! every trip, so the walk visits it once: the charge records trip 0's
//! ledger charges ([`TripCharges`](c4cam_camsim::TripCharges)) and
//! replays them for every later trip, in order. Such a schedule is the
//! same at every trip count of at least one; the count is the charge's.
//! A body left as loops is walked trip by trip, and its schedule answers
//! the count it was walked for.
//!
//! What is priced is the device: allocation, programming, searches,
//! reads, periphery merges, timing scopes, phase markers. Host-side data
//! movement (`cam.merge_partial_subarray`'s accumulation, `cam.reduce`)
//! charges nothing and is not checked.
//!
//! The walk is all-or-nothing, like the specialiser: anything it cannot
//! fix from the schedule, anything the device would reject, a walk past
//! [`MAX_STEPS`] (in the setup nest, or in one trip of the query loop),
//! or a schedule past [`MAX_CALLS`] returns the reason ([`Unpriced`])
//! and the caller executes instead.

use crate::compile::{Tape, TapeData};
use crate::isa::{Inst, PreConst, SearchMergeInst, SliceOffset, Slot};
use crate::vm::search_spec;
use c4cam_arch::tech::{Level, TechnologyModel};
use c4cam_arch::ArchSpec;
use c4cam_camsim::{
    Allocations, ArrayId, BankId, CostLedger, ExecStats, Floorplan, MatId, RowSelection,
    SearchSpec, SimError,
};
use std::fmt;

/// Instructions the walk may interpret in the setup nest and,
/// separately, in each trip of the query loop. A hostile bound must stop
/// well inside a second; the paper-scale kNN (83 456 subarrays at
/// 16 × 16) needs ~2 · 10⁶ either side. The trip count is the caller's,
/// and walking `n` queries is never more work than running them.
const MAX_STEPS: usize = 1 << 24;

/// Ledger calls a schedule may hold: 32 MiB of them. A step makes at
/// most two calls, so a hostile loop that opens a scope every step stops
/// here instead of growing with the step budget; the mapped tapes make
/// about one call per three steps.
const MAX_CALLS: usize = 1 << 21;

/// The statistics a fault-free run of the tape would report.
#[derive(Debug, Clone, PartialEq)]
pub struct Priced {
    /// Cumulative statistics at function return.
    pub total: ExecStats,
    /// The `cam.phase_marker` snapshots, in order.
    pub phases: Vec<(String, ExecStats)>,
}

impl Priced {
    /// The snapshot recorded under `name`, if any.
    pub fn phase(&self, name: &str) -> Option<&ExecStats> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Statistics of the setup phase alone (allocation + programming):
    /// the `setup-complete` snapshot, zeros when the tape marks none.
    pub fn setup(&self) -> ExecStats {
        self.phase("setup-complete").cloned().unwrap_or_default()
    }

    /// Statistics of the query phase alone (`total − setup`).
    pub fn query_phase(&self) -> ExecStats {
        self.total.delta(&self.setup())
    }
}

/// Why a plan was not priced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unpriced {
    /// The plan has no static schedule (the default of `Plan::price`).
    NoSchedule,
    /// A fault model is installed: fault sites, votes and transient
    /// hits are device state, not schedule.
    Faults,
    /// A value the walk needs is not fixed by the schedule.
    Unresolved(&'static str),
    /// The run would fail: the device or the VM rejects an operation.
    Rejected(String),
    /// The walk exceeded the fixed step or call budget.
    OverBudget,
}

impl fmt::Display for Unpriced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unpriced::NoSchedule => f.write_str("the plan has no static schedule"),
            Unpriced::Faults => f.write_str("a fault model is installed"),
            Unpriced::Unresolved(what) => write!(f, "not fixed by the schedule: {what}"),
            Unpriced::Rejected(why) => write!(f, "the run would fail: {why}"),
            Unpriced::OverBudget => f.write_str("over the evaluation step budget"),
        }
    }
}

impl std::error::Error for Unpriced {}

impl From<SimError> for Unpriced {
    /// What the device would say.
    fn from(e: SimError) -> Unpriced {
        Unpriced::Rejected(e.message)
    }
}

type Eval<T> = Result<T, Unpriced>;

fn rejected<T>(why: impl Into<String>) -> Eval<T> {
    Err(Unpriced::Rejected(why.into()))
}

/// A tensor as the device ops see it: `[rows, cols]`, with any rank
/// other than 2 flattened into one row (`kernels::as_rank2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    rank2: bool,
    rows: usize,
    cols: usize,
}

impl Shape {
    fn of(dims: &[usize]) -> Eval<Shape> {
        if let [rows, cols] = *dims {
            return Ok(Shape {
                rank2: true,
                rows,
                cols,
            });
        }
        let len = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        Ok(Shape {
            rank2: false,
            rows: 1,
            cols: len.ok_or(Unpriced::Unresolved("a shape overflows"))?,
        })
    }

    fn len(self) -> usize {
        self.rows.saturating_mul(self.cols)
    }
}

/// What the walk knows about a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Abs {
    /// An integer; booleans are `0`/`1`, as `Value::as_int` /
    /// `Value::as_bool` convert between the two.
    Int(i64),
    /// Some float: its value is data.
    Float,
    /// A tensor, by shape.
    Tensor(Shape),
    /// A buffer: its index in the arena (copies alias, as `Rc`s do).
    Buffer(usize),
    /// A hierarchy handle.
    Handle(Level, usize),
}

/// A `memref`: its shape, and the subarray ids `cam.store_handle` put
/// in it (grown on demand — an accumulator never holds one).
struct Buf {
    shape: Shape,
    handles: Vec<Option<usize>>,
}

const PADDING: u8 = 1;
const DATA: u8 = 2;

/// One subarray's row census: which rows are programmed, and whether
/// with data or with padding only; the counts of each (`[padding,
/// data]`); and whether a search has stored a result for `cam.read`.
#[derive(Default)]
struct Census {
    rows: Rows,
    mix: [usize; 2],
    searched: bool,
}

/// The programmed rows of a subarray.
enum Rows {
    /// Rows `start..end` hold `what` and no other row is programmed: a
    /// subarray written once, or in adjacent writes alike, allocates
    /// nothing.
    Run { start: usize, end: usize, what: u8 },
    /// Per row, `0` when unprogrammed, grown to the highest row written.
    Each(Vec<u8>),
}

impl Default for Rows {
    fn default() -> Rows {
        Rows::Run {
            start: 0,
            end: 0,
            what: PADDING,
        }
    }
}

impl Census {
    fn program(&mut self, row_off: usize, n: usize, what: u8) {
        let (lo, hi) = (row_off, row_off + n);
        if n == 0 {
            return;
        }
        if let Rows::Run {
            start,
            end,
            what: held,
        } = self.rows
        {
            if start == end || (held == what && lo <= end && start <= hi) {
                let (start, end) = if start == end {
                    (lo, hi)
                } else {
                    (start.min(lo), end.max(hi))
                };
                self.rows = Rows::Run { start, end, what };
                self.mix = [0; 2];
                self.mix[usize::from(what - 1)] = end - start;
                return;
            }
            let mut each = vec![0; end.max(hi)];
            each[start..end].fill(held);
            self.rows = Rows::Each(each);
        }
        let Rows::Each(each) = &mut self.rows else {
            unreachable!("a run that does not absorb a write becomes rows")
        };
        if each.len() < hi {
            each.resize(hi, 0);
        }
        for r in &mut each[lo..hi] {
            if *r != 0 {
                self.mix[usize::from(*r - 1)] -= 1;
            }
            *r = what;
            self.mix[usize::from(what - 1)] += 1;
        }
    }

    /// `[padding, data]` rows a search over `selection` senses.
    fn sensed(&self, selection: RowSelection, rows: usize) -> [usize; 2] {
        let window = selection.range(rows);
        if window == (0..rows) {
            return self.mix;
        }
        let mut mix = [0usize; 2];
        match &self.rows {
            &Rows::Run { start, end, what } => {
                let overlap = end.min(window.end).saturating_sub(start.max(window.start));
                mix[usize::from(what - 1)] = overlap;
            }
            Rows::Each(each) => {
                let end = window.end.min(each.len());
                for &r in &each[window.start.min(end)..end] {
                    if r != 0 {
                        mix[usize::from(r - 1)] += 1;
                    }
                }
            }
        }
        mix
    }
}

/// One ledger call of a run, as the walk found it. A schedule holds one
/// per call, so a call is kept to 16 bytes: a search or a phase name is
/// an index into the schedule's table of them.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    AllocBank,
    AllocMat(BankId),
    AllocArray(MatId),
    AllocSubarray(ArrayId),
    PushParallel,
    PushSequential,
    PopScope,
    /// A write of this many rows.
    Write(usize),
    /// The schedule's `i`-th distinct search.
    Search(usize),
    Read,
    Merge(Level, usize),
    /// A phase marker, named by the schedule's `i`-th name.
    MarkPhase(usize),
    /// The query loop's first trip begins: record its charges.
    RecordTrip,
    /// The first trip's back-edge, the trip not replayable: recording
    /// stops, and the later trips follow call by call.
    FinishTrip,
    /// The first trip's back-edge, the trip replayable: every later trip
    /// replays it, each in its own sequential scope when the loop is
    /// `parallel`, and the loop exits.
    Replay {
        parallel: bool,
    },
}

const _: () = assert!(std::mem::size_of::<Call>() == 16);

/// A search as the walk found it: of `width` columns, sensing `data`
/// rows written with data and `padding` rows of padding only.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sensed {
    data: usize,
    padding: usize,
    width: usize,
    spec: SearchSpec,
}

/// The trip counts a schedule answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trips {
    /// The walk met no query loop: the count is not read.
    Unread,
    /// The first trip is replayed: any count of at least one, whose
    /// bound `lb + count × step` must not overflow; `written` is the
    /// count the tape spells, when it is fixed.
    Any {
        lb: i64,
        step: i64,
        written: Option<usize>,
    },
    /// The loop was walked trip by trip (or not entered): only the
    /// request `queries` it was walked for, which ran `trips` trips.
    Exactly {
        queries: Option<usize>,
        trips: usize,
    },
}

/// The ledger calls one run of a tape makes, in order — what a walk of
/// the tape ([`Tape::schedule`]) found, and what a charge
/// ([`Schedule::charge`]) costs on one spec and technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    floorplan: Floorplan,
    calls: Vec<Call>,
    /// The searches [`Call::Search`] indexes: a new one where a search
    /// differs from the one before it.
    searches: Vec<Sensed>,
    /// The phase names [`Call::MarkPhase`] indexes.
    phases: Vec<Box<str>>,
    trips: Trips,
}

impl Schedule {
    /// The query-loop trip count to [charge](Schedule::charge) for a run
    /// of `queries` trips (`None`: as many as the tape spells), or
    /// `None` when the schedule was walked for another count and a new
    /// walk must answer.
    pub fn trips(&self, queries: Option<usize>) -> Option<usize> {
        match self.trips {
            Trips::Unread => Some(queries.unwrap_or(0)),
            Trips::Any { written, .. } => queries.or(written).filter(|&n| n > 0),
            Trips::Exactly { queries: q, trips } => (q == queries).then_some(trips),
        }
    }

    /// The statistics a fault-free run of the schedule reports on a fresh
    /// machine of `spec` and `tech`, with the query loop run `trips`
    /// times ([`Schedule::trips`]): its calls made on a [`CostLedger`],
    /// in order.
    ///
    /// # Errors
    /// [`Unpriced::Unresolved`] when `trips` is a count the schedule does
    /// not answer or whose loop bound overflows.
    ///
    /// # Panics
    /// Panics when `spec`'s floorplan is not the one the schedule was
    /// walked on.
    pub fn charge(
        &self,
        spec: &ArchSpec,
        tech: &TechnologyModel,
        trips: usize,
    ) -> Result<Priced, Unpriced> {
        assert_eq!(
            Floorplan::of(spec),
            self.floorplan,
            "a schedule is charged on the floorplan it was walked on"
        );
        match self.trips {
            Trips::Unread => {}
            Trips::Any { lb, step, .. } => {
                let bound = i64::try_from(trips)
                    .ok()
                    .and_then(|n| n.checked_mul(step))
                    .and_then(|span| lb.checked_add(span));
                if bound.is_none() {
                    return Err(Unpriced::Unresolved("a query count that overflows"));
                }
                if trips == 0 {
                    return Err(Unpriced::Unresolved("a trip count the walk did not take"));
                }
            }
            Trips::Exactly { trips: walked, .. } => {
                if trips != walked {
                    return Err(Unpriced::Unresolved("a trip count the walk did not take"));
                }
            }
        }
        let bits = spec.bits_per_cell;
        let mut ledger = CostLedger::new(spec, tech.clone());
        for call in &self.calls {
            match call {
                Call::AllocBank => _ = ledger.alloc_bank()?,
                Call::AllocMat(bank) => _ = ledger.alloc_mat(*bank)?,
                Call::AllocArray(mat) => _ = ledger.alloc_array(*mat)?,
                Call::AllocSubarray(array) => _ = ledger.alloc_subarray(*array)?,
                Call::PushParallel => ledger.push_parallel(),
                Call::PushSequential => ledger.push_sequential(),
                Call::PopScope => ledger.pop_scope(),
                Call::Write(rows) => ledger.write(*rows),
                Call::Search(i) => {
                    let Sensed {
                        data,
                        padding,
                        width,
                        spec: search,
                    } = self.searches[*i];
                    // `Subarray::write_rows`: a row written with data is
                    // a level-plane row past one bit per cell, streaming
                    // one word per 8 cells; any other row is a bit-plane
                    // row, one word per 64.
                    let (binary, levels) = if bits > 1 {
                        (padding, data)
                    } else {
                        (padding + data, 0)
                    };
                    let words = binary as u64 * width.div_ceil(64) as u64
                        + levels as u64 * width.div_ceil(8) as u64;
                    ledger.search(binary + levels, words, &search, 1);
                }
                Call::Read => ledger.read(),
                Call::Merge(level, elems) => ledger.merge(*level, *elems),
                Call::MarkPhase(i) => ledger.mark_phase(&self.phases[*i]),
                Call::RecordTrip => ledger.record_trip(),
                Call::FinishTrip => _ = ledger.finish_trip(),
                Call::Replay { parallel } => {
                    let trip = ledger
                        .finish_trip()
                        .ok_or(Unpriced::Unresolved("a trip the ledger cannot replay"))?;
                    for _ in 1..trips {
                        if *parallel {
                            ledger.pop_scope();
                            ledger.push_sequential();
                        }
                        ledger.replay_trip(&trip);
                    }
                    if *parallel {
                        ledger.pop_scope(); // the last trip's sequential scope
                        ledger.pop_scope(); // the loop's parallel scope
                    }
                }
            }
        }
        Ok(Priced {
            total: ledger.stats(),
            phases: ledger.phases().to_vec(),
        })
    }
}

/// An active counted loop.
struct Frame {
    iv_slot: Slot,
    iv: i64,
    ub: i64,
    step: i64,
    body: usize,
    parallel: bool,
}

/// The query loop's first trip, while the walk is in it.
struct Recording {
    /// Scopes the trip opened and has not closed.
    open: usize,
    /// Cleared by anything a replay would not reproduce (as
    /// [`CostLedger::finish_trip`] rules).
    replayable: bool,
}

struct Walker<'t> {
    tape: &'t TapeData,
    alloc: Allocations,
    /// Depth of the scope stack (root = 1).
    depth: usize,
    calls: Vec<Call>,
    searches: Vec<Sensed>,
    phases: Vec<Box<str>>,
    recording: Option<Recording>,
    abs: Vec<Abs>,
    bufs: Vec<Buf>,
    subs: Vec<Census>,
    frames: Vec<Frame>,
    /// Trip count of the query loop; `None` runs the bound the tape
    /// spells.
    queries: Option<usize>,
    /// Each entry into the query loop: its `lb`, `step`, the trips the
    /// walk runs and the trips the tape spells, when fixed.
    entries: Vec<(i64, i64, usize, Option<usize>)>,
    /// Whether the walk replayed the query loop's first trip.
    replayed: bool,
}

impl Walker<'_> {
    fn int(&self, s: Slot) -> Eval<i64> {
        match self.abs[s as usize] {
            Abs::Int(v) => Ok(v),
            _ => Err(Unpriced::Unresolved("an integer operand")),
        }
    }

    /// The VM's `as usize` of an integer slot (a negative wraps high and
    /// then fails whatever bound it meets).
    fn index(&self, s: Slot) -> Eval<usize> {
        Ok(self.int(s)? as usize)
    }

    fn shape(&self, s: Slot) -> Eval<Shape> {
        match self.abs[s as usize] {
            Abs::Tensor(shape) => Ok(shape),
            Abs::Buffer(b) => Ok(self.bufs[b].shape),
            _ => Err(Unpriced::Unresolved("a tensor operand")),
        }
    }

    fn handle(&self, s: Slot, level: Level) -> Eval<usize> {
        match self.abs[s as usize] {
            Abs::Handle(l, id) if l == level => Ok(id),
            _ => Err(Unpriced::Unresolved("a hierarchy handle")),
        }
    }

    /// A subarray handle the device knows.
    fn sub(&self, s: Slot) -> Eval<usize> {
        self.known_sub(self.handle(s, Level::Subarray)?)
    }

    fn known_sub(&self, id: usize) -> Eval<usize> {
        if id >= self.subs.len() {
            return rejected(format!("invalid subarray handle {id}"));
        }
        Ok(id)
    }

    /// The buffer behind handle table `s`, which must have a `pos`.
    fn table(&self, s: Slot, pos: usize) -> Eval<usize> {
        let Abs::Buffer(b) = self.abs[s as usize] else {
            return Err(Unpriced::Unresolved("a handle table"));
        };
        if pos >= self.bufs[b].shape.len() {
            return rejected("handle table index out of bounds");
        }
        Ok(b)
    }

    /// The subarray id `cam.store_handle` left at `table[pos]`.
    fn stored_handle(&self, table: Slot, pos: usize) -> Eval<usize> {
        let handles = &self.bufs[self.table(table, pos)?].handles;
        let id = handles.get(pos).copied().flatten();
        id.ok_or(Unpriced::Unresolved("a handle-table entry never stored"))
    }

    fn set(&mut self, s: Slot, v: Abs) {
        self.abs[s as usize] = v;
    }

    fn new_buffer(&mut self, out: Slot, shape: Shape, handles: Vec<Option<usize>>) {
        self.bufs.push(Buf { shape, handles });
        self.set(out, Abs::Buffer(self.bufs.len() - 1));
    }

    /// Something a replayed trip would not reproduce.
    fn unreplayable(&mut self) {
        if let Some(rec) = &mut self.recording {
            rec.replayable = false;
        }
    }

    fn alloc(&mut self, call: Call) {
        self.unreplayable();
        self.calls.push(call);
    }

    fn push_scope(&mut self, parallel: bool) {
        self.depth += 1;
        if let Some(rec) = &mut self.recording {
            rec.open += 1;
        }
        self.calls.push(if parallel {
            Call::PushParallel
        } else {
            Call::PushSequential
        });
    }

    fn pop_scope(&mut self) {
        assert!(self.depth > 1, "pop_scope on root scope");
        self.depth -= 1;
        if let Some(rec) = &mut self.recording {
            match rec.open.checked_sub(1) {
                Some(open) => rec.open = open,
                None => rec.replayable = false,
            }
        }
        self.calls.push(Call::PopScope);
    }

    /// One search of `width` columns on subarray `id`, after the
    /// device's own width check.
    fn search(&mut self, id: usize, width: usize, spec: &SearchSpec) -> Eval<()> {
        let Floorplan { rows, cols, .. } = *self.alloc.floorplan();
        if width > cols {
            return rejected(format!("query width {width} exceeds {cols} columns"));
        }
        let census = &mut self.subs[id];
        let [padding, data] = census.sensed(spec.selection, rows);
        census.searched = true;
        let sensed = Sensed {
            data,
            padding,
            width,
            spec: *spec,
        };
        if self.searches.last() != Some(&sensed) {
            self.searches.push(sensed);
        }
        self.calls.push(Call::Search(self.searches.len() - 1));
        Ok(())
    }

    fn read(&mut self, id: usize) -> Eval<()> {
        if !self.subs[id].searched {
            return rejected("read before any search on this subarray");
        }
        self.calls.push(Call::Read);
        Ok(())
    }

    fn search_merge(&mut self, s: &SearchMergeInst) -> Eval<()> {
        let id = self.known_sub(self.stored_handle(s.table, s.pos)?)?;
        if self.int(s.row)? < 0 {
            return rejected("negative slice offset");
        }
        if !self.shape(s.query)?.rank2 {
            return rejected("extract_slice supports rank-2 tensors");
        }
        let spec = search_spec(
            s.kind,
            s.metric,
            s.selective,
            s.threshold,
            s.broadcast_share,
        );
        // The window is `width` wide whatever the tensor holds of it.
        self.search(id, s.width, &spec)?;
        self.read(id)
    }

    /// The bound of the query loop entered at `lb` with `step`: `lb` plus
    /// `queries` steps whatever bound the tape spells (its body does not
    /// depend on it), or the tape's own `ub`. The entry is noted.
    fn query_bound(&mut self, lb: i64, ub: Slot, step: i64) -> Eval<i64> {
        let spelled = self.int(ub);
        let bound = match self.queries {
            Some(n) => i64::try_from(n)
                .ok()
                .and_then(|n| n.checked_mul(step))
                .and_then(|span| lb.checked_add(span))
                .ok_or(Unpriced::Unresolved("a query count that overflows"))?,
            None => spelled.clone()?,
        };
        // Iterations from `lb` while below `bound`: the VM's count.
        let count = |ub: i64| {
            let span = (i128::from(ub) - i128::from(lb)).max(0);
            usize::try_from((span + i128::from(step) - 1) / i128::from(step)).ok()
        };
        let trips = count(bound).unwrap_or(usize::MAX);
        let written = spelled.ok().and_then(count);
        self.entries.push((lb, step, trips, written));
        Ok(bound)
    }

    /// Interpret the instruction at `pc`; the next pc, or `None` on
    /// `Return`.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, pc: usize) -> Eval<Option<usize>> {
        let tape = self.tape;
        match &tape.insts[pc] {
            Inst::ConstInt { out, value, .. } => self.set(*out, Abs::Int(*value)),
            Inst::ConstBool { out, value } => self.set(*out, Abs::Int(i64::from(*value))),
            Inst::ConstFloat { out, .. } => self.set(*out, Abs::Float),
            Inst::ConstTensor { out, tensor } => {
                let shape = Shape::of(tensor.shape())?;
                self.set(*out, Abs::Tensor(shape));
            }
            Inst::Copy { src, out } => {
                let v = self.abs[*src as usize];
                self.set(*out, v);
            }
            Inst::IntBin {
                op, lhs, rhs, out, ..
            } => {
                let r = op.eval(self.int(*lhs)?, self.int(*rhs)?);
                self.set(*out, Abs::Int(r.or_else(rejected)?));
            }
            Inst::IntBinImm {
                op, lhs, imm, out, ..
            } => {
                let r = op.eval(self.int(*lhs)?, *imm);
                self.set(*out, Abs::Int(r.or_else(rejected)?));
            }
            Inst::FloatBin { lhs, rhs, out, .. } => {
                if (self.abs[*lhs as usize], self.abs[*rhs as usize]) != (Abs::Float, Abs::Float) {
                    return Err(Unpriced::Unresolved("a float operand"));
                }
                self.set(*out, Abs::Float);
            }
            Inst::IntCmp {
                pred,
                lhs,
                rhs,
                out,
            } => {
                let r = pred.eval(self.int(*lhs)?, self.int(*rhs)?);
                self.set(*out, Abs::Int(i64::from(r)));
            }
            Inst::IntCmpImm {
                pred,
                lhs,
                imm,
                out,
            } => {
                let r = pred.eval(self.int(*lhs)?, *imm);
                self.set(*out, Abs::Int(i64::from(r)));
            }
            Inst::CastIntLike { src, out, .. } => {
                let v = self.int(*src)?;
                self.set(*out, Abs::Int(v));
            }
            Inst::Jump { target } => return Ok(Some(*target)),
            Inst::JumpIfNot { cond, target } => {
                if self.int(*cond)? == 0 {
                    return Ok(Some(*target));
                }
            }
            Inst::LoopEnter {
                lb,
                ub,
                step,
                iv,
                exit,
                parallel,
            } => {
                let (lb, step) = (self.int(*lb)?, self.int(*step)?);
                if step <= 0 {
                    return rejected("loop step must be positive");
                }
                let ub = if tape.query_loop.is_some_and(|ql| ql.enter == pc) {
                    self.query_bound(lb, *ub, step)?
                } else {
                    self.int(*ub)?
                };
                if *parallel {
                    self.push_scope(true);
                }
                if lb >= ub {
                    if *parallel {
                        self.pop_scope();
                    }
                    return Ok(Some(*exit));
                }
                self.frames.push(Frame {
                    iv_slot: *iv,
                    iv: lb,
                    ub,
                    step,
                    body: pc + 1,
                    parallel: *parallel,
                });
                self.set(*iv, Abs::Int(lb));
                if *parallel {
                    self.push_scope(false);
                }
            }
            Inst::LoopNext { .. } => {
                let Some(f) = self.frames.last_mut() else {
                    return rejected("loop back-edge without an active loop");
                };
                // Past `i64::MAX` is past any bound.
                f.iv = f.iv.saturating_add(f.step);
                let (iv_slot, iv, ub, body, parallel) = (f.iv_slot, f.iv, f.ub, f.body, f.parallel);
                if parallel {
                    self.pop_scope(); // this iteration's sequential scope
                }
                if iv < ub {
                    self.set(iv_slot, Abs::Int(iv));
                    if parallel {
                        self.push_scope(false);
                    }
                    return Ok(Some(body));
                }
                self.frames.pop();
                if parallel {
                    self.pop_scope(); // the loop's parallel scope
                }
            }
            Inst::Return { .. } => return Ok(None),
            Inst::ExtractSlice {
                src,
                offsets,
                sizes,
                out,
            } => {
                for o in offsets {
                    let off = match *o {
                        SliceOffset::Static(v) => v,
                        SliceOffset::Dynamic(s) => self.int(s)?,
                    };
                    if off < 0 {
                        return rejected("negative slice offset");
                    }
                }
                if !self.shape(*src)?.rank2 {
                    return rejected("extract_slice supports rank-2 tensors");
                }
                // Clamped and zero-padded: always the declared window.
                self.set(*out, Abs::Tensor(Shape::of(sizes)?));
            }
            Inst::AllocBuffer { shape, out } => {
                let shape = Shape::of(shape)?;
                self.new_buffer(*out, shape, Vec::new());
            }
            Inst::AllocCopy { src, out } => {
                let (shape, handles) = match self.abs[*src as usize] {
                    Abs::Buffer(b) => (self.bufs[b].shape, self.bufs[b].handles.clone()),
                    _ => (self.shape(*src)?, Vec::new()),
                };
                self.new_buffer(*out, shape, handles);
            }
            Inst::ToTensor { src, out } => {
                let shape = self.shape(*src)?;
                self.set(*out, Abs::Tensor(shape));
            }
            Inst::AllocBank { out } => {
                let id = self.alloc.bank()?;
                self.alloc(Call::AllocBank);
                self.set(*out, Abs::Handle(Level::Bank, id.0));
            }
            Inst::AllocMat { parent, out } => {
                let bank = BankId(self.handle(*parent, Level::Bank)?);
                let id = self.alloc.mat(bank)?;
                self.alloc(Call::AllocMat(bank));
                self.set(*out, Abs::Handle(Level::Mat, id.0));
            }
            Inst::AllocArray { parent, out } => {
                let mat = MatId(self.handle(*parent, Level::Mat)?);
                let id = self.alloc.array(mat)?;
                self.alloc(Call::AllocArray(mat));
                self.set(*out, Abs::Handle(Level::Array, id.0));
            }
            Inst::AllocSubarray { parent, out } => {
                let array = ArrayId(self.handle(*parent, Level::Array)?);
                let id = self.alloc.subarray(array)?;
                self.alloc(Call::AllocSubarray(array));
                self.subs.push(Census::default());
                self.set(*out, Abs::Handle(Level::Subarray, id.0));
            }
            Inst::StoreHandle { table, pos, sub } => {
                let pos = self.index(*pos)?;
                let id = self.handle(*sub, Level::Subarray)?;
                let table = self.table(*table, pos)?;
                let handles = &mut self.bufs[table].handles;
                if handles.len() <= pos {
                    handles.resize(pos + 1, None);
                }
                handles[pos] = Some(id);
            }
            Inst::LoadHandle { table, pos, out } => {
                let id = self.stored_handle(*table, self.index(*pos)?)?;
                self.set(*out, Abs::Handle(Level::Subarray, id));
            }
            Inst::WriteValue { sub, data, row_off } => {
                let id = self.sub(*sub)?;
                let row_off = self.index(*row_off)?;
                let Shape {
                    rows: n,
                    cols: width,
                    ..
                } = self.shape(*data)?;
                let Floorplan { rows, cols, .. } = *self.alloc.floorplan();
                if row_off.checked_add(n).is_none_or(|end| end > rows) {
                    return rejected(format!(
                        "write of {n} rows at offset {row_off} exceeds {rows} rows"
                    ));
                }
                if n > 0 && width > cols {
                    return rejected(format!(
                        "row {row_off} has {width} elements but subarray has {cols} columns"
                    ));
                }
                // An empty row is all padding: don't-care cells only.
                self.subs[id].program(row_off, n, if width > 0 { DATA } else { PADDING });
                self.calls.push(Call::Write(n));
            }
            Inst::Search(s) => {
                let id = self.sub(s.sub)?;
                let selection = match s.selective {
                    Some((start, len)) => Some((self.index(start)?, self.index(len)?)),
                    None => None,
                };
                let spec = search_spec(s.kind, s.metric, selection, s.threshold, s.broadcast_share);
                // `search_query_view`: row 0 of a rank-2 tensor.
                let query = self.shape(s.query)?;
                if query.rank2 && query.rows == 0 {
                    return rejected("row 0 out of bounds (rows = 0)");
                }
                self.search(id, query.cols, &spec)?;
            }
            Inst::Read {
                sub,
                shape,
                vals,
                idx,
            } => {
                let id = self.sub(*sub)?;
                self.read(id)?;
                let shape = Shape::of(shape)?;
                self.set(*vals, Abs::Tensor(shape));
                self.set(*idx, Abs::Tensor(shape));
            }
            // Host-side accumulation: nothing the device charges.
            Inst::MergePartial { .. } => {}
            Inst::MergeLevel { level, elems } => self.calls.push(Call::Merge(*level, *elems)),
            Inst::PhaseMarker { name } => {
                self.unreplayable();
                self.phases.push(name.clone());
                self.calls.push(Call::MarkPhase(self.phases.len() - 1));
            }
            Inst::Reduce(r) => {
                let (vals, idx) = (Shape::of(&r.vals_shape)?, Shape::of(&r.idx_shape)?);
                self.set(r.vals, Abs::Tensor(vals));
                self.set(r.idx, Abs::Tensor(idx));
            }
            Inst::ScopeEnter { parallel } => self.push_scope(*parallel),
            Inst::ScopeExit => {
                if self.depth <= 1 {
                    return rejected("scope exit with no scope open");
                }
                self.pop_scope();
            }
            Inst::SearchMerge(s) => self.search_merge(s)?,
        }
        Ok(Some(pc + 1))
    }

    /// At the query loop's back-edge `next`, the first trip's end: when
    /// the trip is replayable and its loop is the innermost, note the
    /// replay and leave the loop — the pc after it. `None` walks on.
    fn end_first_trip(&mut self, next: usize) -> Option<usize> {
        let rec = self.recording.take()?;
        let body = self.tape.query_loop.map(|ql| ql.enter + 1);
        let innermost = self.frames.last().is_some_and(|f| Some(f.body) == body);
        if !(rec.replayable && rec.open == 0 && innermost) {
            self.calls.push(Call::FinishTrip);
            return None;
        }
        let frame = self.frames.pop()?;
        // Nothing after the loop reads its induction variable (a block
        // argument is not visible outside its loop), so it keeps trip
        // 0's value.
        self.calls.push(Call::Replay {
            parallel: frame.parallel,
        });
        if frame.parallel {
            self.depth -= 2; // the last trip's scope and the loop's
        }
        self.replayed = true;
        Some(next + 1)
    }
}

impl Tape {
    /// The statistics a fault-free run of this tape would report on a
    /// fresh machine of `spec` and `tech`, given only its arguments'
    /// shapes — computed without running it: [`Tape::schedule`], then
    /// [`Schedule::charge`] (see the module source for the method).
    /// `queries` is the trip count of the query loop, whatever bound the
    /// tape spells (the body does not depend on it); a tape with no
    /// detected query loop is priced as written.
    ///
    /// Bit-identical to [`Tape::run`]'s statistics and phase snapshots
    /// on every [`ExecStats`] field.
    ///
    /// # Errors
    /// The reason the tape cannot be priced; the caller executes it.
    pub fn price(
        &self,
        arg_shapes: &[&[usize]],
        spec: &ArchSpec,
        tech: &TechnologyModel,
        queries: usize,
    ) -> Result<Priced, Unpriced> {
        self.walk_and_charge(arg_shapes, spec, tech, Some(queries))
    }

    /// [`Tape::price`] of the run the tape spells: the query loop runs
    /// the trips its own bound gives, exactly as [`Tape::run`] would.
    ///
    /// # Errors
    /// The reason the tape cannot be priced; the caller executes it.
    pub fn price_as_written(
        &self,
        arg_shapes: &[&[usize]],
        spec: &ArchSpec,
        tech: &TechnologyModel,
    ) -> Result<Priced, Unpriced> {
        self.walk_and_charge(arg_shapes, spec, tech, None)
    }

    fn walk_and_charge(
        &self,
        arg_shapes: &[&[usize]],
        spec: &ArchSpec,
        tech: &TechnologyModel,
        queries: Option<usize>,
    ) -> Result<Priced, Unpriced> {
        let schedule = self.schedule(arg_shapes, spec, queries)?;
        let trips = schedule.trips(queries);
        schedule.charge(spec, tech, trips.expect("a schedule answers its own walk"))
    }

    /// The ledger calls a fault-free run of this tape makes on a machine
    /// of `spec`'s [`Floorplan`], given only its arguments' shapes, with
    /// the query loop run `queries` times (`None`: the trips the tape
    /// spells). A specialised query body is walked once, and its
    /// schedule answers every trip count of at least one
    /// ([`Schedule::trips`]).
    ///
    /// # Errors
    /// The reason the tape cannot be priced; the caller executes it.
    pub fn schedule(
        &self,
        arg_shapes: &[&[usize]],
        spec: &ArchSpec,
        queries: Option<usize>,
    ) -> Result<Schedule, Unpriced> {
        let tape = &*self.0;
        if arg_shapes.len() != tape.arg_slots.len() {
            return rejected(format!(
                "'{}' takes {} arguments, got {}",
                tape.func,
                tape.arg_slots.len(),
                arg_shapes.len()
            ));
        }
        // The VM's slot file starts as integer zeros.
        let mut abs = vec![Abs::Int(0); tape.n_slots];
        for &(s, c) in &tape.preload {
            abs[s as usize] = match c {
                PreConst::Index(v) | PreConst::Int(v) => Abs::Int(v),
                PreConst::Bool(b) => Abs::Int(i64::from(b)),
                PreConst::Float(_) => Abs::Float,
            };
        }
        for (&s, dims) in tape.arg_slots.iter().zip(arg_shapes) {
            abs[s as usize] = Abs::Tensor(Shape::of(dims)?);
        }
        let floorplan = Floorplan::of(spec);
        let mut walk = Walker {
            tape,
            alloc: Allocations::new(floorplan),
            depth: 1,
            calls: Vec::new(),
            searches: Vec::new(),
            phases: Vec::new(),
            recording: None,
            abs,
            bufs: Vec::new(),
            subs: Vec::new(),
            frames: Vec::new(),
            queries,
            entries: Vec::new(),
            replayed: false,
        };
        let trip_end = tape.query_loop.map(|ql| ql.next);
        // The trip that starts when the query loop is entered is
        // recorded, if the body is the specialiser's straight line.
        let first_trip = tape
            .query_loop
            .filter(|_| tape.unspecialised.is_none())
            .map(|ql| (ql.enter, ql.enter + 1));
        let (mut pc, mut steps) = (0, 0);
        while steps < MAX_STEPS && walk.calls.len() <= MAX_CALLS {
            if pc >= tape.insts.len() {
                return rejected("function body ended without func.return");
            }
            // Each trip of the query loop gets its own budget.
            if Some(pc) == trip_end {
                steps = 0;
                if let Some(exit) = walk.end_first_trip(pc) {
                    pc = exit;
                    continue;
                }
            } else {
                steps += 1;
            }
            match walk.step(pc)? {
                Some(next) => {
                    // Only the loop's first entry replays (it is entered
                    // once: the query loop is top-level).
                    if first_trip == Some((pc, next)) && walk.entries.len() == 1 {
                        walk.calls.push(Call::RecordTrip);
                        walk.recording = Some(Recording {
                            open: 0,
                            replayable: true,
                        });
                    }
                    pc = next;
                }
                None => {
                    let trips = match walk.entries[..] {
                        [] => Trips::Unread,
                        [(lb, step, _, written)] if walk.replayed => {
                            Trips::Any { lb, step, written }
                        }
                        [(_, _, trips, _), ..] => Trips::Exactly { queries, trips },
                    };
                    let mut calls = walk.calls;
                    calls.shrink_to_fit();
                    return Ok(Schedule {
                        floorplan,
                        calls,
                        searches: walk.searches,
                        phases: walk.phases,
                        trips,
                    });
                }
            }
        }
        Err(Unpriced::OverBudget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{empty_loop, looped_hdc, lowered_hdc, query_nest, QueryNest};
    use c4cam_camsim::CamMachine;
    use c4cam_ir::Module;
    use c4cam_runtime::Value;
    use c4cam_tensor::Tensor;
    use std::sync::Arc;
    use std::time::Instant;

    /// The architecture `lowered_hdc` was mapped for.
    fn spec() -> ArchSpec {
        ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .build()
            .unwrap()
    }

    /// `lowered_hdc(2)`'s arguments: 2 queries and 4 classes of 64 dims.
    const SHAPES: [&[usize]; 2] = [&[2, 64], &[4, 64]];

    fn price(tape: &Tape, spec: &ArchSpec) -> Result<Priced, Unpriced> {
        tape.price(&SHAPES, spec, &TechnologyModel::fefet_45nm(), 2)
    }

    /// A mapped two-query HDC module edited by `edit`, compiled.
    fn edited(edit: impl FnOnce(&mut Module, &QueryNest)) -> Tape {
        let mut m = lowered_hdc(2);
        let nest = query_nest(&m, "forward");
        edit(&mut m, &nest);
        Tape::compile(&m, "forward").unwrap()
    }

    /// A specialised body's schedule reads neither the trip count nor
    /// the cell width: walks at 1 and 7 queries, under 1 and 2 bits per
    /// cell, are one schedule, which charges each spec and count as
    /// `Tape::price` does. A body left as loops answers only its own
    /// count.
    #[test]
    fn one_walk_answers_every_count_and_cell_width() {
        let tape = Tape::compile(&lowered_hdc(2), "forward").unwrap();
        let mut two_bits = spec();
        two_bits.bits_per_cell = 2;
        let walked = tape.schedule(&SHAPES, &spec(), Some(1)).unwrap();
        assert_eq!(tape.schedule(&SHAPES, &two_bits, Some(7)).unwrap(), walked);
        assert_eq!(walked.trips(None), Some(2));
        assert_eq!(walked.trips(Some(0)), None);
        let tech = TechnologyModel::cmos_tcam_16nm();
        for (spec, n) in [(spec(), 7), (two_bits, 3)] {
            assert_eq!(
                walked.charge(&spec, &tech, n),
                tape.price(&SHAPES, &spec, &tech, n)
            );
        }
        let looped = Tape::compile(&looped_hdc(2), "forward").unwrap();
        let walked = looped.schedule(&SHAPES, &spec(), Some(3)).unwrap();
        assert_eq!(
            (
                walked.trips(Some(3)),
                walked.trips(Some(4)),
                walked.trips(None)
            ),
            (Some(3), None, None)
        );
    }

    /// A census that holds a run of rows until a write breaks it counts
    /// what a census of every row counts: random writes of data and
    /// padding rows, then random windows.
    #[test]
    fn a_run_census_counts_as_a_row_census() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 33) as usize % bound
        };
        for _ in 0..2000 {
            let (mut census, mut rows) = (Census::default(), [0u8; 24]);
            for _ in 0..next(4) + 1 {
                let (off, n, what) = (next(16), next(8), [PADDING, DATA][next(2)]);
                census.program(off, n, what);
                rows[off..off + n].fill(what);
                let count = |w: std::ops::Range<usize>, what| {
                    rows[w].iter().filter(|&&r| r == what).count()
                };
                assert_eq!(census.mix, [count(0..24, PADDING), count(0..24, DATA)]);
                let (start, len) = (next(24), next(24));
                let window = RowSelection::Window { start, len }.range(24);
                assert_eq!(
                    census.sensed(RowSelection::Window { start, len }, 24),
                    [count(window.clone(), PADDING), count(window, DATA)]
                );
            }
        }
    }

    #[test]
    fn the_price_is_the_run() {
        for module in [lowered_hdc(2), looped_hdc(2)] {
            let tape = Tape::compile(&module, "forward").unwrap();
            let mut machine = CamMachine::new(&spec());
            let args = SHAPES.map(|s| Value::Tensor(Tensor::zeros(s.to_vec())));
            tape.run(&mut machine, &args).unwrap();
            let priced = price(&tape, &spec()).unwrap();
            assert_eq!(priced.total, machine.stats());
            assert_eq!(priced.phases, machine.phases());
            assert_eq!(priced.setup(), *machine.phase("setup-complete").unwrap());
        }
    }

    /// A loop bound of `i64::MAX` — in the setup nest, sequential or
    /// parallel, or in a query body left as loops — runs into the step
    /// or call budget, in bounded time and memory.
    #[test]
    fn a_hostile_trip_count_hits_the_budget_not_the_clock() {
        let start = Instant::now();
        for parallel in [false, true] {
            let setup = edited(|m, nest| empty_loop(m, nest.query_loop, i64::MAX, parallel));
            assert_eq!(price(&setup, &spec()), Err(Unpriced::OverBudget));
        }
        let body = edited(|m, nest| empty_loop(m, nest.head, i64::MAX, false));
        assert!(body.specialised().is_err());
        assert_eq!(price(&body, &spec()), Err(Unpriced::OverBudget));
        assert!(
            start.elapsed().as_secs_f64() < 20.0,
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn what_the_device_would_reject_is_rejected_with_its_message() {
        let tape = Tape::compile(&lowered_hdc(2), "forward").unwrap();
        let rejected_for = |spec: &ArchSpec, shapes: [&[usize]; 2]| {
            let tech = TechnologyModel::fefet_45nm();
            match tape.price(&shapes, spec, &tech, 2) {
                Err(Unpriced::Rejected(why)) => why,
                other => panic!("expected a rejection, got {other:?}"),
            }
        };
        // Four subarrays in a one-subarray machine.
        let one = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(1, 1, 1)
            .banks(1)
            .build()
            .unwrap();
        assert_eq!(
            rejected_for(&one, SHAPES),
            "array 0 already has 1 subarrays"
        );
        // Four stored rows in a two-row subarray.
        let mut short = spec();
        short.rows_per_subarray = 2;
        assert_eq!(
            rejected_for(&short, SHAPES),
            "write of 4 rows at offset 0 exceeds 2 rows"
        );
        // A rank-1 argument where the nest slices rank 2.
        assert_eq!(
            rejected_for(&spec(), [&[128], &[4, 64]]),
            "extract_slice supports rank-2 tensors"
        );

        // A read hoisted above its search.
        let mut swapped = Tape::compile(&looped_hdc(2), "forward").unwrap();
        let t = Arc::make_mut(&mut swapped.0);
        let search = t.insts.iter().position(|i| matches!(i, Inst::Search(_)));
        let search = search.expect("a looped body searches");
        assert!(matches!(t.insts[search + 1], Inst::Read { .. }));
        t.insts.swap(search, search + 1);
        swapped.verify().unwrap();
        assert_eq!(
            price(&swapped, &spec()),
            Err(Unpriced::Rejected(
                "read before any search on this subarray".into()
            ))
        );
    }

    /// A 10¹⁰-cell subarray prices from a census of the rows written:
    /// no plane — 22 GB of them here — is reserved.
    #[test]
    fn the_census_is_the_rows_written_not_the_subarray() {
        let mut vast = spec();
        (vast.rows_per_subarray, vast.cols_per_subarray) = (100_000, 100_000);
        let start = Instant::now();
        let tape = Tape::compile(&lowered_hdc(2), "forward").unwrap();
        let priced = price(&tape, &vast).unwrap();
        assert_eq!(priced.total.write_ops, 4);
        assert!(start.elapsed().as_secs_f64() < 5.0, "{:?}", start.elapsed());
    }

    #[test]
    fn a_value_the_schedule_does_not_fix_is_unresolved() {
        // A loop bound read from a float the tape computes.
        let mut tape = Tape::compile(&lowered_hdc(2), "forward").unwrap();
        let t = Arc::make_mut(&mut tape.0);
        let Some(&Inst::LoopEnter { ub, .. }) =
            t.insts.iter().find(|i| matches!(i, Inst::LoopEnter { .. }))
        else {
            panic!("the setup nest loops");
        };
        t.preload.retain(|&(s, _)| s != ub);
        t.preload.push((ub, PreConst::Float(4.0)));
        assert_eq!(
            price(&tape, &spec()),
            Err(Unpriced::Unresolved("an integer operand"))
        );
    }
}
