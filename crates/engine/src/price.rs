//! Static cost evaluation: price a tape without running it.
//!
//! Everything the simulator charges is a function of the schedule — the
//! geometry, which rows a write programs, how wide a query is, which
//! window a search senses — and never of cell contents
//! ([`CostLedger`]). The tape *is* the schedule, so its cost is
//! computable from the tape alone. [`Tape::price`] is an
//! integer-and-shape interpretation of the tape in the style of the
//! specialisation pass: scalar slots are `i64`s, tensor slots are
//! shapes, handle tables are tables of subarray ids, and each allocated
//! subarray is a *row census* (which rows are programmed, and whether as
//! bit-plane or level-plane rows — exactly `Subarray::write_rows`' rule)
//! from which a search's active rows and streamed plane words follow.
//! It walks the setup nest once, driving the same [`CostLedger`] the
//! machine embeds, with the same calls in the same order — so every
//! `f64` fold rounds as it does in simulation, and the result is
//! bit-identical to the statistics a run would report. No plane is
//! allocated and no tensor data is read.
//!
//! A specialised query body is one straight line, the same schedule on
//! every trip, so the evaluator walks it once: it records trip 0's
//! ledger charges ([`TripCharges`]) and replays them for every later
//! trip, in order. A body left as loops is walked trip by trip.
//!
//! What is priced is the device: allocation, programming, searches,
//! reads, periphery merges, timing scopes, phase markers. Host-side data
//! movement (`cam.merge_partial_subarray`'s accumulation, `cam.reduce`)
//! charges nothing and is not checked.
//!
//! The evaluator is all-or-nothing, like the specialiser: anything it
//! cannot fix from the schedule, anything the device would reject, or a
//! walk past [`MAX_STEPS`] (in the setup nest, or in one trip of the
//! query loop) returns the reason ([`Unpriced`]) and the caller executes
//! instead.

use crate::compile::{Tape, TapeData};
use crate::isa::{Inst, PreConst, SearchMergeInst, SliceOffset, Slot};
use crate::vm::search_spec;
use c4cam_arch::tech::{Level, TechnologyModel};
use c4cam_arch::ArchSpec;
use c4cam_camsim::{
    ArrayId, BankId, CostLedger, ExecStats, MatId, RowSelection, SearchSpec, SimError, TripCharges,
};
use std::fmt;

/// Instructions the evaluator may interpret in the setup nest and,
/// separately, in each trip of the query loop. A hostile bound must stop
/// well inside a second; the paper-scale kNN (83 456 subarrays at
/// 16 × 16) needs ~2 · 10⁶ either side. The trip count is the caller's,
/// and pricing `n` queries is never more work than running them.
const MAX_STEPS: usize = 1 << 24;

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
    /// A value the evaluation needs is not fixed by the schedule.
    Unresolved(&'static str),
    /// The run would fail: the device or the VM rejects an operation.
    Rejected(String),
    /// The walk exceeded the fixed step budget.
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

/// What the evaluator knows about a slot.
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

const BINARY: u8 = 1;
const LEVELS: u8 = 2;

/// One subarray's row census: per programmed row its plane kind
/// (0 = unprogrammed), grown to the highest row written; the counts by
/// kind; and whether a search has stored a result for `cam.read`.
#[derive(Default)]
struct Census {
    kinds: Vec<u8>,
    mix: [usize; 2],
    searched: bool,
}

impl Census {
    fn program(&mut self, row_off: usize, n: usize, kind: u8) {
        if self.kinds.len() < row_off + n {
            self.kinds.resize(row_off + n, 0);
        }
        for k in &mut self.kinds[row_off..row_off + n] {
            if *k != 0 {
                self.mix[usize::from(*k - 1)] -= 1;
            }
            *k = kind;
            self.mix[usize::from(kind - 1)] += 1;
        }
    }

    /// `(active rows, plane words)` of a `width`-column search over
    /// `selection`: a bit-plane row streams one word per 64 cells, a
    /// level-plane row one per 8 (`Subarray::search`'s work metric).
    fn sensed(&self, selection: RowSelection, rows: usize, width: usize) -> (usize, u64) {
        let window = selection.range(rows);
        let mix = if window == (0..rows) {
            self.mix
        } else {
            let end = window.end.min(self.kinds.len());
            let mut mix = [0usize; 2];
            for &k in &self.kinds[window.start.min(end)..end] {
                if k != 0 {
                    mix[usize::from(k - 1)] += 1;
                }
            }
            mix
        };
        let words =
            mix[0] as u64 * width.div_ceil(64) as u64 + mix[1] as u64 * width.div_ceil(8) as u64;
        (mix[0] + mix[1], words)
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

struct Evaluator<'t> {
    tape: &'t TapeData,
    ledger: CostLedger,
    abs: Vec<Abs>,
    bufs: Vec<Buf>,
    subs: Vec<Census>,
    frames: Vec<Frame>,
    /// Trip count of the query loop; `None` runs the bound the tape
    /// spells.
    queries: Option<usize>,
}

impl Evaluator<'_> {
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

    /// Charge one search of `width` columns on subarray `id`, after the
    /// device's own width check.
    fn search(&mut self, id: usize, width: usize, spec: &SearchSpec) -> Eval<()> {
        let (rows, cols) = self.ledger.geometry();
        if width > cols {
            return rejected(format!("query width {width} exceeds {cols} columns"));
        }
        let census = &mut self.subs[id];
        let (active, words) = census.sensed(spec.selection, rows, width);
        census.searched = true;
        self.ledger.search(active, words, spec, 1);
        Ok(())
    }

    fn read(&mut self, id: usize) -> Eval<()> {
        if !self.subs[id].searched {
            return rejected("read before any search on this subarray");
        }
        self.ledger.read();
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
                // The query loop runs `queries` trips whatever bound
                // the tape spells: its body does not depend on it.
                let queries = self
                    .queries
                    .filter(|_| tape.query_loop.is_some_and(|ql| ql.enter == pc));
                let ub = match queries {
                    Some(n) => i64::try_from(n)
                        .ok()
                        .and_then(|n| n.checked_mul(step))
                        .and_then(|span| lb.checked_add(span))
                        .ok_or(Unpriced::Unresolved("a query count that overflows"))?,
                    None => self.int(*ub)?,
                };
                if *parallel {
                    self.ledger.push_parallel();
                }
                if lb >= ub {
                    if *parallel {
                        self.ledger.pop_scope();
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
                    self.ledger.push_sequential();
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
                    self.ledger.pop_scope(); // this iteration's sequential scope
                }
                if iv < ub {
                    self.set(iv_slot, Abs::Int(iv));
                    if parallel {
                        self.ledger.push_sequential();
                    }
                    return Ok(Some(body));
                }
                self.frames.pop();
                if parallel {
                    self.ledger.pop_scope(); // the loop's parallel scope
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
                let id = self.ledger.alloc_bank()?;
                self.set(*out, Abs::Handle(Level::Bank, id.0));
            }
            Inst::AllocMat { parent, out } => {
                let bank = BankId(self.handle(*parent, Level::Bank)?);
                let id = self.ledger.alloc_mat(bank)?;
                self.set(*out, Abs::Handle(Level::Mat, id.0));
            }
            Inst::AllocArray { parent, out } => {
                let mat = MatId(self.handle(*parent, Level::Mat)?);
                let id = self.ledger.alloc_array(mat)?;
                self.set(*out, Abs::Handle(Level::Array, id.0));
            }
            Inst::AllocSubarray { parent, out } => {
                let array = ArrayId(self.handle(*parent, Level::Array)?);
                let id = self.ledger.alloc_subarray(array)?;
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
                let (rows, cols) = self.ledger.geometry();
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
                let multi = self.ledger.bits_per_cell() > 1 && width > 0;
                self.subs[id].program(row_off, n, if multi { LEVELS } else { BINARY });
                self.ledger.write(n);
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
            Inst::MergeLevel { level, elems } => self.ledger.merge(*level, *elems),
            Inst::PhaseMarker { name } => self.ledger.mark_phase(name),
            Inst::Reduce(r) => {
                let (vals, idx) = (Shape::of(&r.vals_shape)?, Shape::of(&r.idx_shape)?);
                self.set(r.vals, Abs::Tensor(vals));
                self.set(r.idx, Abs::Tensor(idx));
            }
            Inst::ScopeEnter { parallel } => {
                if *parallel {
                    self.ledger.push_parallel();
                } else {
                    self.ledger.push_sequential();
                }
            }
            Inst::ScopeExit => {
                if self.ledger.scope_depth() <= 1 {
                    return rejected("scope exit with no scope open");
                }
                self.ledger.pop_scope();
            }
            Inst::SearchMerge(s) => self.search_merge(s)?,
        }
        Ok(Some(pc + 1))
    }

    /// Every trip after the first: the query loop's back-edge at `next`,
    /// then `trip`'s charges again, until the loop exits; the pc after
    /// it.
    fn replay_trips(&mut self, next: usize, trip: &TripCharges) -> Eval<usize> {
        loop {
            match self.step(next)? {
                Some(pc) if pc == next + 1 => return Ok(pc),
                _ => self.ledger.replay_trip(trip),
            }
        }
    }
}

impl Tape {
    /// The statistics a fault-free run of this tape would report on a
    /// fresh machine of `spec` and `tech`, given only its arguments'
    /// shapes — computed without running it (see the module source for
    /// the method). `queries` is the trip count of the query loop,
    /// whatever bound the tape spells (the body does not depend on it);
    /// a tape with no detected query loop is priced as written.
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
        self.evaluate(arg_shapes, spec, tech, Some(queries))
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
        self.evaluate(arg_shapes, spec, tech, None)
    }

    fn evaluate(
        &self,
        arg_shapes: &[&[usize]],
        spec: &ArchSpec,
        tech: &TechnologyModel,
        queries: Option<usize>,
    ) -> Result<Priced, Unpriced> {
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
        let mut eval = Evaluator {
            tape,
            ledger: CostLedger::new(spec, tech.clone()),
            abs,
            bufs: Vec::new(),
            subs: Vec::new(),
            frames: Vec::new(),
            queries,
        };
        let trip_end = tape.query_loop.map(|ql| ql.next);
        // The trip that starts when the query loop is entered is
        // recorded, if the body is the specialiser's straight line.
        let first_trip = tape
            .query_loop
            .filter(|_| tape.unspecialised.is_none())
            .map(|ql| (ql.enter, ql.enter + 1));
        let (mut pc, mut steps) = (0, 0);
        while steps < MAX_STEPS {
            if pc >= tape.insts.len() {
                return rejected("function body ended without func.return");
            }
            // Each trip of the query loop gets its own budget.
            if Some(pc) == trip_end {
                steps = 0;
                if let Some(trip) = eval.ledger.finish_trip() {
                    pc = eval.replay_trips(pc, &trip)?;
                    continue;
                }
            } else {
                steps += 1;
            }
            match eval.step(pc)? {
                Some(next) => {
                    if first_trip == Some((pc, next)) {
                        eval.ledger.record_trip();
                    }
                    pc = next;
                }
                None => {
                    return Ok(Priced {
                        total: eval.ledger.stats(),
                        phases: eval.ledger.phases().to_vec(),
                    })
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
    /// budget, in bounded time and without growing anything.
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
