//! The tape compiler: one pass over a fully lowered cam-level function
//! that assigns every SSA value a dense slot, pre-resolves attributes,
//! and linearizes structured control flow into pc jumps.
//!
//! ## Query-loop detection
//!
//! The `cam-map` pass emits one sequential `scf.for` over queries whose
//! iterations are independent: each iteration searches the (read-only
//! after setup) subarrays and scatter-accumulates into row `q` of the
//! accumulator, where `q` is the loop's induction variable. The compiler
//! recognizes that shape so the batched executor can shard iterations
//! across threads:
//!
//! * the loop is sequential (`scf.for`), carries no iter-args, and is
//!   not nested inside other control flow;
//! * its body performs at least one `cam.search` and **no** allocation,
//!   programming (`cam.write_value` / `cam.store_handle`) or phase
//!   marking;
//! * every `cam.merge_partial_subarray` in the body uses the loop's
//!   induction variable as its query-row operand, so concurrent
//!   iterations write disjoint accumulator rows.

use crate::error::EngineError;
use crate::isa::{
    CmpPred, FloatBinOp, Inst, IntBinOp, PreConst, QueryLoop, ReduceInst, SearchInst, SliceOffset,
    Slot, SrcOp,
};
use c4cam_arch::tech::Level;
use c4cam_arch::{MatchKind, Metric};
use c4cam_ir::{Attribute, BlockId, Module, OpId, TypeKind, ValueId};
use c4cam_runtime::kernels::DYNAMIC_OFFSET;
use c4cam_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;

type CResult<T> = Result<T, EngineError>;

/// A compiled function: the flat instruction tape plus its metadata.
///
/// A tape is immutable once compiled, and cloning one is a
/// reference-count bump: every run and shard worker shares the same
/// instructions.
#[derive(Debug, Clone)]
pub struct Tape(pub(crate) Arc<TapeData>);

/// Why [`Tape::specialised`] left the query body as loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unspecialised {
    /// No query loop was detected.
    NoQueryLoop,
    /// A loop bound, branch condition or address in the query body is
    /// not a compile-time constant.
    NotConstant,
    /// The query induction variable is used other than as the query
    /// slice's row and the merge's row.
    IvEscapes,
    /// The body holds an instruction outside the canonical shape:
    /// foldable scalars, constant loops and branches, `cam.merge_level`
    /// and search → read → merge triples.
    NonCanonical,
    /// Unrolling exceeded the fixed interpretation or residual budget.
    OverBudget,
}

impl std::fmt::Display for Unspecialised {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Unspecialised::NoQueryLoop => "no query loop",
            Unspecialised::NotConstant => "a bound, branch or address is not constant",
            Unspecialised::IvEscapes => "the query index is used outside slice and merge rows",
            Unspecialised::NonCanonical => "an instruction outside the canonical query body",
            Unspecialised::OverBudget => "over the unrolling budget",
        })
    }
}

/// Why [`Tape::blocked`] keeps a run's query loop in per-query order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unblocked {
    /// The query body was left as loops, or there is no query loop
    /// ([`Tape::specialised`] says why).
    Unspecialised,
    /// The body holds an instruction other than timing scopes,
    /// level merges and fused searches.
    NonCanonical,
    /// A fused search's row is not the query index.
    RowNotQueryIndex,
    /// An accumulator slot is also a search's query or handle table,
    /// so a merge could change what a later search reads.
    Aliased,
}

impl std::fmt::Display for Unblocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Unblocked::Unspecialised => "the query body is not specialised",
            Unblocked::NonCanonical => {
                "an instruction other than scopes, level merges and fused searches"
            }
            Unblocked::RowNotQueryIndex => "a fused search row other than the query index",
            Unblocked::Aliased => "an accumulator is also a query or handle table",
        })
    }
}

/// The contents of a [`Tape`]; what the passes, the verifier and the VM
/// work on.
#[derive(Debug, Clone)]
pub(crate) struct TapeData {
    pub(crate) insts: Vec<Inst>,
    /// Per-instruction source op (for error attribution).
    pub(crate) src_ops: Vec<OpId>,
    /// Per-instruction index into [`Tape::op_names`].
    pub(crate) src_names: Vec<u16>,
    /// Interned op names.
    pub(crate) op_names: Vec<String>,
    pub(crate) n_slots: usize,
    pub(crate) arg_slots: Vec<Slot>,
    /// Slots the optimizer preloads at VM construction in place of the
    /// stripped `Const*` instructions (see [`crate::opt`]).
    pub(crate) preload: Vec<(Slot, PreConst)>,
    pub(crate) query_loop: Option<QueryLoop>,
    /// Why the query body is still loops (`None`: it is the straight
    /// line [`crate::specialize`] left).
    pub(crate) unspecialised: Option<Unspecialised>,
    pub(crate) func: String,
}

impl Tape {
    /// Compile function `func` of `m` into a flat instruction tape, run
    /// the tape passes over it and [`Tape::verify`] the result.
    ///
    /// # Errors
    /// Fails on unknown functions and on ops outside the CAM-ISA surface
    /// (the tape targets fully lowered cam-level modules).
    pub fn compile(m: &Module, func: &str) -> CResult<Tape> {
        Compiler::new(m, func)?.finish()
    }

    /// Number of instructions on the tape.
    pub fn len(&self) -> usize {
        self.0.insts.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.0.insts.is_empty()
    }

    /// The shardable query loop, when one was detected.
    pub fn query_loop(&self) -> Option<QueryLoop> {
        self.0.query_loop
    }

    /// Whether the query body was partially evaluated into scope ops
    /// and fused search instructions, or the reason it was left as the
    /// loops the module spelled.
    ///
    /// # Errors
    /// The reason, when the body was left as it was.
    pub fn specialised(&self) -> Result<(), Unspecialised> {
        self.0.unspecialised.map_or(Ok(()), Err)
    }

    /// Whether a run may take the query loop in blocked order: each
    /// body instruction once, over every query, instead of the whole
    /// body once per query (see `Tape::run_batched`). That needs a
    /// specialised body of timing scopes, level merges and fused
    /// searches whose row is the query index and whose accumulators are
    /// nothing a search reads. Then the only instructions with an effect
    /// on a device that charges nothing are the fused searches, and each
    /// touches its query's accumulator row alone. This is the static
    /// half of the condition; the run-time half is a non-charging
    /// device, no trace and no telemetry.
    ///
    /// # Errors
    /// The reason, when the body must run query by query.
    pub fn blocked(&self) -> Result<(), Unblocked> {
        let t = &*self.0;
        let Some(ql) = t.query_loop.filter(|_| t.unspecialised.is_none()) else {
            return Err(Unblocked::Unspecialised);
        };
        let body = &t.insts[ql.enter + 1..ql.next];
        let mut searches = Vec::new();
        for inst in body {
            match inst {
                Inst::ScopeEnter { .. } | Inst::ScopeExit | Inst::MergeLevel { .. } => {}
                Inst::SearchMerge(s) if s.row == ql.iv => searches.push(s),
                Inst::SearchMerge(_) => return Err(Unblocked::RowNotQueryIndex),
                _ => return Err(Unblocked::NonCanonical),
            }
        }
        let read = |slot| searches.iter().any(|s| s.query == slot || s.table == slot);
        if searches.iter().any(|s| read(s.acc)) {
            return Err(Unblocked::Aliased);
        }
        Ok(())
    }

    /// Number of function arguments the tape expects.
    pub fn num_args(&self) -> usize {
        self.0.arg_slots.len()
    }
}

impl TapeData {
    /// Writers per slot: arguments, preloaded constants and every
    /// instruction def. (A loop's back-edge rewrites its induction
    /// variable too, but its `LoopEnter` already counts as that slot's
    /// writer, which is all the single-writer tests need.)
    pub(crate) fn writer_counts(&self) -> Vec<u32> {
        let mut writers = vec![0u32; self.n_slots];
        let fixed = self
            .arg_slots
            .iter()
            .chain(self.preload.iter().map(|(s, _)| s));
        fixed.for_each(|&s| writers[s as usize] += 1);
        for inst in &self.insts {
            inst_defs(inst, |s| writers[s as usize] += 1);
        }
        writers
    }

    pub(crate) fn attach(&self, pc: usize, e: EngineError) -> EngineError {
        match (self.src_ops.get(pc), self.src_names.get(pc)) {
            (Some(&op), Some(&n)) => self.attach_src((op, n), e),
            _ => e,
        }
    }

    pub(crate) fn attach_src(&self, (op, name): SrcOp, e: EngineError) -> EngineError {
        e.with_op(op, &self.op_names[name as usize])
    }
}

/// Visit every slot an instruction (re)defines.
pub(crate) fn inst_defs(inst: &Inst, mut f: impl FnMut(Slot)) {
    match inst {
        Inst::ConstInt { out, .. }
        | Inst::ConstFloat { out, .. }
        | Inst::ConstBool { out, .. }
        | Inst::ConstTensor { out, .. }
        | Inst::Copy { out, .. }
        | Inst::IntBin { out, .. }
        | Inst::IntBinImm { out, .. }
        | Inst::FloatBin { out, .. }
        | Inst::IntCmp { out, .. }
        | Inst::IntCmpImm { out, .. }
        | Inst::CastIntLike { out, .. }
        | Inst::ExtractSlice { out, .. }
        | Inst::AllocBuffer { out, .. }
        | Inst::AllocCopy { out, .. }
        | Inst::ToTensor { out, .. }
        | Inst::AllocBank { out }
        | Inst::AllocMat { out, .. }
        | Inst::AllocArray { out, .. }
        | Inst::AllocSubarray { out, .. }
        | Inst::LoadHandle { out, .. } => f(*out),
        Inst::LoopEnter { iv, .. } => f(*iv),
        Inst::Read { vals, idx, .. } => {
            f(*vals);
            f(*idx);
        }
        Inst::Reduce(r) => {
            f(r.vals);
            f(r.idx);
        }
        Inst::Jump { .. }
        | Inst::JumpIfNot { .. }
        | Inst::LoopNext { .. }
        | Inst::Return { .. }
        | Inst::StoreHandle { .. }
        | Inst::WriteValue { .. }
        | Inst::Search(_)
        | Inst::MergePartial { .. }
        | Inst::MergeLevel { .. }
        | Inst::PhaseMarker { .. }
        | Inst::ScopeEnter { .. }
        | Inst::ScopeExit
        | Inst::SearchMerge(_) => {}
    }
}

/// Visit every slot an instruction reads.
pub(crate) fn inst_uses(inst: &Inst, mut f: impl FnMut(Slot)) {
    match inst {
        Inst::ConstInt { .. }
        | Inst::ConstFloat { .. }
        | Inst::ConstBool { .. }
        | Inst::ConstTensor { .. }
        | Inst::Jump { .. }
        | Inst::LoopNext { .. }
        | Inst::AllocBuffer { .. }
        | Inst::AllocBank { .. }
        | Inst::MergeLevel { .. }
        | Inst::PhaseMarker { .. }
        | Inst::ScopeEnter { .. }
        | Inst::ScopeExit => {}
        Inst::Copy { src, .. }
        | Inst::CastIntLike { src, .. }
        | Inst::AllocCopy { src, .. }
        | Inst::ToTensor { src, .. } => f(*src),
        Inst::IntBin { lhs, rhs, .. }
        | Inst::FloatBin { lhs, rhs, .. }
        | Inst::IntCmp { lhs, rhs, .. } => {
            f(*lhs);
            f(*rhs);
        }
        Inst::IntBinImm { lhs, .. } | Inst::IntCmpImm { lhs, .. } => f(*lhs),
        Inst::JumpIfNot { cond, .. } => f(*cond),
        Inst::LoopEnter { lb, ub, step, .. } => {
            f(*lb);
            f(*ub);
            f(*step);
        }
        Inst::Return { values } => values.iter().copied().for_each(f),
        Inst::ExtractSlice { src, offsets, .. } => {
            f(*src);
            for o in offsets {
                if let SliceOffset::Dynamic(s) = o {
                    f(*s);
                }
            }
        }
        Inst::AllocMat { parent, .. }
        | Inst::AllocArray { parent, .. }
        | Inst::AllocSubarray { parent, .. } => f(*parent),
        Inst::StoreHandle { table, pos, sub } => {
            f(*table);
            f(*pos);
            f(*sub);
        }
        Inst::LoadHandle { table, pos, .. } => {
            f(*table);
            f(*pos);
        }
        Inst::WriteValue { sub, data, row_off } => {
            f(*sub);
            f(*data);
            f(*row_off);
        }
        Inst::Search(s) => {
            f(s.sub);
            f(s.query);
            if let Some((start, len)) = s.selective {
                f(start);
                f(len);
            }
        }
        Inst::Read { sub, .. } => f(*sub),
        Inst::MergePartial {
            acc,
            vals,
            idx,
            q,
            offset,
        } => {
            f(*acc);
            f(*vals);
            f(*idx);
            f(*q);
            f(*offset);
        }
        Inst::Reduce(r) => f(r.acc),
        Inst::SearchMerge(s) => {
            f(s.table);
            f(s.query);
            f(s.row);
            f(s.acc);
        }
    }
}

/// What a block's terminating `scf.yield` should compile to.
enum YieldAction {
    /// Top-level function body: `scf.yield` is illegal, `func.return`
    /// terminates.
    None,
    /// Loop body: copy yielded values into the carry slots, then fall
    /// through to the loop's `LoopNext`.
    CopyTo(Vec<Slot>),
}

struct Compiler<'m> {
    m: &'m Module,
    insts: Vec<Inst>,
    src_ops: Vec<OpId>,
    src_names: Vec<u16>,
    op_names: Vec<String>,
    name_index: HashMap<String, u16>,
    slots: HashMap<ValueId, Slot>,
    next_slot: Slot,
    arg_slots: Vec<Slot>,
    /// Control-flow nesting depth (loops + ifs) during compilation.
    depth: usize,
    query_loop: Option<QueryLoop>,
    func: String,
}

impl<'m> Compiler<'m> {
    fn new(m: &'m Module, func: &str) -> CResult<Compiler<'m>> {
        let func_op = m
            .lookup_symbol(func)
            .ok_or_else(|| EngineError::new(format!("unknown function '{func}'")))?;
        let entry = m.op(func_op).regions[0]
            .first()
            .copied()
            .ok_or_else(|| EngineError::new("function has no body"))?;
        let mut c = Compiler {
            m,
            insts: Vec::new(),
            src_ops: Vec::new(),
            src_names: Vec::new(),
            op_names: Vec::new(),
            name_index: HashMap::new(),
            slots: HashMap::new(),
            next_slot: 0,
            arg_slots: Vec::new(),
            depth: 0,
            query_loop: None,
            func: func.to_string(),
        };
        for &arg in &m.block(entry).args {
            let s = c.define(arg);
            c.arg_slots.push(s);
        }
        c.compile_block(entry, &YieldAction::None)?;
        Ok(c)
    }

    fn finish(self) -> CResult<Tape> {
        let mut tape = TapeData {
            insts: self.insts,
            src_ops: self.src_ops,
            src_names: self.src_names,
            op_names: self.op_names,
            n_slots: self.next_slot as usize,
            arg_slots: self.arg_slots,
            preload: Vec::new(),
            query_loop: self.query_loop,
            unspecialised: None,
            func: self.func,
        };
        // Tape passes: fold constants into immediates, strip the dead
        // `Const*` instructions, partially evaluate the query body.
        crate::opt::optimize(&mut tape);
        // A tape outlives its compilation by every run of the plan: the
        // passes edit these in place, so drop the slack they leave.
        tape.insts.shrink_to_fit();
        tape.src_ops.shrink_to_fit();
        tape.src_names.shrink_to_fit();
        let tape = Tape(Arc::new(tape));
        tape.verify()?;
        Ok(tape)
    }

    // ------------------------------------------------------------------
    // Slot & emission helpers
    // ------------------------------------------------------------------

    fn define(&mut self, v: ValueId) -> Slot {
        let s = self.next_slot;
        self.next_slot += 1;
        self.slots.insert(v, s);
        s
    }

    /// Map a value to an existing slot (loop results aliasing carries).
    fn alias(&mut self, v: ValueId, s: Slot) {
        self.slots.insert(v, s);
    }

    fn slot(&self, v: ValueId) -> CResult<Slot> {
        self.slots
            .get(&v)
            .copied()
            .ok_or_else(|| EngineError::new(format!("use of unbound value {v:?}")))
    }

    fn operand_slot(&self, op: OpId, i: usize) -> CResult<Slot> {
        self.slot(self.m.operand(op, i))
    }

    fn emit(&mut self, op: OpId, inst: Inst) -> usize {
        let pc = self.insts.len();
        let name = &self.m.op(op).name;
        let idx = match self.name_index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.op_names.len() as u16;
                self.op_names.push(name.clone());
                self.name_index.insert(name.clone(), i);
                i
            }
        };
        self.insts.push(inst);
        self.src_ops.push(op);
        self.src_names.push(idx);
        pc
    }

    fn err(op: OpId, m: &Module, message: impl Into<String>) -> EngineError {
        EngineError::new(message).with_op(op, &m.op(op).name)
    }

    /// Whether a result value is `index`-typed (walker's `int_like_result`).
    fn result_is_index(&self, op: OpId) -> bool {
        matches!(
            self.m.kind(self.m.value_type(self.m.result(op, 0))),
            TypeKind::Index
        )
    }

    /// Declared shape of a (tensor/memref) value, as usizes.
    fn declared_shape(&self, op: OpId, v: ValueId) -> CResult<Vec<usize>> {
        match self.m.kind(self.m.value_type(v)).shape() {
            Some(shape) => shape
                .iter()
                .map(|&d| {
                    usize::try_from(d)
                        .map_err(|_| Self::err(op, self.m, "dynamic shape at runtime"))
                })
                .collect(),
            None => Err(Self::err(op, self.m, "expected a shaped type")),
        }
    }

    fn single_block(&self, op: OpId, region: usize) -> CResult<BlockId> {
        let blocks = &self.m.op(op).regions[region];
        if blocks.len() != 1 {
            return Err(Self::err(
                op,
                self.m,
                format!("expected exactly one block in region {region}"),
            ));
        }
        Ok(blocks[0])
    }

    // ------------------------------------------------------------------
    // Block & op compilation
    // ------------------------------------------------------------------

    fn compile_block(&mut self, block: BlockId, on_yield: &YieldAction) -> CResult<()> {
        let ops = self.m.block(block).ops.clone();
        for op in ops {
            self.compile_op(op, on_yield)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn compile_op(&mut self, op: OpId, on_yield: &YieldAction) -> CResult<()> {
        let m = self.m;
        let name = m.op(op).name.clone();
        match name.as_str() {
            "func.return" => {
                let values = m
                    .op(op)
                    .operands
                    .iter()
                    .map(|&v| self.slot(v))
                    .collect::<CResult<Vec<_>>>()?;
                self.emit(op, Inst::Return { values });
            }
            "scf.yield" => {
                if let YieldAction::CopyTo(carries) = on_yield {
                    let carries = carries.clone();
                    let operands = m.op(op).operands.clone();
                    if operands.len() != carries.len() {
                        return Err(Self::err(op, m, "scf.for yield arity mismatch"));
                    }
                    let mut srcs = Vec::with_capacity(operands.len());
                    for &v in &operands {
                        srcs.push(self.slot(v)?);
                    }
                    // Parallel move: the walker rebinds all yielded
                    // values atomically, so a yield that reads another
                    // position's carry slot must go through a temporary
                    // before that slot is overwritten.
                    for (i, src) in srcs.iter_mut().enumerate() {
                        let conflicts = carries
                            .iter()
                            .enumerate()
                            .any(|(j, &c)| j != i && c == *src);
                        if conflicts {
                            let tmp = self.next_slot;
                            self.next_slot += 1;
                            self.emit(
                                op,
                                Inst::Copy {
                                    src: *src,
                                    out: tmp,
                                },
                            );
                            *src = tmp;
                        }
                    }
                    for (&src, &c) in srcs.iter().zip(&carries) {
                        if src != c {
                            self.emit(op, Inst::Copy { src, out: c });
                        }
                    }
                }
                // In if-bodies the yield is a pure terminator.
            }
            "arith.constant" | "torch.constant" => {
                self.compile_constant(op)?;
            }
            "torch.constant_int" => {
                let value = m
                    .op(op)
                    .int_attr("value")
                    .ok_or_else(|| Self::err(op, m, "constant_int without value"))?;
                let out = self.define(m.result(op, 0));
                self.emit(
                    op,
                    Inst::ConstInt {
                        out,
                        value,
                        index: false,
                    },
                );
            }
            "arith.addi" | "arith.subi" | "arith.muli" | "arith.divui" | "arith.remui"
            | "arith.minui" | "arith.maxui" => {
                let bin = match name.as_str() {
                    "arith.addi" => IntBinOp::Add,
                    "arith.subi" => IntBinOp::Sub,
                    "arith.muli" => IntBinOp::Mul,
                    "arith.divui" => IntBinOp::DivU,
                    "arith.remui" => IntBinOp::RemU,
                    "arith.minui" => IntBinOp::MinU,
                    _ => IntBinOp::MaxU,
                };
                let lhs = self.operand_slot(op, 0)?;
                let rhs = self.operand_slot(op, 1)?;
                let index = self.result_is_index(op);
                let out = self.define(m.result(op, 0));
                self.emit(
                    op,
                    Inst::IntBin {
                        op: bin,
                        lhs,
                        rhs,
                        out,
                        index,
                    },
                );
            }
            "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" => {
                let bin = match name.as_str() {
                    "arith.addf" => FloatBinOp::Add,
                    "arith.subf" => FloatBinOp::Sub,
                    "arith.mulf" => FloatBinOp::Mul,
                    _ => FloatBinOp::Div,
                };
                let lhs = self.operand_slot(op, 0)?;
                let rhs = self.operand_slot(op, 1)?;
                let out = self.define(m.result(op, 0));
                self.emit(
                    op,
                    Inst::FloatBin {
                        op: bin,
                        lhs,
                        rhs,
                        out,
                    },
                );
            }
            "arith.cmpi" => {
                let pred = m
                    .op(op)
                    .str_attr("predicate")
                    .and_then(CmpPred::from_keyword)
                    .ok_or_else(|| Self::err(op, m, "cmpi without a known predicate"))?;
                let lhs = self.operand_slot(op, 0)?;
                let rhs = self.operand_slot(op, 1)?;
                let out = self.define(m.result(op, 0));
                self.emit(
                    op,
                    Inst::IntCmp {
                        pred,
                        lhs,
                        rhs,
                        out,
                    },
                );
            }
            "arith.index_cast" => {
                let src = self.operand_slot(op, 0)?;
                let index = self.result_is_index(op);
                let out = self.define(m.result(op, 0));
                self.emit(op, Inst::CastIntLike { src, out, index });
            }
            "scf.for" => self.compile_loop(op, false)?,
            "scf.parallel" => self.compile_loop(op, true)?,
            "scf.if" => self.compile_if(op)?,
            "tensor.extract_slice" => self.compile_extract_slice(op)?,
            "memref.alloc" => {
                let shape = self.declared_shape(op, m.result(op, 0))?;
                let out = self.define(m.result(op, 0));
                self.emit(op, Inst::AllocBuffer { shape, out });
            }
            "memref.alloc_copy" => {
                let src = self.operand_slot(op, 0)?;
                let out = self.define(m.result(op, 0));
                self.emit(op, Inst::AllocCopy { src, out });
            }
            "memref.to_tensor" => {
                let src = self.operand_slot(op, 0)?;
                let out = self.define(m.result(op, 0));
                self.emit(op, Inst::ToTensor { src, out });
            }
            "cam.alloc_bank" => {
                let out = self.define(m.result(op, 0));
                self.emit(op, Inst::AllocBank { out });
            }
            "cam.alloc_mat" | "cam.alloc_array" | "cam.alloc_subarray" => {
                let parent = self.operand_slot(op, 0)?;
                let out = self.define(m.result(op, 0));
                let inst = match name.as_str() {
                    "cam.alloc_mat" => Inst::AllocMat { parent, out },
                    "cam.alloc_array" => Inst::AllocArray { parent, out },
                    _ => Inst::AllocSubarray { parent, out },
                };
                self.emit(op, inst);
            }
            "cam.store_handle" => {
                let table = self.operand_slot(op, 0)?;
                let pos = self.operand_slot(op, 1)?;
                let sub = self.operand_slot(op, 2)?;
                self.emit(op, Inst::StoreHandle { table, pos, sub });
            }
            "cam.load_handle" => {
                let table = self.operand_slot(op, 0)?;
                let pos = self.operand_slot(op, 1)?;
                let out = self.define(m.result(op, 0));
                self.emit(op, Inst::LoadHandle { table, pos, out });
            }
            "cam.write_value" => {
                let sub = self.operand_slot(op, 0)?;
                let data = self.operand_slot(op, 1)?;
                let row_off = self.operand_slot(op, 2)?;
                self.emit(op, Inst::WriteValue { sub, data, row_off });
            }
            "cam.search" => self.compile_search(op)?,
            "cam.read" => {
                let sub = self.operand_slot(op, 0)?;
                let shape = self.declared_shape(op, m.result(op, 0))?;
                let vals = self.define(m.result(op, 0));
                let idx = self.define(m.result(op, 1));
                self.emit(
                    op,
                    Inst::Read {
                        sub,
                        shape,
                        vals,
                        idx,
                    },
                );
            }
            "cam.merge_partial_subarray" => {
                let acc = self.operand_slot(op, 1)?;
                let vals = self.operand_slot(op, 2)?;
                let idx = self.operand_slot(op, 3)?;
                let q = self.operand_slot(op, 4)?;
                let offset = self.operand_slot(op, 5)?;
                self.emit(
                    op,
                    Inst::MergePartial {
                        acc,
                        vals,
                        idx,
                        q,
                        offset,
                    },
                );
            }
            "cam.merge_level" => {
                let level = match m.op(op).str_attr("level") {
                    Some("bank") => Level::Bank,
                    Some("mat") => Level::Mat,
                    Some("array") => Level::Array,
                    Some("subarray") => Level::Subarray,
                    other => {
                        return Err(Self::err(op, m, format!("bad merge level {other:?}")));
                    }
                };
                let elems = m.op(op).int_attr("elems").unwrap_or(1) as usize;
                self.emit(op, Inst::MergeLevel { level, elems });
            }
            "cam.phase_marker" => {
                let pname = m.op(op).str_attr("name").unwrap_or("phase").to_string();
                self.emit(
                    op,
                    Inst::PhaseMarker {
                        name: pname.into_boxed_str(),
                    },
                );
            }
            "cam.reduce" => self.compile_reduce(op)?,
            other => {
                return Err(Self::err(
                    op,
                    m,
                    format!("op '{other}' is outside the CAM-ISA surface (tape engine targets fully lowered cam-level modules)"),
                ));
            }
        }
        Ok(())
    }

    fn compile_constant(&mut self, op: OpId) -> CResult<()> {
        let m = self.m;
        let attr = m
            .op(op)
            .attr("value")
            .ok_or_else(|| Self::err(op, m, "constant without value"))?
            .clone();
        let index = self.result_is_index(op);
        let out = self.define(m.result(op, 0));
        let inst = match attr {
            Attribute::Int(value) => Inst::ConstInt { out, value, index },
            Attribute::Bool(value) => Inst::ConstBool { out, value },
            Attribute::Float(value) => Inst::ConstFloat { out, value },
            Attribute::Dense { shape, data } => {
                let shape: Vec<usize> = shape.iter().map(|&d| d as usize).collect();
                let values: Vec<f32> = (0..data.len()).map(|i| data.get_f64(i) as f32).collect();
                let tensor = Tensor::from_vec(shape, values)
                    .map_err(|e| Self::err(op, m, e.message.clone()))?;
                Inst::ConstTensor { out, tensor }
            }
            other => {
                return Err(Self::err(op, m, format!("bad constant payload {other:?}")));
            }
        };
        self.emit(op, inst);
        Ok(())
    }

    fn compile_loop(&mut self, op: OpId, parallel: bool) -> CResult<()> {
        let m = self.m;
        let lb = self.operand_slot(op, 0)?;
        let ub = self.operand_slot(op, 1)?;
        let step = self.operand_slot(op, 2)?;
        let body = self.single_block(op, 0)?;
        let args = m.block(body).args.clone();
        let iv = self.define(args[0]);

        // Iter-args: carry slots are the body's block-arg slots; inits
        // copy in, yields copy back, results alias the carries.
        let inits = m.op(op).operands[3..].to_vec();
        if parallel && !inits.is_empty() {
            return Err(Self::err(op, m, "scf.parallel cannot carry iter-args"));
        }
        if args.len() != inits.len() + 1 {
            return Err(Self::err(op, m, "loop body arity mismatch with iter-args"));
        }
        if m.op(op).results.len() != inits.len() {
            return Err(Self::err(
                op,
                m,
                "loop result count mismatch with iter-args",
            ));
        }
        let mut carries = Vec::with_capacity(inits.len());
        for (&init, &arg) in inits.iter().zip(&args[1..]) {
            let src = self.slot(init)?;
            let carry = self.define(arg);
            self.emit(op, Inst::Copy { src, out: carry });
            carries.push(carry);
        }
        for (i, &r) in m.op(op).results.iter().enumerate() {
            self.alias(r, carries[i]);
        }

        let enter = self.emit(
            op,
            Inst::LoopEnter {
                lb,
                ub,
                step,
                iv,
                exit: 0, // patched below
                parallel,
            },
        );
        let outer_depth = self.depth;
        self.depth += 1;
        let action = if carries.is_empty() {
            YieldAction::None
        } else {
            YieldAction::CopyTo(carries.clone())
        };
        self.compile_block(body, &action)?;
        self.depth -= 1;
        let next = self.emit(op, Inst::LoopNext { enter });
        let exit = next + 1;
        if let Inst::LoopEnter { exit: e, .. } = &mut self.insts[enter] {
            *e = exit;
        }

        // Query-loop candidate: see module docs for the conditions.
        if !parallel && carries.is_empty() && outer_depth == 0 && self.query_loop.is_none() {
            let body_range = &self.insts[enter + 1..next];
            let has_search = body_range.iter().any(|i| matches!(i, Inst::Search(_)));
            let has_setup = body_range.iter().any(|i| {
                matches!(
                    i,
                    Inst::AllocBank { .. }
                        | Inst::AllocMat { .. }
                        | Inst::AllocArray { .. }
                        | Inst::AllocSubarray { .. }
                        | Inst::StoreHandle { .. }
                        | Inst::WriteValue { .. }
                        | Inst::PhaseMarker { .. }
                )
            });
            let merges_row_by_iv = body_range.iter().all(|i| match i {
                Inst::MergePartial { q, .. } => *q == iv,
                _ => true,
            });
            if has_search && !has_setup && merges_row_by_iv {
                self.query_loop = Some(QueryLoop {
                    enter,
                    next,
                    exit,
                    iv,
                });
            }
        }
        Ok(())
    }

    fn compile_if(&mut self, op: OpId) -> CResult<()> {
        let cond = self.operand_slot(op, 0)?;
        if !self.m.op(op).results.is_empty() {
            return Err(Self::err(op, self.m, "scf.if with results is unsupported"));
        }
        let has_else = self.m.op(op).regions.len() > 1 && !self.m.op(op).regions[1].is_empty();
        let branch = self.emit(op, Inst::JumpIfNot { cond, target: 0 });
        self.depth += 1;
        let then_block = self.single_block(op, 0)?;
        self.compile_block(then_block, &YieldAction::None)?;
        if has_else {
            let jump_end = self.emit(op, Inst::Jump { target: 0 });
            let else_start = self.insts.len();
            if let Inst::JumpIfNot { target, .. } = &mut self.insts[branch] {
                *target = else_start;
            }
            let else_block = self.single_block(op, 1)?;
            self.compile_block(else_block, &YieldAction::None)?;
            let end = self.insts.len();
            if let Inst::Jump { target } = &mut self.insts[jump_end] {
                *target = end;
            }
        } else {
            let end = self.insts.len();
            if let Inst::JumpIfNot { target, .. } = &mut self.insts[branch] {
                *target = end;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn compile_extract_slice(&mut self, op: OpId) -> CResult<()> {
        let m = self.m;
        let data = m.op(op);
        let static_offsets = data
            .attr("static_offsets")
            .and_then(Attribute::as_int_array)
            .ok_or_else(|| Self::err(op, m, "extract_slice without static_offsets"))?;
        let sizes = data
            .attr("sizes")
            .and_then(Attribute::as_int_array)
            .ok_or_else(|| Self::err(op, m, "extract_slice without sizes"))?;
        if static_offsets.len() != 2 || sizes.len() != 2 {
            return Err(Self::err(op, m, "extract_slice supports rank-2 tensors"));
        }
        let src = self.operand_slot(op, 0)?;
        let mut dyn_idx = 1usize;
        let mut offsets = [SliceOffset::Static(0); 2];
        for (slot, &so) in offsets.iter_mut().zip(&static_offsets) {
            if so == DYNAMIC_OFFSET {
                *slot = SliceOffset::Dynamic(self.operand_slot(op, dyn_idx)?);
                dyn_idx += 1;
            } else {
                *slot = SliceOffset::Static(so);
            }
        }
        let sizes = [sizes[0] as usize, sizes[1] as usize];
        let out = self.define(m.result(op, 0));
        self.emit(
            op,
            Inst::ExtractSlice {
                src,
                offsets,
                sizes,
                out,
            },
        );
        Ok(())
    }

    fn compile_search(&mut self, op: OpId) -> CResult<()> {
        let m = self.m;
        let data = m.op(op);
        let kind = data
            .str_attr("kind")
            .and_then(MatchKind::from_keyword)
            .ok_or_else(|| Self::err(op, m, "cam.search without kind"))?;
        let metric = data
            .str_attr("metric")
            .and_then(Metric::from_keyword)
            .ok_or_else(|| Self::err(op, m, "cam.search without metric"))?;
        let selective = data
            .attr("selective")
            .and_then(Attribute::as_bool)
            .unwrap_or(false);
        let threshold = data.attr("threshold").and_then(Attribute::as_float);
        let broadcast_share = data.attr("broadcast_share").and_then(Attribute::as_float);
        let sub = self.operand_slot(op, 0)?;
        let query = self.operand_slot(op, 1)?;
        let selective = if selective {
            Some((self.operand_slot(op, 2)?, self.operand_slot(op, 3)?))
        } else {
            None
        };
        self.emit(
            op,
            Inst::Search(Box::new(SearchInst {
                sub,
                query,
                kind,
                metric,
                threshold,
                broadcast_share,
                selective,
            })),
        );
        Ok(())
    }

    fn compile_reduce(&mut self, op: OpId) -> CResult<()> {
        let m = self.m;
        let data = m.op(op);
        let k = data
            .int_attr("k")
            .ok_or_else(|| Self::err(op, m, "cam.reduce without k"))? as usize;
        let n_valid = data
            .int_attr("n_valid")
            .ok_or_else(|| Self::err(op, m, "cam.reduce without n_valid"))?
            as usize;
        let select_largest = data
            .attr("select_largest")
            .and_then(Attribute::as_bool)
            .ok_or_else(|| Self::err(op, m, "missing boolean attribute 'select_largest'"))?;
        let metric = data.str_attr("metric").unwrap_or("dot").to_string();
        let acc = self.operand_slot(op, 0)?;
        let vals_shape = self.declared_shape(op, m.result(op, 0))?;
        let idx_shape = self.declared_shape(op, m.result(op, 1))?;
        let vals = self.define(m.result(op, 0));
        let idx = self.define(m.result(op, 1));
        self.emit(
            op,
            Inst::Reduce(Box::new(ReduceInst {
                acc,
                k,
                n_valid,
                select_largest,
                metric: metric.into_boxed_str(),
                vals_shape,
                idx_shape,
                vals,
                idx,
            })),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{looped_hdc, lowered_hdc};
    use c4cam_core::dialects::torch;

    #[test]
    fn lowered_module_compiles_to_flat_tape() {
        let m = looped_hdc(1);
        let tape = Tape::compile(&m, "forward").unwrap();
        assert!(!tape.is_empty());
        assert_eq!(tape.num_args(), 2);
        assert!(tape.len() > 50, "nontrivial tape, got {}", tape.len());
        // Device ops survived as pre-resolved instructions.
        let insts = &tape.0.insts;
        assert!(insts.iter().any(|i| matches!(i, Inst::Search(_))));
        assert!(insts.iter().any(|i| matches!(i, Inst::Reduce(_))));
        assert!(insts
            .iter()
            .any(|i| matches!(i, Inst::LoopEnter { parallel: true, .. })));
    }

    #[test]
    fn query_loop_is_detected_on_lowered_modules() {
        let m = lowered_hdc(1);
        let tape = Tape::compile(&m, "forward").unwrap();
        let ql = tape.query_loop().expect("query loop detected");
        assert!(ql.enter < ql.next && ql.next + 1 == ql.exit);
        // The loop body must not contain setup instructions.
        for inst in &tape.0.insts[ql.enter + 1..ql.next] {
            assert!(
                !matches!(inst, Inst::WriteValue { .. } | Inst::AllocBank { .. }),
                "setup op inside query loop"
            );
        }
    }

    #[test]
    fn unknown_function_is_reported() {
        let m = Module::new();
        let e = Tape::compile(&m, "nope").unwrap_err();
        assert!(e.message.contains("unknown function"), "{e}");
    }

    #[test]
    fn unsupported_op_reports_name_and_id() {
        let mut m = Module::new();
        let (_, entry) = c4cam_ir::builder::build_func(&mut m, "f", &[], &[]);
        let mut b = c4cam_ir::builder::OpBuilder::at_end(&mut m, entry);
        b.op("mystery.op", &[], &[], vec![]);
        b.op("func.return", &[], &[], vec![]);
        let e = Tape::compile(&m, "f").unwrap_err();
        assert!(e.message.contains("mystery.op"), "{e}");
        assert!(e.op.is_some(), "op id attached");
        assert_eq!(e.op_name.as_deref(), Some("mystery.op"));
        assert!(e.to_string().contains("mystery.op"), "{e}");
    }

    #[test]
    fn host_level_modules_are_rejected() {
        // A torch-level module is outside the CAM-ISA surface.
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 2, 4, 64, 1);
        let e = Tape::compile(&m, "forward").unwrap_err();
        assert!(e.message.contains("CAM-ISA"), "{e}");
    }
}
