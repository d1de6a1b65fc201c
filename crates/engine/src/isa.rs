//! The flat CAM-ISA: the instruction set the tape compiler targets.
//!
//! A lowered cam-level module is a small, regular program — allocation
//! and programming nests, a query loop of search/read/merge triples, and
//! a final reduce. The ISA captures exactly that surface as a flat
//! `Vec<Inst>` over a dense register file of *value slots*: every SSA
//! value of the source function is assigned one slot at compile time, so
//! execution never touches IR structures, string op names, or attribute
//! dictionaries.
//!
//! Control flow is explicit program-counter arithmetic:
//!
//! * structured `scf.if` becomes [`Inst::JumpIfNot`] / [`Inst::Jump`];
//! * `scf.for` / `scf.parallel` become a [`Inst::LoopEnter`] /
//!   [`Inst::LoopNext`] bracket. A parallel loop additionally drives the
//!   machine's timing scopes exactly like the tree-walking interpreter
//!   (parallel scope around the loop, a sequential scope per iteration),
//!   so energy/latency accounting is bit-compatible.
//!
//! Device instructions hold *pre-resolved* operands: search kind,
//! metric, threshold and broadcast share are baked into
//! [`SearchInst`] at compile time; `cam.read`/`cam.reduce` carry their
//! declared result shapes; merge levels are parsed once.
//!
//! Three instructions exist only in a *specialised* query body — the
//! straight-line residual the tape's third pass leaves when it
//! partially evaluates the query nest: [`Inst::ScopeEnter`] /
//! [`Inst::ScopeExit`] open and close the timing scopes the unrolled
//! parallel loops would have, and [`Inst::SearchMerge`] is one
//! search → read → merge triple with every address folded to a
//! constant ([`SearchMergeInst`]).

use c4cam_arch::tech::Level;
use c4cam_arch::{MatchKind, Metric};
use c4cam_ir::OpId;
use c4cam_tensor::Tensor;

/// Index of a value slot in the tape's register file.
pub type Slot = u32;

/// A source op as error attribution needs it: the op and the index of
/// its name among the tape's interned op names.
pub type SrcOp = (OpId, u16);

/// Integer ALU operations (`arith.*i` on `index`/`iN` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntBinOp {
    /// `arith.addi` (wrapping).
    Add,
    /// `arith.subi` (wrapping).
    Sub,
    /// `arith.muli` (wrapping).
    Mul,
    /// `arith.divui` (unsigned; traps on zero).
    DivU,
    /// `arith.remui` (unsigned; traps on zero).
    RemU,
    /// `arith.minui` (unsigned).
    MinU,
    /// `arith.maxui` (unsigned).
    MaxU,
}

impl IntBinOp {
    /// Whether `op(a, b) == op(b, a)` — the condition for folding a
    /// constant *left* operand into [`Inst::IntBinImm`], whose
    /// immediate sits on the right.
    pub fn commutes(self) -> bool {
        matches!(
            self,
            IntBinOp::Add | IntBinOp::Mul | IntBinOp::MinU | IntBinOp::MaxU
        )
    }

    /// Evaluate the operation — the one definition the VM executes and
    /// the specialisation pass folds with.
    ///
    /// # Errors
    /// Division or remainder by zero.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> Result<i64, &'static str> {
        Ok(match self {
            IntBinOp::Add => a.wrapping_add(b),
            IntBinOp::Sub => a.wrapping_sub(b),
            IntBinOp::Mul => a.wrapping_mul(b),
            IntBinOp::DivU => {
                if b == 0 {
                    return Err("division by zero in arith.divui");
                }
                ((a as u64) / (b as u64)) as i64
            }
            IntBinOp::RemU => {
                if b == 0 {
                    return Err("division by zero in arith.remui");
                }
                ((a as u64) % (b as u64)) as i64
            }
            IntBinOp::MinU => ((a as u64).min(b as u64)) as i64,
            IntBinOp::MaxU => ((a as u64).max(b as u64)) as i64,
        })
    }
}

/// Float ALU operations (`arith.*f`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatBinOp {
    /// `arith.addf`.
    Add,
    /// `arith.subf`.
    Sub,
    /// `arith.mulf`.
    Mul,
    /// `arith.divf`.
    Div,
}

/// `arith.cmpi` predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
}

impl CmpPred {
    /// The predicate with its operands exchanged: `swap().eval(b, a)`
    /// equals `eval(a, b)` (used when folding a constant *left* operand
    /// into [`Inst::IntCmpImm`], whose immediate sits on the right).
    pub fn swap(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Eq,
            CmpPred::Ne => CmpPred::Ne,
            CmpPred::Slt => CmpPred::Sgt,
            CmpPred::Sle => CmpPred::Sge,
            CmpPred::Sgt => CmpPred::Slt,
            CmpPred::Sge => CmpPred::Sle,
            CmpPred::Ult => CmpPred::Ugt,
            CmpPred::Ule => CmpPred::Uge,
            CmpPred::Ugt => CmpPred::Ult,
            CmpPred::Uge => CmpPred::Ule,
        }
    }

    /// Parse the `arith.cmpi` predicate keyword.
    pub fn from_keyword(s: &str) -> Option<CmpPred> {
        Some(match s {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "slt" => CmpPred::Slt,
            "sle" => CmpPred::Sle,
            "sgt" => CmpPred::Sgt,
            "sge" => CmpPred::Sge,
            "ult" => CmpPred::Ult,
            "ule" => CmpPred::Ule,
            "ugt" => CmpPred::Ugt,
            "uge" => CmpPred::Uge,
            _ => return None,
        })
    }

    /// Evaluate the predicate.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Slt => a < b,
            CmpPred::Sle => a <= b,
            CmpPred::Sgt => a > b,
            CmpPred::Sge => a >= b,
            CmpPred::Ult => (a as u64) < (b as u64),
            CmpPred::Ule => (a as u64) <= (b as u64),
            CmpPred::Ugt => (a as u64) > (b as u64),
            CmpPred::Uge => (a as u64) >= (b as u64),
        }
    }
}

/// One `tensor.extract_slice` offset: a compile-time constant or a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceOffset {
    /// Static offset from the `static_offsets` attribute.
    Static(i64),
    /// Dynamic offset read from a slot.
    Dynamic(Slot),
}

/// Pre-resolved `cam.search`: everything the subarray search needs
/// except the runtime query data and (for selective search) the row
/// window bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchInst {
    /// Subarray handle slot.
    pub sub: Slot,
    /// Query tensor slot.
    pub query: Slot,
    /// Match scheme.
    pub kind: MatchKind,
    /// Distance metric.
    pub metric: Metric,
    /// Threshold-match radius, when the op declares one.
    pub threshold: Option<f64>,
    /// Broadcast-share fraction, when the op declares one.
    pub broadcast_share: Option<f64>,
    /// Selective-search row window `(start, len)` slots.
    pub selective: Option<(Slot, Slot)>,
}

/// One canonical `cam.search` → `cam.read` →
/// `cam.merge_partial_subarray` triple of the query body with every
/// address folded to a constant by the specialisation pass: what is left
/// for run time is the handle-table load, the query row selected by
/// the query loop's induction variable, and the accumulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchMergeInst {
    /// Handle-table buffer slot.
    pub table: Slot,
    /// Constant position of the subarray's handle in the table.
    pub pos: usize,
    /// Query tensor slot (rank 2, loop-invariant).
    pub query: Slot,
    /// Query-loop induction-variable slot: the query row searched and
    /// the accumulator row merged into.
    pub row: Slot,
    /// Constant first column of the query window.
    pub col: usize,
    /// Query window width (columns).
    pub width: usize,
    /// Match scheme.
    pub kind: MatchKind,
    /// Distance metric.
    pub metric: Metric,
    /// Threshold-match radius, when the search declares one.
    pub threshold: Option<f64>,
    /// Broadcast-share fraction, when the search declares one.
    pub broadcast_share: Option<f64>,
    /// Constant selective-search row window `(start, len)`.
    pub selective: Option<(usize, usize)>,
    /// Declared shape of the `cam.read` results (bounds the merge).
    pub shape: Vec<usize>,
    /// Accumulator buffer slot.
    pub acc: Slot,
    /// Constant column offset of this subarray's partial scores.
    pub offset: i64,
    /// The `cam.read` the instruction absorbed. The tape's per-pc source
    /// op is the `cam.search`; run-time errors of the read and merge
    /// halves are attributed to their own ops, as on a looped body.
    pub read_src: SrcOp,
    /// The `cam.merge_partial_subarray` the instruction absorbed.
    pub merge_src: SrcOp,
}

/// Pre-resolved `cam.reduce`: the final host-side top-k.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceInst {
    /// Accumulator buffer slot.
    pub acc: Slot,
    /// Neighbours to keep.
    pub k: usize,
    /// Valid accumulator columns.
    pub n_valid: usize,
    /// Select largest (device-score convention already folded in).
    pub select_largest: bool,
    /// Metric keyword (drives the device-score inversion).
    pub metric: Box<str>,
    /// Declared shape of the values result.
    pub vals_shape: Vec<usize>,
    /// Declared shape of the indices result.
    pub idx_shape: Vec<usize>,
    /// Output slot for the values buffer.
    pub vals: Slot,
    /// Output slot for the indices buffer.
    pub idx: Slot,
}

/// One instruction of the flat CAM-ISA.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Load an integer constant (`index` or `iN` typed).
    ConstInt {
        /// Destination slot.
        out: Slot,
        /// Constant payload.
        value: i64,
        /// Whether the result is `index`-typed.
        index: bool,
    },
    /// Load a float constant.
    ConstFloat {
        /// Destination slot.
        out: Slot,
        /// Constant payload.
        value: f64,
    },
    /// Load a boolean constant.
    ConstBool {
        /// Destination slot.
        out: Slot,
        /// Constant payload.
        value: bool,
    },
    /// Load a dense tensor constant.
    ConstTensor {
        /// Destination slot.
        out: Slot,
        /// Constant payload.
        tensor: Tensor,
    },
    /// Copy a slot (loop iter-arg plumbing).
    Copy {
        /// Source slot.
        src: Slot,
        /// Destination slot.
        out: Slot,
    },
    /// Integer ALU op.
    IntBin {
        /// Operation.
        op: IntBinOp,
        /// Left operand slot.
        lhs: Slot,
        /// Right operand slot.
        rhs: Slot,
        /// Destination slot.
        out: Slot,
        /// Whether the result is `index`-typed.
        index: bool,
    },
    /// Float ALU op.
    FloatBin {
        /// Operation.
        op: FloatBinOp,
        /// Left operand slot.
        lhs: Slot,
        /// Right operand slot.
        rhs: Slot,
        /// Destination slot.
        out: Slot,
    },
    /// Integer ALU op with a constant right operand (peephole-fused
    /// from [`Inst::IntBin`] by the tape optimizer).
    IntBinImm {
        /// Operation.
        op: IntBinOp,
        /// Left operand slot.
        lhs: Slot,
        /// Constant right operand.
        imm: i64,
        /// Destination slot.
        out: Slot,
        /// Whether the result is `index`-typed.
        index: bool,
    },
    /// Integer comparison.
    IntCmp {
        /// Predicate.
        pred: CmpPred,
        /// Left operand slot.
        lhs: Slot,
        /// Right operand slot.
        rhs: Slot,
        /// Destination slot.
        out: Slot,
    },
    /// Integer comparison against a constant right operand
    /// (peephole-fused from [`Inst::IntCmp`] by the tape optimizer).
    IntCmpImm {
        /// Predicate.
        pred: CmpPred,
        /// Left operand slot.
        lhs: Slot,
        /// Constant right operand.
        imm: i64,
        /// Destination slot.
        out: Slot,
    },
    /// `arith.index_cast`: re-tag an integer value.
    CastIntLike {
        /// Source slot.
        src: Slot,
        /// Destination slot.
        out: Slot,
        /// Whether the result is `index`-typed.
        index: bool,
    },
    /// Unconditional jump.
    Jump {
        /// Target pc.
        target: usize,
    },
    /// Jump when the condition slot is false.
    JumpIfNot {
        /// Condition slot (`i1`).
        cond: Slot,
        /// Target pc.
        target: usize,
    },
    /// Open a counted loop (`scf.for` / `scf.parallel`).
    LoopEnter {
        /// Lower bound slot.
        lb: Slot,
        /// Upper bound slot.
        ub: Slot,
        /// Step slot.
        step: Slot,
        /// Induction-variable slot.
        iv: Slot,
        /// pc just past the matching [`Inst::LoopNext`].
        exit: usize,
        /// `scf.parallel`: drive the machine's timing scopes.
        parallel: bool,
    },
    /// Close one loop iteration (back-edge or fall-through).
    LoopNext {
        /// pc of the matching [`Inst::LoopEnter`].
        enter: usize,
    },
    /// Return from the function.
    Return {
        /// Result slots.
        values: Vec<Slot>,
    },
    /// `tensor.extract_slice` (rank-2, clamped + zero-padded window).
    ExtractSlice {
        /// Source tensor/buffer slot.
        src: Slot,
        /// Row/column offsets.
        offsets: [SliceOffset; 2],
        /// Window size.
        sizes: [usize; 2],
        /// Destination slot.
        out: Slot,
    },
    /// `memref.alloc`: fresh zeroed buffer.
    AllocBuffer {
        /// Buffer shape.
        shape: Vec<usize>,
        /// Destination slot.
        out: Slot,
    },
    /// `memref.alloc_copy`: buffer initialized from a tensor.
    AllocCopy {
        /// Source tensor slot.
        src: Slot,
        /// Destination slot.
        out: Slot,
    },
    /// `memref.to_tensor`: snapshot a buffer.
    ToTensor {
        /// Source buffer slot.
        src: Slot,
        /// Destination slot.
        out: Slot,
    },
    /// `cam.alloc_bank`.
    AllocBank {
        /// Destination slot.
        out: Slot,
    },
    /// `cam.alloc_mat`.
    AllocMat {
        /// Parent bank handle slot.
        parent: Slot,
        /// Destination slot.
        out: Slot,
    },
    /// `cam.alloc_array`.
    AllocArray {
        /// Parent mat handle slot.
        parent: Slot,
        /// Destination slot.
        out: Slot,
    },
    /// `cam.alloc_subarray`.
    AllocSubarray {
        /// Parent array handle slot.
        parent: Slot,
        /// Destination slot.
        out: Slot,
    },
    /// `cam.store_handle`: record a subarray id in the address table.
    StoreHandle {
        /// Handle-table buffer slot.
        table: Slot,
        /// Position slot.
        pos: Slot,
        /// Subarray handle slot.
        sub: Slot,
    },
    /// `cam.load_handle`: fetch a subarray id from the address table.
    LoadHandle {
        /// Handle-table buffer slot.
        table: Slot,
        /// Position slot.
        pos: Slot,
        /// Destination slot.
        out: Slot,
    },
    /// `cam.write_value`: program stored rows.
    WriteValue {
        /// Subarray handle slot.
        sub: Slot,
        /// Row-data tensor slot.
        data: Slot,
        /// Row-offset slot.
        row_off: Slot,
    },
    /// `cam.search` with a pre-resolved [`SearchInst`].
    Search(Box<SearchInst>),
    /// `cam.read`: read back the last search result.
    Read {
        /// Subarray handle slot.
        sub: Slot,
        /// Declared result shape.
        shape: Vec<usize>,
        /// Output slot for the values buffer.
        vals: Slot,
        /// Output slot for the indices buffer.
        idx: Slot,
    },
    /// `cam.merge_partial_subarray`: scatter-accumulate partial scores.
    MergePartial {
        /// Accumulator buffer slot.
        acc: Slot,
        /// Partial values slot.
        vals: Slot,
        /// Partial indices slot.
        idx: Slot,
        /// Query-row slot.
        q: Slot,
        /// Column-offset slot.
        offset: Slot,
    },
    /// `cam.merge_level`: charge one periphery merge.
    MergeLevel {
        /// Hierarchy level of the merge.
        level: Level,
        /// Elements merged.
        elems: usize,
    },
    /// `cam.phase_marker`: snapshot cumulative statistics.
    PhaseMarker {
        /// Phase name.
        name: Box<str>,
    },
    /// `cam.reduce` with a pre-resolved [`ReduceInst`].
    Reduce(Box<ReduceInst>),
    /// Open a timing scope where an unrolled [`Inst::LoopEnter`] /
    /// [`Inst::LoopNext`] of an `scf.parallel` would have (emitted by
    /// the specialisation pass).
    ScopeEnter {
        /// The loop's parallel scope (`true`) or one iteration's
        /// sequential scope (`false`).
        parallel: bool,
    },
    /// Close the innermost timing scope.
    ScopeExit,
    /// Fused search → read → merge with a pre-resolved
    /// [`SearchMergeInst`].
    SearchMerge(Box<SearchMergeInst>),
}

/// A scalar constant the tape optimizer stripped from the instruction
/// stream: its slot is preloaded once at VM construction instead of
/// being rewritten on every pass over the tape. (A dedicated plain-data
/// enum rather than a runtime `Value` so `Tape` stays `Send + Sync` —
/// tapes are shared across shard worker threads.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreConst {
    /// `index`-typed integer.
    Index(i64),
    /// `iN`-typed integer.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
}

/// The sequential query loop the batched executor shards across worker
/// threads (detected at compile time; see the compiler docs for the
/// independence conditions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryLoop {
    /// pc of the loop's [`Inst::LoopEnter`].
    pub enter: usize,
    /// pc of the loop's [`Inst::LoopNext`].
    pub next: usize,
    /// pc just past the loop.
    pub exit: usize,
    /// Induction-variable slot.
    pub iv: Slot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instructions_stay_one_cache_line() {
        // The fused search is boxed like `Search` and `Reduce`, so the
        // three specialisation variants leave the dispatch stride where
        // `ExtractSlice` put it. `ConstTensor` holds a shape and one
        // pointer to shared storage, so it is no wider.
        assert_eq!(std::mem::size_of::<Inst>(), 56);
    }

    #[test]
    fn cmp_predicates_cover_signed_and_unsigned() {
        assert!(!CmpPred::from_keyword("ult").unwrap().eval(-1, 1));
        assert!(CmpPred::from_keyword("slt").unwrap().eval(-1, 1));
        assert!(CmpPred::from_keyword("uge").unwrap().eval(-1, 1));
        assert!(CmpPred::from_keyword("eq").unwrap().eval(3, 3));
        assert!(CmpPred::from_keyword("frob").is_none());
    }
}
