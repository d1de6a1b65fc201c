//! Query-body specialisation: the third tape pass.
//!
//! The mapped query nest (paper Fig. 6) is a loop nest whose bounds,
//! guards and index arithmetic are all fixed by the mapping at compile
//! time; only the query row varies. Interpreting it once per query is
//! pure overhead, so this pass **partially evaluates the body of the
//! query loop** and leaves its residual in place of the loops: the
//! tape becomes the static schedule.
//!
//! An abstract interpretation over {known integer, the query induction
//! variable, unknown} — plus the symbolic pieces of a search triple: a
//! loaded handle, a query slice, a read result — follows the body's
//! control flow exactly as the VM would. Constant-bound loops are
//! unrolled, constant branches taken, scalar arithmetic folded, and
//! what remains is emitted as a straight line:
//!
//! * [`Inst::ScopeEnter`] / [`Inst::ScopeExit`] exactly where
//!   `LoopEnter` / `LoopNext` of an `scf.parallel` would have opened and
//!   closed a timing scope — empty ranges and guarded-out iterations
//!   included, because the scope order is what keeps latency bits
//!   identical to the walker;
//! * [`Inst::MergeLevel`] unchanged;
//! * one [`Inst::SearchMerge`] per canonical search → read → merge
//!   triple, its handle position, query window, selective window and
//!   accumulator offset all constants.
//!
//! Device call order and scope order are preserved by construction, so
//! outputs, statistics and traces do not change.
//!
//! The pass is conservative and all-or-nothing: anything it cannot
//! prove leaves the tape exactly as it was, with the reason recorded
//! ([`Unspecialised`]). The residual does not depend on the query
//! loop's own bounds, which are never read: one query or a thousand get
//! the same schedule. Unrolling is bounded by two constants
//! ([`MAX_STEPS`], [`MAX_RESIDUAL`]), not options: hostile bounds must
//! neither hang nor balloon the compiler.

use crate::compile::{inst_defs, inst_uses, TapeData, Unspecialised};
use crate::isa::{Inst, PreConst, QueryLoop, SearchMergeInst, SliceOffset, Slot, SrcOp};
use crate::opt::remap_pcs;

/// Instructions the abstract interpreter may step through.
const MAX_STEPS: usize = 1 << 20;
/// Instructions the residual may hold.
const MAX_RESIDUAL: usize = 1 << 16;

/// What the interpreter knows about a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Abs {
    /// Nothing: defined at run time, or carried from an earlier trip.
    Unknown,
    /// A known integer; booleans are `0`/`1`, exactly as
    /// `Value::as_int` / `Value::as_bool` convert between the two.
    Const(i64),
    /// The query loop's induction variable.
    Iv,
    /// A subarray handle loaded from `table[pos]`.
    Handle { table: Slot, pos: usize },
    /// The `[1, width]` window of `src` at row `Iv`, column `col`.
    Slice { src: Slot, col: usize, width: usize },
    /// A result of the pending triple's `cam.read`.
    Read,
}

/// An unrolled loop.
struct Frame {
    iv_slot: Slot,
    iv: i64,
    ub: i64,
    step: i64,
    body: usize,
    parallel: bool,
}

/// A search whose read and merge have not been seen yet.
struct Pending {
    /// pc of the `Search` (the fused instruction's source op).
    pc: usize,
    inst: SearchMergeInst,
    /// `(vals, idx)` slots of the `Read`, once seen.
    read: Option<(Slot, Slot)>,
}

struct Interp<'t> {
    insts: &'t [Inst],
    src_ops: &'t [c4cam_ir::OpId],
    src_names: &'t [u16],
    abs: Vec<Abs>,
    /// Slots some instruction of the body defines.
    body_defs: Vec<bool>,
    frames: Vec<Frame>,
    pending: Option<Pending>,
    /// The residual, each instruction with the pc it came from.
    out: Vec<(Inst, usize)>,
}

type Fold<T> = Result<T, Unspecialised>;

impl Interp<'_> {
    fn int(&self, s: Slot) -> Fold<i64> {
        match self.abs[s as usize] {
            Abs::Const(v) => Ok(v),
            Abs::Iv => Err(Unspecialised::IvEscapes),
            _ => Err(Unspecialised::NotConstant),
        }
    }

    /// A known integer used as an address: the VM's `as usize` of a
    /// negative value is a run-time error the loops must keep raising.
    fn address(&self, s: Slot) -> Fold<usize> {
        usize::try_from(self.int(s)?).map_err(|_| Unspecialised::NonCanonical)
    }

    /// `s`, provided no instruction of the body writes it.
    fn invariant(&self, s: Slot) -> Fold<Slot> {
        if self.body_defs[s as usize] {
            return Err(Unspecialised::NonCanonical);
        }
        Ok(s)
    }

    fn set(&mut self, s: Slot, v: Abs) {
        self.abs[s as usize] = v;
    }

    /// Source op of the instruction at `pc`.
    fn src(&self, pc: usize) -> SrcOp {
        (self.src_ops[pc], self.src_names[pc])
    }

    fn emit(&mut self, inst: Inst, pc: usize) -> Fold<()> {
        // Nothing may come between the members of a triple: the fused
        // instruction issues them back to back.
        if self.pending.is_some() {
            return Err(Unspecialised::NonCanonical);
        }
        if self.out.len() >= MAX_RESIDUAL {
            return Err(Unspecialised::OverBudget);
        }
        self.out.push((inst, pc));
        Ok(())
    }

    /// Interpret the instruction at `pc`; returns the next pc.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, pc: usize) -> Fold<usize> {
        match &self.insts[pc] {
            Inst::IntBin {
                op, lhs, rhs, out, ..
            } => {
                let r = op.eval(self.int(*lhs)?, self.int(*rhs)?);
                self.set(
                    *out,
                    Abs::Const(r.map_err(|_| Unspecialised::NonCanonical)?),
                );
            }
            Inst::IntBinImm {
                op, lhs, imm, out, ..
            } => {
                let r = op.eval(self.int(*lhs)?, *imm);
                self.set(
                    *out,
                    Abs::Const(r.map_err(|_| Unspecialised::NonCanonical)?),
                );
            }
            Inst::IntCmp {
                pred,
                lhs,
                rhs,
                out,
            } => {
                let r = pred.eval(self.int(*lhs)?, self.int(*rhs)?);
                self.set(*out, Abs::Const(i64::from(r)));
            }
            Inst::IntCmpImm {
                pred,
                lhs,
                imm,
                out,
            } => {
                let r = pred.eval(self.int(*lhs)?, *imm);
                self.set(*out, Abs::Const(i64::from(r)));
            }
            Inst::CastIntLike { src, out, .. } => {
                let v = self.int(*src)?;
                self.set(*out, Abs::Const(v));
            }
            Inst::Jump { target } => return Ok(*target),
            Inst::JumpIfNot { cond, target } => {
                if self.int(*cond)? == 0 {
                    return Ok(*target);
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
                let (lb, ub, step) = (self.int(*lb)?, self.int(*ub)?, self.int(*step)?);
                if step <= 0 {
                    // A run-time error the loops must keep raising.
                    return Err(Unspecialised::NonCanonical);
                }
                if *parallel {
                    self.emit(Inst::ScopeEnter { parallel: true }, pc)?;
                }
                if lb >= ub {
                    if *parallel {
                        self.emit(Inst::ScopeExit, pc)?;
                    }
                    return Ok(*exit);
                }
                self.frames.push(Frame {
                    iv_slot: *iv,
                    iv: lb,
                    ub,
                    step,
                    body: pc + 1,
                    parallel: *parallel,
                });
                self.set(*iv, Abs::Const(lb));
                if *parallel {
                    self.emit(Inst::ScopeEnter { parallel: false }, pc)?;
                }
            }
            Inst::LoopNext { .. } => {
                let f = self.frames.last_mut().ok_or(Unspecialised::NonCanonical)?;
                f.iv =
                    f.iv.checked_add(f.step)
                        .ok_or(Unspecialised::NonCanonical)?;
                let (iv_slot, iv, ub, body, parallel) = (f.iv_slot, f.iv, f.ub, f.body, f.parallel);
                if parallel {
                    self.emit(Inst::ScopeExit, pc)?; // this iteration's scope
                }
                if iv < ub {
                    self.set(iv_slot, Abs::Const(iv));
                    if parallel {
                        self.emit(Inst::ScopeEnter { parallel: false }, pc)?;
                    }
                    return Ok(body);
                }
                self.frames.pop();
                if parallel {
                    self.emit(Inst::ScopeExit, pc)?; // the loop's scope
                }
            }
            Inst::LoadHandle { table, pos, out } => {
                let handle = Abs::Handle {
                    table: self.invariant(*table)?,
                    pos: self.address(*pos)?,
                };
                self.set(*out, handle);
            }
            Inst::ExtractSlice {
                src,
                offsets,
                sizes,
                out,
            } => {
                let row_is_iv = matches!(offsets[0],
                    SliceOffset::Dynamic(s) if self.abs[s as usize] == Abs::Iv);
                if !row_is_iv || sizes[0] != 1 {
                    return Err(Unspecialised::NonCanonical);
                }
                let col = match offsets[1] {
                    SliceOffset::Static(v) => {
                        usize::try_from(v).map_err(|_| Unspecialised::NonCanonical)?
                    }
                    SliceOffset::Dynamic(s) => self.address(s)?,
                };
                let slice = Abs::Slice {
                    src: self.invariant(*src)?,
                    col,
                    width: sizes[1],
                };
                self.set(*out, slice);
            }
            Inst::Search(s) => {
                let (Abs::Handle { table, pos }, Abs::Slice { src, col, width }, None) = (
                    self.abs[s.sub as usize],
                    self.abs[s.query as usize],
                    &self.pending,
                ) else {
                    return Err(Unspecialised::NonCanonical);
                };
                let selective = match s.selective {
                    Some((start, len)) => Some((self.address(start)?, self.address(len)?)),
                    None => None,
                };
                self.pending = Some(Pending {
                    pc,
                    inst: SearchMergeInst {
                        table,
                        pos,
                        query: src,
                        row: 0, // the query loop's IV; filled in on merge
                        col,
                        width,
                        kind: s.kind,
                        metric: s.metric,
                        threshold: s.threshold,
                        broadcast_share: s.broadcast_share,
                        selective,
                        shape: Vec::new(),
                        acc: 0,
                        offset: 0,
                        read_src: self.src(pc),  // filled in on read
                        merge_src: self.src(pc), // filled in on merge
                    },
                    read: None,
                });
            }
            Inst::Read {
                sub,
                shape,
                vals,
                idx,
            } => {
                let (searched, src) = (self.abs[*sub as usize], self.src(pc));
                match &mut self.pending {
                    Some(p)
                        if p.read.is_none()
                            && searched
                                == (Abs::Handle {
                                    table: p.inst.table,
                                    pos: p.inst.pos,
                                }) =>
                    {
                        p.inst.shape.clone_from(shape);
                        p.inst.read_src = src;
                        p.read = Some((*vals, *idx));
                    }
                    _ => return Err(Unspecialised::NonCanonical),
                }
                self.set(*vals, Abs::Read);
                self.set(*idx, Abs::Read);
            }
            Inst::MergePartial {
                acc,
                vals,
                idx,
                q,
                offset,
            } => {
                let Some(Pending {
                    pc: search_pc,
                    mut inst,
                    read: Some(read),
                }) = self.pending.take()
                else {
                    return Err(Unspecialised::NonCanonical);
                };
                let merges_the_read = read == (*vals, *idx)
                    && self.abs[*vals as usize] == Abs::Read
                    && self.abs[*idx as usize] == Abs::Read;
                if !merges_the_read || self.abs[*q as usize] != Abs::Iv {
                    return Err(Unspecialised::NonCanonical);
                }
                inst.row = *q;
                inst.acc = self.invariant(*acc)?;
                inst.offset = self.int(*offset)?;
                inst.merge_src = self.src(pc);
                self.emit(Inst::SearchMerge(Box::new(inst)), search_pc)?;
            }
            Inst::MergeLevel { .. } => self.emit(self.insts[pc].clone(), pc)?,
            _ => return Err(Unspecialised::NonCanonical),
        }
        Ok(pc + 1)
    }
}

/// Partially evaluate the query body in place (see the module docs).
///
/// # Errors
/// The reason the tape was left exactly as it was.
pub(crate) fn specialize(tape: &mut TapeData) -> Result<(), Unspecialised> {
    let ql = tape.query_loop.ok_or(Unspecialised::NoQueryLoop)?;
    let mut abs = vec![Abs::Unknown; tape.n_slots];
    for &(s, c) in &tape.preload {
        abs[s as usize] = match c {
            PreConst::Index(v) | PreConst::Int(v) => Abs::Const(v),
            PreConst::Bool(b) => Abs::Const(i64::from(b)),
            PreConst::Float(_) => Abs::Unknown,
        };
    }
    let mut body_defs = vec![false; tape.n_slots];
    for inst in &tape.insts[ql.enter + 1..ql.next] {
        inst_defs(inst, |s| body_defs[s as usize] = true);
    }
    let mut interp = Interp {
        insts: &tape.insts,
        src_ops: &tape.src_ops,
        src_names: &tape.src_names,
        abs,
        body_defs,
        frames: Vec::new(),
        pending: None,
        out: Vec::new(),
    };
    if !body_is_closed(&tape.insts, ql, &interp.body_defs) {
        return Err(Unspecialised::NonCanonical);
    }
    interp.set(ql.iv, Abs::Iv);

    let mut pc = ql.enter + 1;
    let mut steps = 0usize;
    while pc != ql.next {
        steps += 1;
        if steps > MAX_STEPS {
            return Err(Unspecialised::OverBudget);
        }
        if pc <= ql.enter || pc > ql.next {
            return Err(Unspecialised::NonCanonical);
        }
        pc = interp.step(pc)?;
    }
    if interp.pending.is_some() || !interp.frames.is_empty() {
        return Err(Unspecialised::NonCanonical);
    }
    let residual = interp.out;

    // Splice the residual in place of the body.
    let (body_start, old_len, new_len) = (ql.enter + 1, ql.next - ql.enter - 1, residual.len());
    remap_pcs(tape, |pc| {
        if pc < ql.next {
            pc
        } else {
            pc - old_len + new_len
        }
    });
    let src_ops: Vec<_> = residual.iter().map(|&(_, pc)| tape.src_ops[pc]).collect();
    let src_names: Vec<_> = residual.iter().map(|&(_, pc)| tape.src_names[pc]).collect();
    let body = body_start..body_start + old_len;
    tape.src_ops.splice(body.clone(), src_ops);
    tape.src_names.splice(body.clone(), src_names);
    tape.insts
        .splice(body, residual.into_iter().map(|(inst, _)| inst));
    Ok(())
}

/// Whether the rest of the tape is independent of how the body is
/// spelled: nothing outside it jumps into it or reads a slot it
/// defines (the residual no longer writes the body's scalars).
fn body_is_closed(insts: &[Inst], ql: QueryLoop, body_defs: &[bool]) -> bool {
    let inside = |pc: usize| ql.enter < pc && pc < ql.next;
    insts.iter().enumerate().all(|(pc, inst)| {
        if inside(pc) {
            return true;
        }
        let mut closed = true;
        inst_uses(inst, |s| closed &= !body_defs[s as usize]);
        closed
            && match *inst {
                Inst::Jump { target } | Inst::JumpIfNot { target, .. } => !inside(target),
                Inst::LoopEnter { exit, .. } => !inside(exit),
                Inst::LoopNext { enter } => !inside(enter),
                _ => true,
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Tape;
    use crate::testing::{empty_loop, keep_query_loops, lowered_hdc, query_nest, QueryNest};
    use c4cam_core::dialects::scf;
    use c4cam_ir::builder::OpBuilder;
    use c4cam_ir::Module;

    /// A mapped HDC module at `queries` queries, edited by `edit`.
    fn lowered(queries: i64, edit: impl FnOnce(&mut Module, &QueryNest)) -> Module {
        let mut m = lowered_hdc(queries);
        let nest = query_nest(&m, "forward");
        edit(&mut m, &nest);
        m
    }

    fn body(tape: &Tape) -> &[Inst] {
        let ql = tape.query_loop().expect("query loop");
        &tape.0.insts[ql.enter + 1..ql.next]
    }

    #[test]
    fn any_query_count_flattens_the_body() {
        for queries in [1, 2] {
            let flat = Tape::compile(&lowered(queries, |_, _| {}), "forward").unwrap();
            assert_eq!(flat.specialised(), Ok(()));
            // 4 classes x 64 dims on 16 x 16 subarrays: four column chunks.
            let fused = body(&flat)
                .iter()
                .filter(|i| matches!(i, Inst::SearchMerge(_)));
            assert_eq!(fused.count(), 4);
            assert!(body(&flat).iter().all(|i| matches!(
                i,
                Inst::SearchMerge(_)
                    | Inst::ScopeEnter { .. }
                    | Inst::ScopeExit
                    | Inst::MergeLevel { .. }
            )));
        }
    }

    /// The module `edit` produces must compile to a tape left
    /// unspecialised for `why`, its query body still the loops the
    /// module spelled.
    fn assert_bails(why: Unspecialised, edit: impl FnOnce(&mut Module, &QueryNest)) {
        let tape = Tape::compile(&lowered(2, edit), "forward").unwrap();
        assert_eq!(tape.specialised(), Err(why));
        assert!(body(&tape).iter().any(|i| matches!(i, Inst::Search(_))));
        assert!(body(&tape)
            .iter()
            .any(|i| matches!(i, Inst::LoopEnter { .. })));
    }

    #[test]
    fn a_hostile_trip_count_hits_the_budget_not_the_clock() {
        let start = std::time::Instant::now();
        assert_bails(Unspecialised::OverBudget, |m, nest| {
            empty_loop(m, nest.head, 1_000_000_000_000, false);
        });
        assert!(start.elapsed().as_secs_f64() < 1.0, "{:?}", start.elapsed());
    }

    #[test]
    fn a_residual_past_the_budget_is_not_emitted() {
        // 10^5 parallel trips would emit two scope ops each.
        assert_bails(Unspecialised::OverBudget, |m, nest| {
            empty_loop(m, nest.head, 100_000, true);
        });
    }

    #[test]
    fn anything_unproven_leaves_the_loops() {
        // The query index feeding arithmetic.
        assert_bails(Unspecialised::IvEscapes, |m, _| {
            keep_query_loops(m, "forward");
        });
        // A loop bound computed at run time, ahead of the query loop.
        assert_bails(Unspecialised::NotConstant, |m, nest| {
            let mut b = OpBuilder::before(m, nest.query_loop);
            let (two, ty) = (b.const_index(2), b.module().index_ty());
            let sum = b.op("arith.addi", &[two, two], &[ty], vec![]);
            let ub = m.result(sum, 0);
            let mut b = OpBuilder::before(m, nest.head);
            let (lb, step) = (b.const_index(0), b.const_index(1));
            let (_, empty, _) = scf::build_for(&mut b, lb, ub, step);
            scf::end_body(m, empty, &[]);
        });
        // An allocation in the body.
        assert_bails(Unspecialised::NonCanonical, |m, nest| {
            let mut b = OpBuilder::before(m, nest.head);
            let f32t = b.module().f32_ty();
            let ty = b.module().memref_ty(&[4], f32t);
            b.op("memref.alloc", &[], &[ty], vec![]);
        });
    }
}
