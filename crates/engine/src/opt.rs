//! Tape passes.
//!
//! Lowered cam-level modules re-materialize every scalar constant on
//! every trip through the query nest: the address arithmetic of one
//! search/read/merge triple is a chain of `ConstInt` → `IntBin` pairs,
//! and the whole nest — bounds, guards, index arithmetic — is fixed by
//! the mapping at compile time. Three passes remove that tax without
//! changing observable behavior (outputs, statistics, traces):
//!
//! 1. **Immediate fusion** — an `IntBin`/`IntCmp` whose operand slot is
//!    written by exactly one `ConstInt` becomes `IntBinImm`/`IntCmpImm`
//!    with the constant baked in (a constant *left* operand commutes
//!    into the immediate for symmetric ops, or swaps the compare
//!    predicate).
//! 2. **Const stripping** — `ConstInt`/`ConstFloat`/`ConstBool`
//!    instructions whose destination slot has no other writer are
//!    removed from the tape entirely; [`crate::TapeVm::new`] preloads
//!    their slots once from [`TapeData::preload`] instead.
//! 3. **Query-body specialisation** ([`crate::specialize`]) — with the
//!    constants known, the body of the query loop is partially
//!    evaluated into a straight line of scope ops and fused searches.
//!
//! Passes 2 and 3 move instructions, so all pc-valued fields (jumps,
//! loop brackets, the query loop) are remapped by [`remap_pcs`], and
//! `src_ops`/`src_names` stay aligned for error attribution.
//!
//! Safety hinges on the *single-writer* condition. Slots are not SSA:
//! loop carries are rewritten by `Copy` on every `scf.yield`, loop
//! results alias their carry slots, and `LoopNext` rewrites its loop's
//! induction variable — so a constant is only treated as known after a
//! full scan of the tape proves nothing else writes its slot. For such
//! a slot, preloading at VM construction is indistinguishable from
//! executing the `Const*` in place: SSA dominance puts every read after
//! the (unique) write, and the write always produces the same value.

use crate::compile::TapeData;
use crate::isa::{Inst, PreConst};

/// Run the tape passes over a freshly compiled tape.
pub(crate) fn optimize(tape: &mut TapeData) {
    let known = known_consts(tape);
    fuse_immediates(tape, &known);
    strip_consts(tape, &known);
    tape.unspecialised = crate::specialize::specialize(tape).err();
}

/// Rewrite every pc-valued field of the tape through `map` (old pc →
/// new pc), ahead of the instruction move that makes it true.
pub(crate) fn remap_pcs(tape: &mut TapeData, map: impl Fn(usize) -> usize) {
    for inst in &mut tape.insts {
        match inst {
            Inst::Jump { target } | Inst::JumpIfNot { target, .. } => *target = map(*target),
            Inst::LoopEnter { exit, .. } => *exit = map(*exit),
            Inst::LoopNext { enter } => *enter = map(*enter),
            _ => {}
        }
    }
    if let Some(ql) = &mut tape.query_loop {
        ql.enter = map(ql.enter);
        ql.next = map(ql.next);
        ql.exit = map(ql.exit);
    }
}

/// Per-slot constant value, for slots written by exactly one
/// `ConstInt`/`ConstFloat`/`ConstBool` instruction (and nothing else —
/// not an argument, loop carry, induction variable or any other def).
fn known_consts(tape: &TapeData) -> Vec<Option<PreConst>> {
    let writers = tape.writer_counts();
    let mut known = vec![None; tape.n_slots];
    for inst in &tape.insts {
        let (out, k) = match *inst {
            Inst::ConstInt { out, value, index } => (
                out,
                if index {
                    PreConst::Index(value)
                } else {
                    PreConst::Int(value)
                },
            ),
            Inst::ConstFloat { out, value } => (out, PreConst::Float(value)),
            Inst::ConstBool { out, value } => (out, PreConst::Bool(value)),
            _ => continue,
        };
        if writers[out as usize] == 1 {
            known[out as usize] = Some(k);
        }
    }
    known
}

/// Integer payload of a known constant (`index` and `iN` values share
/// the same `i64` ALU domain).
fn int_imm(known: &[Option<PreConst>], slot: u32) -> Option<i64> {
    match known[slot as usize] {
        Some(PreConst::Int(v) | PreConst::Index(v)) => Some(v),
        _ => None,
    }
}

/// Rewrite `IntBin`/`IntCmp` with a known-constant operand into their
/// immediate forms.
fn fuse_immediates(tape: &mut TapeData, known: &[Option<PreConst>]) {
    for inst in &mut tape.insts {
        match *inst {
            Inst::IntBin {
                op,
                lhs,
                rhs,
                out,
                index,
            } => {
                if let Some(imm) = int_imm(known, rhs) {
                    *inst = Inst::IntBinImm {
                        op,
                        lhs,
                        imm,
                        out,
                        index,
                    };
                } else if op.commutes() {
                    if let Some(imm) = int_imm(known, lhs) {
                        *inst = Inst::IntBinImm {
                            op,
                            lhs: rhs,
                            imm,
                            out,
                            index,
                        };
                    }
                }
            }
            Inst::IntCmp {
                pred,
                lhs,
                rhs,
                out,
            } => {
                if let Some(imm) = int_imm(known, rhs) {
                    *inst = Inst::IntCmpImm {
                        pred,
                        lhs,
                        imm,
                        out,
                    };
                } else if let Some(imm) = int_imm(known, lhs) {
                    *inst = Inst::IntCmpImm {
                        pred: pred.swap(),
                        lhs: rhs,
                        imm,
                        out,
                    };
                }
            }
            _ => {}
        }
    }
}

/// Remove known-constant `Const*` instructions from the tape, record
/// their slots in [`TapeData::preload`], and remap every pc-valued field.
fn strip_consts(tape: &mut TapeData, known: &[Option<PreConst>]) {
    let n = tape.insts.len();
    let mut removed = vec![false; n];
    let mut preload = Vec::new();
    for (pc, inst) in tape.insts.iter().enumerate() {
        let out = match *inst {
            Inst::ConstInt { out, .. }
            | Inst::ConstFloat { out, .. }
            | Inst::ConstBool { out, .. } => out,
            _ => continue,
        };
        if let Some(k) = known[out as usize] {
            removed[pc] = true;
            preload.push((out, k));
        }
    }
    if preload.is_empty() {
        return;
    }
    // `removed_before[pc]` = stripped instructions at pcs `< pc`; a
    // target pointing *at* a stripped instruction lands on the next
    // surviving one, exactly where fall-through execution would go.
    let mut removed_before = vec![0usize; n + 1];
    for pc in 0..n {
        removed_before[pc + 1] = removed_before[pc] + usize::from(removed[pc]);
    }
    remap_pcs(tape, |pc| pc - removed_before[pc]);
    retain_unflagged(&mut tape.insts, &removed);
    retain_unflagged(&mut tape.src_ops, &removed);
    retain_unflagged(&mut tape.src_names, &removed);
    tape.preload = preload;
}

/// Drop the elements of `v` whose position is flagged in `removed`.
fn retain_unflagged<T>(v: &mut Vec<T>, removed: &[bool]) {
    let mut flags = removed.iter();
    v.retain(|_| !flags.next().expect("one flag per instruction"));
}

#[cfg(test)]
mod tests {
    use crate::compile::Tape;
    use crate::isa::Inst;
    use crate::testing::{looped_hdc, lowered_hdc};

    /// The query nest stays on the tape as loops.
    fn lowered_tape() -> Tape {
        Tape::compile(&looped_hdc(2), "forward").unwrap()
    }

    #[test]
    fn scalar_consts_are_stripped_into_the_preload_table() {
        let tape = lowered_tape();
        assert!(
            !tape.0.preload.is_empty(),
            "lowered modules carry scalar constants"
        );
        // Every scalar const was single-writer, so none survive on tape.
        assert!(!tape.0.insts.iter().any(|i| matches!(
            i,
            Inst::ConstInt { .. } | Inst::ConstFloat { .. } | Inst::ConstBool { .. }
        )));
        // Preloaded slots are disjoint from argument slots and unique.
        let mut slots: Vec<_> = tape.0.preload.iter().map(|&(s, _)| s).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), tape.0.preload.len(), "duplicate preload slot");
        assert!(slots.iter().all(|s| !tape.0.arg_slots.contains(s)));
    }

    #[test]
    fn const_operands_are_fused_as_immediates() {
        let tape = lowered_tape();
        // The query nest's address arithmetic (`iv * chunk + offset`)
        // must fold its constant operands.
        assert!(tape
            .0
            .insts
            .iter()
            .any(|i| matches!(i, Inst::IntBinImm { .. })));
        assert!(tape
            .0
            .insts
            .iter()
            .any(|i| matches!(i, Inst::IntCmpImm { .. })));
    }

    /// Checked by hand, independently of `Tape::verify`: once after const
    /// stripping alone (looped) and once after the specialise splice
    /// moved the tail of the tape as well.
    #[test]
    fn control_flow_survives_pc_remapping() {
        for module in [looped_hdc(2), lowered_hdc(2)] {
            let tape = Tape::compile(&module, "forward").unwrap();
            let n = tape.0.insts.len();
            for (pc, inst) in tape.0.insts.iter().enumerate() {
                match *inst {
                    Inst::Jump { target } | Inst::JumpIfNot { target, .. } => {
                        assert!(target <= n, "jump at {pc} out of range: {target}");
                    }
                    Inst::LoopEnter { exit, .. } => {
                        // `exit` is one past the matching LoopNext.
                        assert!(
                            matches!(tape.0.insts[exit - 1], Inst::LoopNext { enter } if enter == pc),
                            "loop bracket broken at {pc}"
                        );
                    }
                    Inst::LoopNext { enter } => {
                        assert!(
                            matches!(tape.0.insts[enter], Inst::LoopEnter { .. }),
                            "back-edge at {pc} targets a non-loop pc {enter}"
                        );
                    }
                    _ => {}
                }
            }
            let ql = tape.query_loop().expect("query loop survives remapping");
            assert!(matches!(tape.0.insts[ql.enter], Inst::LoopEnter { .. }));
            assert!(matches!(tape.0.insts[ql.next], Inst::LoopNext { .. }));
            assert_eq!(ql.exit, ql.next + 1);
        }
    }
}
