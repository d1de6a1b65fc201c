//! [`Tape::verify`]: the invariants the VM and the batch executor rely
//! on without checking, re-established after the tape passes — what
//! `PassManager::verify_each` is to the IR.
//!
//! Every failure starts with a machine-parseable code:
//!
//! | code | invariant |
//! |------|-----------|
//! | `TAPE_E001` | every slot index is below the slot count |
//! | `TAPE_E002` | every jump target is a pc of the tape (or its end) |
//! | `TAPE_E003` | `LoopEnter` / `LoopNext` brackets pair up |
//! | `TAPE_E004` | the query loop's anchors name its own bracket |
//! | `TAPE_E005` | retired (was the shard-loop anchors); never reused |
//! | `TAPE_E006` | preloaded slots have no other writer |
//! | `TAPE_E007` | scope ops sit, balanced, inside the query body |
//! | `TAPE_E008` | fused searches sit inside the query body, keyed by its induction variable |

use crate::compile::{inst_defs, inst_uses, Tape};
use crate::error::EngineError;
use crate::isa::{Inst, Slot};

impl Tape {
    /// Check the tape's structural invariants (see the module source
    /// for the `TAPE_E…` code table). [`Tape::compile`] runs this on
    /// every tape it returns.
    ///
    /// # Errors
    /// The first violated invariant, its code leading the message.
    pub fn verify(&self) -> Result<(), EngineError> {
        let t = &*self.0;
        let n = t.insts.len();
        let fail = |code: &str, pc: usize, what: String| {
            Err(t.attach(
                pc,
                EngineError::new(format!("TAPE_{code}: {what} (pc {pc})")),
            ))
        };

        let out_of_range = |s: Slot| s as usize >= t.n_slots;
        let mut fixed = t.arg_slots.iter().chain(t.preload.iter().map(|(s, _)| s));
        if let Some(&s) = fixed.find(|&&s| out_of_range(s)) {
            return fail(
                "E001",
                0,
                format!("argument or preload slot %{s} out of range"),
            );
        }
        for (pc, inst) in t.insts.iter().enumerate() {
            let mut bad = None;
            let mut check = |s: Slot| {
                if out_of_range(s) {
                    bad = Some(s);
                }
            };
            inst_defs(inst, &mut check);
            inst_uses(inst, &mut check);
            if let Some(s) = bad {
                return fail("E001", pc, format!("slot %{s} out of range"));
            }
        }
        let writers = t.writer_counts();
        if let Some(&(s, _)) = t.preload.iter().find(|&&(s, _)| writers[s as usize] != 1) {
            return fail("E006", 0, format!("preloaded slot %{s} has another writer"));
        }

        let ql = t.query_loop;
        if let Some(ql) = ql {
            let anchored = ql.next + 1 == ql.exit
                && t.insts.get(ql.enter).is_some_and(
                    |i| matches!(*i, Inst::LoopEnter { iv, exit, .. } if iv == ql.iv && exit == ql.exit),
                );
            if !anchored {
                return fail(
                    "E004",
                    ql.enter,
                    "query loop does not name its bracket".into(),
                );
            }
        }
        let in_query_body = |pc: usize| ql.is_some_and(|ql| ql.enter < pc && pc < ql.next);
        let mut scope_depth = 0usize;
        for (pc, inst) in t.insts.iter().enumerate() {
            match *inst {
                Inst::Jump { target } | Inst::JumpIfNot { target, .. } if target > n => {
                    return fail("E002", pc, format!("jump target {target} out of range"));
                }
                Inst::LoopEnter { exit, .. } => {
                    let closes = exit
                        .checked_sub(1)
                        .and_then(|next| t.insts.get(next))
                        .is_some_and(|i| matches!(*i, Inst::LoopNext { enter } if enter == pc));
                    if !closes {
                        return fail("E003", pc, format!("no LoopNext closes it before {exit}"));
                    }
                }
                Inst::LoopNext { enter } => {
                    let opens = t.insts.get(enter).is_some_and(
                        |i| matches!(*i, Inst::LoopEnter { exit, .. } if exit == pc + 1),
                    );
                    if !opens {
                        return fail(
                            "E003",
                            pc,
                            format!("back-edge to {enter}, not its LoopEnter"),
                        );
                    }
                }
                Inst::ScopeEnter { .. } if in_query_body(pc) => scope_depth += 1,
                Inst::ScopeExit if in_query_body(pc) && scope_depth > 0 => scope_depth -= 1,
                Inst::ScopeEnter { .. } | Inst::ScopeExit => {
                    return fail(
                        "E007",
                        pc,
                        "scope op unbalanced or outside the query body".into(),
                    );
                }
                Inst::SearchMerge(ref s)
                    if !in_query_body(pc) || Some(s.row) != ql.map(|q| q.iv) =>
                {
                    return fail(
                        "E008",
                        pc,
                        "fused search outside the query body or not keyed by its index".into(),
                    );
                }
                _ => {}
            }
        }
        if scope_depth != 0 {
            return fail("E007", n, format!("{scope_depth} scopes left open"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::compile::{Tape, TapeData};
    use crate::isa::{Inst, PreConst};
    use crate::testing::{looped_hdc, lowered_hdc};
    use std::sync::Arc;

    /// A verified two-query tape, its query body specialised or left as
    /// loops.
    fn compiled(looped: bool) -> Tape {
        let module = if looped {
            looped_hdc(2)
        } else {
            lowered_hdc(2)
        };
        Tape::compile(&module, "forward").unwrap()
    }

    fn pc_of(t: &TapeData, which: impl Fn(&Inst) -> bool) -> usize {
        t.insts.iter().position(which).expect("instruction present")
    }

    /// Corrupt one field of a compiled tape; the verifier must answer
    /// with `code`.
    fn assert_code(code: &str, looped: bool, corrupt: impl FnOnce(&mut TapeData)) {
        let mut tape = compiled(looped);
        corrupt(Arc::make_mut(&mut tape.0));
        let e = tape.verify().expect_err(code);
        let (got, _) = e.message.split_once(": ").expect("code: message");
        assert_eq!(got, code, "{e}");
    }

    #[test]
    fn compiled_tapes_verify() {
        compiled(true).verify().unwrap();
        compiled(false).verify().unwrap();
    }

    #[test]
    fn slot_indices_are_bounded() {
        assert_code("TAPE_E001", false, |t| {
            let n = t.n_slots as u32;
            let pc = pc_of(t, |i| matches!(i, Inst::AllocBuffer { .. }));
            let Inst::AllocBuffer { out, .. } = &mut t.insts[pc] else {
                unreachable!()
            };
            *out = n;
        });
        assert_code("TAPE_E001", false, |t| {
            let n = t.n_slots as u32;
            let pc = pc_of(t, |i| matches!(i, Inst::SearchMerge(_)));
            let Inst::SearchMerge(s) = &mut t.insts[pc] else {
                unreachable!()
            };
            s.acc = n;
        });
        assert_code("TAPE_E001", false, |t| t.arg_slots[0] = t.n_slots as u32);
        assert_code("TAPE_E001", false, |t| t.preload[0].0 = t.n_slots as u32);
    }

    #[test]
    fn jump_targets_and_loop_brackets_are_checked() {
        assert_code("TAPE_E002", true, |t| {
            let (n, pc) = (
                t.insts.len(),
                pc_of(t, |i| matches!(i, Inst::JumpIfNot { .. })),
            );
            let Inst::JumpIfNot { target, .. } = &mut t.insts[pc] else {
                unreachable!()
            };
            *target = n + 1;
        });
        assert_code("TAPE_E003", true, |t| {
            let pc = pc_of(t, |i| matches!(i, Inst::LoopEnter { .. }));
            let Inst::LoopEnter { exit, .. } = &mut t.insts[pc] else {
                unreachable!()
            };
            *exit -= 1;
        });
        assert_code("TAPE_E003", true, |t| {
            let pc = pc_of(t, |i| matches!(i, Inst::LoopNext { .. }));
            let Inst::LoopNext { enter } = &mut t.insts[pc] else {
                unreachable!()
            };
            *enter += 1;
        });
    }

    #[test]
    fn query_loop_anchors_are_checked() {
        assert_code("TAPE_E004", false, |t| {
            t.query_loop.as_mut().unwrap().iv += 1
        });
        assert_code("TAPE_E004", false, |t| {
            t.query_loop.as_mut().unwrap().enter -= 1
        });
        assert_code("TAPE_E004", true, |t| {
            t.query_loop.as_mut().unwrap().exit += 1
        });
    }

    #[test]
    fn preloaded_slots_are_single_writer() {
        assert_code("TAPE_E006", false, |t| t.preload.push(t.preload[0]));
        assert_code("TAPE_E006", false, |t| {
            t.preload.push((t.arg_slots[0], PreConst::Int(0)));
        });
        assert_code("TAPE_E006", false, |t| {
            let pc = pc_of(t, |i| matches!(i, Inst::AllocBuffer { .. }));
            let Inst::AllocBuffer { out, .. } = &mut t.insts[pc] else {
                unreachable!()
            };
            *out = t.preload[0].0;
        });
    }

    #[test]
    fn residual_ops_stay_balanced_inside_the_query_body() {
        let scope_exit = |t: &TapeData| pc_of(t, |i| matches!(i, Inst::ScopeExit));
        assert_code("TAPE_E007", false, |t| {
            let pc = scope_exit(t);
            t.insts[pc] = Inst::ScopeEnter { parallel: false };
        });
        assert_code("TAPE_E007", false, |t| {
            let pc = pc_of(t, |i| matches!(i, Inst::ScopeEnter { .. }));
            t.insts[pc] = Inst::ScopeExit;
        });
        assert_code("TAPE_E007", false, |t| {
            let pc = pc_of(t, |i| matches!(i, Inst::PhaseMarker { .. }));
            t.insts[pc] = Inst::ScopeExit;
        });
        assert_code("TAPE_E008", false, |t| {
            let pc = pc_of(t, |i| matches!(i, Inst::SearchMerge(_)));
            let Inst::SearchMerge(s) = &mut t.insts[pc] else {
                unreachable!()
            };
            s.row = s.acc;
        });
        assert_code("TAPE_E008", false, |t| {
            let (from, to) = (
                pc_of(t, |i| matches!(i, Inst::SearchMerge(_))),
                pc_of(t, |i| matches!(i, Inst::PhaseMarker { .. })),
            );
            t.insts[to] = t.insts[from].clone();
        });
    }
}
