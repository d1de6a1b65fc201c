//! Stable tape disassembly: `impl Display for Tape`, the text behind
//! `c4cam compile --emit tape` and the golden dumps under
//! `tests/golden/`.
//!
//! One line per instruction — `pc: opcode operands`, destination first,
//! slots written `%n`, jump targets `-> pc` — then the tape's metadata:
//! `preload`, `query_loop`, whether the query body was specialised, and
//! whether a run may take it in blocked order.

use crate::compile::Tape;
use crate::isa::{Inst, PreConst, SliceOffset};
use c4cam_arch::{MatchKind, Metric};
use std::fmt::{self, Debug, Display, Formatter};

/// `Debug` of a fieldless enum (or a shape), lower-cased: `Add` → `add`.
fn lower(v: impl Debug) -> String {
    format!("{v:?}").to_lowercase()
}

fn index_suffix(index: bool) -> &'static str {
    if index {
        " index"
    } else {
        ""
    }
}

/// The resolved parts of a search, shared by `search` and
/// `search_merge`: scheme, metric, then whichever options are set.
fn search_spec<W: Display>(
    f: &mut Formatter<'_>,
    kind: MatchKind,
    metric: Metric,
    threshold: Option<f64>,
    share: Option<f64>,
    window: Option<(W, W)>,
) -> fmt::Result {
    write!(f, " {} {}", kind.keyword(), metric.keyword())?;
    if let Some(t) = threshold {
        write!(f, " threshold={t}")?;
    }
    if let Some(s) = share {
        write!(f, " share={s}")?;
    }
    if let Some((start, len)) = window {
        write!(f, " window={start}+{len}")?;
    }
    Ok(())
}

impl Display for Inst {
    #[allow(clippy::too_many_lines)]
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Inst::ConstInt { out, value, index } => {
                write!(f, "const_int %{out} = {value}{}", index_suffix(*index))
            }
            Inst::ConstFloat { out, value } => write!(f, "const_float %{out} = {value}"),
            Inst::ConstBool { out, value } => write!(f, "const_bool %{out} = {value}"),
            Inst::ConstTensor { out, tensor } => {
                write!(f, "const_tensor %{out} = {:?}", tensor.shape())
            }
            Inst::Copy { src, out } => write!(f, "copy %{out} = %{src}"),
            Inst::IntBin {
                op,
                lhs,
                rhs,
                out,
                index,
            } => write!(
                f,
                "int_bin %{out} = {} %{lhs}, %{rhs}{}",
                lower(op),
                index_suffix(*index)
            ),
            Inst::FloatBin { op, lhs, rhs, out } => {
                write!(f, "float_bin %{out} = {} %{lhs}, %{rhs}", lower(op))
            }
            Inst::IntBinImm {
                op,
                lhs,
                imm,
                out,
                index,
            } => write!(
                f,
                "int_bin_imm %{out} = {} %{lhs}, {imm}{}",
                lower(op),
                index_suffix(*index)
            ),
            Inst::IntCmp {
                pred,
                lhs,
                rhs,
                out,
            } => write!(f, "int_cmp %{out} = {} %{lhs}, %{rhs}", lower(pred)),
            Inst::IntCmpImm {
                pred,
                lhs,
                imm,
                out,
            } => write!(f, "int_cmp_imm %{out} = {} %{lhs}, {imm}", lower(pred)),
            Inst::CastIntLike { src, out, index } => {
                write!(f, "cast %{out} = %{src}{}", index_suffix(*index))
            }
            Inst::Jump { target } => write!(f, "jump -> {target}"),
            Inst::JumpIfNot { cond, target } => write!(f, "jump_if_not %{cond} -> {target}"),
            Inst::LoopEnter {
                lb,
                ub,
                step,
                iv,
                exit,
                parallel,
            } => write!(
                f,
                "loop_enter %{iv} = %{lb}..%{ub} step %{step}{} -> {exit}",
                if *parallel { " parallel" } else { "" }
            ),
            Inst::LoopNext { enter } => write!(f, "loop_next -> {enter}"),
            Inst::Return { values } => {
                f.write_str("return")?;
                for (i, v) in values.iter().enumerate() {
                    write!(f, "{} %{v}", if i == 0 { "" } else { "," })?;
                }
                Ok(())
            }
            Inst::ExtractSlice {
                src,
                offsets,
                sizes,
                out,
            } => {
                let off = |o: SliceOffset| match o {
                    SliceOffset::Static(v) => v.to_string(),
                    SliceOffset::Dynamic(s) => format!("%{s}"),
                };
                write!(
                    f,
                    "extract_slice %{out} = %{src}[{}, {}] {sizes:?}",
                    off(offsets[0]),
                    off(offsets[1])
                )
            }
            Inst::AllocBuffer { shape, out } => write!(f, "alloc_buffer %{out} = {shape:?}"),
            Inst::AllocCopy { src, out } => write!(f, "alloc_copy %{out} = %{src}"),
            Inst::ToTensor { src, out } => write!(f, "to_tensor %{out} = %{src}"),
            Inst::AllocBank { out } => write!(f, "alloc_bank %{out}"),
            Inst::AllocMat { parent, out } => write!(f, "alloc_mat %{out} = %{parent}"),
            Inst::AllocArray { parent, out } => write!(f, "alloc_array %{out} = %{parent}"),
            Inst::AllocSubarray { parent, out } => write!(f, "alloc_subarray %{out} = %{parent}"),
            Inst::StoreHandle { table, pos, sub } => {
                write!(f, "store_handle %{table}[%{pos}] = %{sub}")
            }
            Inst::LoadHandle { table, pos, out } => {
                write!(f, "load_handle %{out} = %{table}[%{pos}]")
            }
            Inst::WriteValue { sub, data, row_off } => {
                write!(f, "write_value %{sub}[%{row_off}] = %{data}")
            }
            Inst::Search(s) => {
                write!(f, "search %{}, %{}", s.sub, s.query)?;
                let window = s.selective.map(|(a, b)| (format!("%{a}"), format!("%{b}")));
                search_spec(f, s.kind, s.metric, s.threshold, s.broadcast_share, window)
            }
            Inst::Read {
                sub,
                shape,
                vals,
                idx,
            } => write!(f, "read %{vals}, %{idx} = %{sub} {shape:?}"),
            Inst::MergePartial {
                acc,
                vals,
                idx,
                q,
                offset,
            } => write!(
                f,
                "merge_partial %{acc}[%{q}, %{offset}] += %{vals}, %{idx}"
            ),
            Inst::MergeLevel { level, elems } => {
                write!(f, "merge_level {} {elems}", lower(level))
            }
            Inst::PhaseMarker { name } => write!(f, "phase_marker {name:?}"),
            Inst::Reduce(r) => write!(
                f,
                "reduce %{}, %{} = %{} k={} n_valid={} largest={} metric={} {:?} {:?}",
                r.vals,
                r.idx,
                r.acc,
                r.k,
                r.n_valid,
                r.select_largest,
                r.metric,
                r.vals_shape,
                r.idx_shape
            ),
            Inst::ScopeEnter { parallel } => write!(
                f,
                "scope_enter {}",
                if *parallel { "parallel" } else { "sequential" }
            ),
            Inst::ScopeExit => f.write_str("scope_exit"),
            Inst::SearchMerge(s) => {
                write!(
                    f,
                    "search_merge %{}[%{}, {}] += %{}[{}], %{}[%{}, {}..{}]",
                    s.acc,
                    s.row,
                    s.offset,
                    s.table,
                    s.pos,
                    s.query,
                    s.row,
                    s.col,
                    s.col + s.width
                )?;
                search_spec(
                    f,
                    s.kind,
                    s.metric,
                    s.threshold,
                    s.broadcast_share,
                    s.selective,
                )?;
                write!(f, " read {:?}", s.shape)
            }
        }
    }
}

impl Display for Tape {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let t = &*self.0;
        write!(f, "tape @{}: {} slots, args", t.func, t.n_slots)?;
        for s in &t.arg_slots {
            write!(f, " %{s}")?;
        }
        writeln!(f)?;
        for (pc, inst) in t.insts.iter().enumerate() {
            writeln!(f, "{pc:>5}: {inst}")?;
        }
        f.write_str("preload:")?;
        for &(s, c) in &t.preload {
            match c {
                PreConst::Index(v) => write!(f, " %{s}={v}:index")?,
                PreConst::Int(v) => write!(f, " %{s}={v}")?,
                PreConst::Float(v) => write!(f, " %{s}={v}:float")?,
                PreConst::Bool(v) => write!(f, " %{s}={v}")?,
            }
        }
        writeln!(f)?;
        match t.query_loop {
            Some(ql) => writeln!(
                f,
                "query_loop: enter={} next={} exit={} iv=%{}",
                ql.enter, ql.next, ql.exit, ql.iv
            )?,
            None => writeln!(f, "query_loop: none")?,
        }
        match t.unspecialised {
            None => writeln!(f, "specialised: yes")?,
            Some(why) => writeln!(f, "specialised: no ({why})")?,
        }
        match self.blocked() {
            Ok(()) => writeln!(f, "blocked: yes"),
            Err(why) => writeln!(f, "blocked: no ({why})"),
        }
    }
}
