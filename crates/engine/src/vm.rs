//! The tape VM: executes a compiled [`Tape`] against a
//! [`CamMachine`] without touching IR structures.
//!
//! Execution state is a dense slot file (`Vec<Value>`) plus a loop-frame
//! stack; dispatch is a single `match` over pre-resolved instructions.
//! Every device call and timing-scope transition happens in exactly the
//! order the tree-walking interpreter produces, so on the same machine
//! the two engines yield bit-identical outputs *and* statistics.

use crate::compile::{Tape, TapeData};
use crate::error::EngineError;
use crate::isa::{FloatBinOp, Inst, PreConst, QueryLoop, SearchMergeInst, SliceOffset, Slot};
use crate::trace::{Trace, TraceOp, TraceState};
use c4cam_arch::{MatchKind, Metric};
use c4cam_camsim::{CamMachine, MergeInto, QueryWindows, RowSelection, SearchSpec, SubarrayId};
use c4cam_runtime::kernels::{
    merge_partial_rows, merge_search_result, read_tensors, read_tensors_into, reduce_scores,
    search_query_view, tensor_rows,
};
use c4cam_runtime::{Handle, Value};
use c4cam_telemetry::{cat, ArgValue, Telemetry};
use c4cam_tensor::Tensor;
use std::cell::RefCell;
use std::rc::Rc;

type VResult<T> = Result<T, EngineError>;

fn err(message: impl Into<String>) -> EngineError {
    EngineError::new(message)
}

/// The device's [`SearchSpec`] for a search's pre-resolved parts — one
/// definition for [`Inst::Search`], [`Inst::SearchMerge`] and
/// [`Trace::replay`].
pub(crate) fn search_spec(
    kind: MatchKind,
    metric: Metric,
    selection: Option<(usize, usize)>,
    threshold: Option<f64>,
    share: Option<f64>,
) -> SearchSpec {
    let mut spec = SearchSpec::new(kind, metric);
    if let Some((start, len)) = selection {
        spec = spec.with_selection(RowSelection::Window { start, len });
    }
    if let Some(t) = threshold {
        spec = spec.with_threshold(t);
    }
    if let Some(share) = share {
        spec = spec.with_broadcast_share(share);
    }
    spec
}

/// An active counted loop.
#[derive(Debug, Clone, Copy)]
struct Frame {
    iv_slot: Slot,
    iv: i64,
    ub: i64,
    step: i64,
    body: usize,
    parallel: bool,
}

/// Borrowed view of a tensor-valued slot (no copy).
enum TensorView<'e> {
    Borrowed(&'e Tensor),
    Guard(std::cell::Ref<'e, Tensor>),
}

impl std::ops::Deref for TensorView<'_> {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            TensorView::Borrowed(t) => t,
            TensorView::Guard(g) => g,
        }
    }
}

/// Executes a [`Tape`] against a slot file and a machine.
#[derive(Debug)]
pub struct TapeVm<'t> {
    tape: &'t TapeData,
    slots: Vec<Value>,
    frames: Vec<Frame>,
    /// Zero-padded query row for a [`Inst::SearchMerge`] whose window
    /// overruns the query tensor (the padded tail chunk); every other
    /// fused search borrows its row in place.
    query_scratch: Vec<f32>,
    /// When set, device-relevant operations and their value dataflow
    /// are recorded for offline replay (see the [`crate::trace`]
    /// module).
    trace: Option<TraceState>,
    /// Span/counter sink; disabled by default.
    telemetry: Telemetry,
    /// Cached `telemetry.enabled()` so the dispatch loop pays one
    /// branch, not an `Arc` deref, when telemetry is off.
    tl_on: bool,
    /// Logical telemetry lane (0 = main, `1 + shard` for workers).
    lane: u32,
    /// Device-op counter driving per-op span sampling.
    op_seq: u32,
}

impl<'t> TapeVm<'t> {
    /// Fresh VM with `args` seeded into the tape's argument slots.
    ///
    /// # Errors
    /// Fails on an argument-count mismatch.
    pub fn new(tape: &'t Tape, args: &[Value]) -> VResult<TapeVm<'t>> {
        let tape = &*tape.0;
        if args.len() != tape.arg_slots.len() {
            return Err(err(format!(
                "'{}' takes {} arguments, got {}",
                tape.func,
                tape.arg_slots.len(),
                args.len()
            )));
        }
        let mut slots = vec![Value::Int(0); tape.n_slots];
        // Constants the optimizer stripped from the instruction stream
        // are loaded once here instead of on every pass over the tape.
        for &(s, c) in &tape.preload {
            slots[s as usize] = match c {
                PreConst::Index(v) => Value::Index(v),
                PreConst::Int(v) => Value::Int(v),
                PreConst::Float(v) => Value::Float(v),
                PreConst::Bool(v) => Value::Bool(v),
            };
        }
        for (&s, a) in tape.arg_slots.iter().zip(args) {
            slots[s as usize] = a.clone();
        }
        Ok(TapeVm::with_slots(tape, slots))
    }

    /// VM over an existing slot file (batched-shard reconstruction).
    pub(crate) fn with_slots(tape: &'t TapeData, slots: Vec<Value>) -> TapeVm<'t> {
        TapeVm {
            tape,
            slots,
            frames: Vec::new(),
            query_scratch: Vec::new(),
            trace: None,
            telemetry: Telemetry::default(),
            tl_on: false,
            lane: 0,
            op_seq: 0,
        }
    }

    /// Attach a telemetry handle: sampled per-op spans (and per-shard
    /// spans, when sharding) are recorded while it is enabled. The
    /// disabled default keeps the dispatch loop on its fast path.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.tl_on = telemetry.enabled();
        self.telemetry = telemetry;
    }

    /// Attach telemetry on an explicit lane (shard workers record op
    /// spans on `1 + shard`).
    pub(crate) fn set_telemetry_lane(&mut self, telemetry: Telemetry, lane: u32) {
        self.lane = lane;
        self.set_telemetry(telemetry);
    }

    pub(crate) fn slots(&self) -> &[Value] {
        &self.slots
    }

    /// Execute from `from` until a `Return` fires or the pc reaches
    /// `stop`. Returns the function results on `Return`, `None` on stop.
    ///
    /// # Errors
    /// Propagates instruction failures with op context attached.
    pub fn exec(
        &mut self,
        machine: &mut CamMachine,
        from: usize,
        stop: usize,
    ) -> VResult<Option<Vec<Value>>> {
        let mut pc = from;
        while pc < self.tape.insts.len() && pc != stop {
            let stepped = if self.tl_on {
                self.step_timed(machine, pc)
            } else {
                self.step(machine, pc)
            };
            match stepped {
                Ok(Step::Next) => pc += 1,
                Ok(Step::Jump(target)) => pc = target,
                Ok(Step::Return(values)) => return Ok(Some(values)),
                Err(e) => return Err(self.tape.attach(pc, e)),
            }
        }
        Ok(None)
    }

    /// Read a loop's `(lb, ub, step)` bounds from the slot file.
    ///
    /// # Errors
    /// Fails when `enter` is not a `LoopEnter` or bounds are non-integer.
    pub fn loop_bounds(&self, enter: usize) -> VResult<(i64, i64, i64)> {
        match &self.tape.insts[enter] {
            Inst::LoopEnter { lb, ub, step, .. } => {
                Ok((self.int(*lb)?, self.int(*ub)?, self.int(*step)?))
            }
            other => Err(err(format!("pc {enter} is not a loop entry: {other:?}"))),
        }
    }

    /// Run the body of the (carry-free, sequential) loop at `enter` for
    /// the given induction values — the shard side of batched execution.
    ///
    /// # Errors
    /// Propagates body failures.
    pub(crate) fn exec_iterations(
        &mut self,
        machine: &mut CamMachine,
        enter: usize,
        next: usize,
        iv_slot: Slot,
        ivs: &[i64],
    ) -> VResult<()> {
        for &iv in ivs {
            self.slots[iv_slot as usize] = Value::Index(iv);
            if self.exec(machine, enter + 1, next)?.is_some() {
                return Err(err("func.return inside a sharded loop"));
            }
        }
        Ok(())
    }

    /// Run the query body at `ql` for the given induction values in
    /// blocked order: each instruction once, over all of them (see
    /// [`Tape::blocked`], which the caller checked, and which leaves
    /// fused searches as the only instructions with an effect here).
    /// The caller guarantees a device that charges nothing, no trace
    /// and no telemetry: timing scopes and level merges would only
    /// charge, so they are skipped. Each accumulator element still
    /// receives its additions in instruction order, so outputs equal
    /// the per-query order's bit for bit.
    ///
    /// # Errors
    /// The first failure in blocked order, with op context attached.
    pub(crate) fn exec_blocked(
        &mut self,
        machine: &mut CamMachine,
        ql: QueryLoop,
        ivs: &[i64],
    ) -> VResult<()> {
        debug_assert!(!machine.charges() && self.trace.is_none() && !self.tl_on);
        // `None`: a negative query index, which the per-query path reports.
        let mut rows = Vec::with_capacity(ivs.len());
        rows.extend(ivs.iter().map_while(|&iv| usize::try_from(iv).ok()));
        let rows = (rows.len() == ivs.len()).then_some(rows);
        let tape = self.tape;
        for pc in ql.enter + 1..ql.next {
            let Inst::SearchMerge(s) = &tape.insts[pc] else {
                continue;
            };
            let served = rows
                .as_deref()
                .is_some_and(|rows| self.search_merge_block(machine, s, rows));
            if served {
                continue;
            }
            for &iv in ivs {
                self.slots[ql.iv as usize] = Value::Index(iv);
                self.exec_search_merge(machine, s)
                    .map_err(|e| tape.attach(pc, e))?;
            }
        }
        Ok(())
    }

    /// One fused search over every query of `rows` in one device call
    /// ([`CamMachine::search_merge_block`]). `false`, with nothing
    /// written, when the operands or the device rule that out; the
    /// queries then take [`TapeVm::exec_search_merge`] one by one.
    fn search_merge_block(
        &self,
        machine: &mut CamMachine,
        s: &SearchMergeInst,
        rows: &[usize],
    ) -> bool {
        let Ok(sub) = self.search_merge_sub(s) else {
            return false;
        };
        let Ok(query) = self.tensor_view(s.query) else {
            return false;
        };
        let &[q_rows, q_cols] = query.shape() else {
            return false;
        };
        // A query that is the accumulator itself stays per-query.
        let acc = self.slots[s.acc as usize]
            .as_buffer()
            .map(|b| b.try_borrow_mut());
        let Some(Ok(mut acc)) = acc else {
            return false;
        };
        let &[acc_rows, acc_cols] = acc.shape() else {
            return false;
        };
        let queries = QueryWindows {
            data: query.data(),
            rows: q_rows,
            cols: q_cols,
            col: s.col,
            width: s.width,
        };
        let into = MergeInto {
            acc: acc.data_mut(),
            rows: acc_rows,
            cols: acc_cols,
            offset: s.offset,
            declared: s.shape.iter().product(),
        };
        let spec = search_spec(
            s.kind,
            s.metric,
            s.selective,
            s.threshold,
            s.broadcast_share,
        );
        machine.search_merge_block(sub, spec, &queries, rows, into)
    }

    // ------------------------------------------------------------------
    // Slot accessors
    // ------------------------------------------------------------------

    #[inline]
    fn int(&self, s: Slot) -> VResult<i64> {
        self.slots[s as usize]
            .as_int()
            .ok_or_else(|| err("expected an integer value"))
    }

    #[inline]
    fn float(&self, s: Slot) -> VResult<f64> {
        match &self.slots[s as usize] {
            Value::Float(f) => Ok(*f),
            other => Err(err(format!("float op on {}", other.kind_name()))),
        }
    }

    fn subarray(&self, s: Slot) -> VResult<SubarrayId> {
        match self.slots[s as usize].as_handle() {
            Some(Handle::Subarray(id)) => Ok(id),
            other => Err(err(format!("expected a subarray handle, got {other:?}"))),
        }
    }

    fn tensor_view(&self, s: Slot) -> VResult<TensorView<'_>> {
        match &self.slots[s as usize] {
            Value::Tensor(t) => Ok(TensorView::Borrowed(t)),
            Value::Buffer(b) => Ok(TensorView::Guard(b.borrow())),
            other => Err(err(format!(
                "expected a tensor value, got {}",
                other.kind_name()
            ))),
        }
    }

    /// A slot's buffer when it can be overwritten in place: uniquely
    /// owned (no alias can observe the write) and already `shape`.
    /// Never taken while tracing — the trace wants fresh value ids.
    fn reusable_buffer(&self, s: Slot, shape: &[usize]) -> Option<Rc<RefCell<Tensor>>> {
        if self.trace.is_some() {
            return None;
        }
        match &self.slots[s as usize] {
            Value::Buffer(b) if Rc::strong_count(b) == 1 && b.borrow().shape() == shape => {
                Some(Rc::clone(b))
            }
            _ => None,
        }
    }

    #[inline]
    fn set(&mut self, s: Slot, v: Value) {
        if let Some(tr) = &mut self.trace {
            tr.clear(s);
        }
        self.slots[s as usize] = v;
    }

    /// Record `op` when tracing.
    #[inline]
    fn trace_push(&mut self, op: impl FnOnce() -> TraceOp) {
        if let Some(tr) = &mut self.trace {
            tr.push(op());
        }
    }

    /// Trace value id of slot `s`, materializing the current contents
    /// as a literal record when the value was host-computed. `None`
    /// when not tracing.
    fn trace_operand(&mut self, s: Slot) -> VResult<Option<u32>> {
        let Some(tr) = &mut self.trace else {
            return Ok(None);
        };
        if let Some(v) = tr.vid(s) {
            return Ok(Some(v));
        }
        let data = self.slots[s as usize]
            .snapshot_tensor()
            .ok_or_else(|| err("cannot trace a non-tensor operand"))?;
        let out = tr.fresh();
        tr.push(TraceOp::Literal { data, out });
        tr.set_vid(s, out);
        Ok(Some(out))
    }

    fn int_like(index: bool, v: i64) -> Value {
        if index {
            Value::Index(v)
        } else {
            Value::Int(v)
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Telemetry span name of a device-touching instruction; `None`
    /// for host-side scalar/control ops, which are never recorded.
    fn device_op_name(inst: &Inst) -> Option<&'static str> {
        match inst {
            Inst::Search(_) | Inst::SearchMerge(_) => Some("cam.search"),
            Inst::Read { .. } => Some("cam.read"),
            Inst::WriteValue { .. } => Some("cam.write"),
            Inst::MergePartial { .. } => Some("cam.merge_partial"),
            Inst::MergeLevel { .. } => Some("cam.merge_level"),
            Inst::Reduce(_) => Some("cam.reduce"),
            Inst::AllocBank { .. }
            | Inst::AllocMat { .. }
            | Inst::AllocArray { .. }
            | Inst::AllocSubarray { .. } => Some("cam.alloc"),
            _ => None,
        }
    }

    /// Instrumented step: wraps device ops in a sampled telemetry span
    /// carrying the host duration plus the simulated latency/energy
    /// delta the op charged to the machine. Only reached when a live
    /// recorder is attached (`tl_on`).
    fn step_timed(&mut self, machine: &mut CamMachine, pc: usize) -> VResult<Step> {
        let Some(name) = Self::device_op_name(&self.tape.insts[pc]) else {
            return self.step(machine, pc);
        };
        self.op_seq = self.op_seq.wrapping_add(1);
        let stride = self.telemetry.sample_every();
        if stride > 1 && !self.op_seq.is_multiple_of(stride) {
            return self.step(machine, pc);
        }
        let before = machine.stats();
        let start_ns = self.telemetry.now_ns();
        let result = self.step(machine, pc);
        let end_ns = self.telemetry.now_ns();
        let delta = machine.stats().delta(&before);
        self.telemetry.record_span(
            name,
            cat::OP,
            self.lane,
            start_ns,
            end_ns.saturating_sub(start_ns),
            vec![
                ("pc", ArgValue::Int(pc as i64)),
                ("sim_latency_ns", ArgValue::Num(delta.latency_ns)),
                ("sim_energy_fj", ArgValue::Num(delta.total_energy_fj())),
                ("searched_words", ArgValue::Int(delta.searched_words as i64)),
            ],
        );
        result
    }

    #[allow(clippy::too_many_lines)]
    fn step(&mut self, machine: &mut CamMachine, pc: usize) -> VResult<Step> {
        // `self.tape` is a shared reference; copying it out decouples the
        // instruction borrow from `self` so arms can mutate the slots.
        let tape = self.tape;
        match &tape.insts[pc] {
            Inst::ConstInt { out, value, index } => {
                let v = Self::int_like(*index, *value);
                let out = *out;
                self.set(out, v);
            }
            Inst::ConstFloat { out, value } => {
                let (out, v) = (*out, Value::Float(*value));
                self.set(out, v);
            }
            Inst::ConstBool { out, value } => {
                let (out, v) = (*out, Value::Bool(*value));
                self.set(out, v);
            }
            Inst::ConstTensor { out, tensor } => {
                let (out, v) = (*out, Value::Tensor(tensor.clone()));
                self.set(out, v);
            }
            Inst::Copy { src, out } => {
                let v = self.slots[*src as usize].clone();
                let (src, out) = (*src, *out);
                self.set(out, v);
                // A copy of a buffer aliases it; sharing the value id
                // preserves that aliasing in the replayed dataflow.
                if let Some(tr) = &mut self.trace {
                    if let Some(vid) = tr.vid(src) {
                        tr.set_vid(out, vid);
                    }
                }
            }
            Inst::IntBin {
                op,
                lhs,
                rhs,
                out,
                index,
            } => {
                let a = self.int(*lhs)?;
                let b = self.int(*rhs)?;
                let r = op.eval(a, b).map_err(err)?;
                let (out, v) = (*out, Self::int_like(*index, r));
                self.set(out, v);
            }
            Inst::IntBinImm {
                op,
                lhs,
                imm,
                out,
                index,
            } => {
                let a = self.int(*lhs)?;
                let r = op.eval(a, *imm).map_err(err)?;
                let (out, v) = (*out, Self::int_like(*index, r));
                self.set(out, v);
            }
            Inst::FloatBin { op, lhs, rhs, out } => {
                let a = self.float(*lhs)?;
                let b = self.float(*rhs)?;
                let r = match op {
                    FloatBinOp::Add => a + b,
                    FloatBinOp::Sub => a - b,
                    FloatBinOp::Mul => a * b,
                    FloatBinOp::Div => a / b,
                };
                let out = *out;
                self.set(out, Value::Float(r));
            }
            Inst::IntCmp {
                pred,
                lhs,
                rhs,
                out,
            } => {
                let a = self.int(*lhs)?;
                let b = self.int(*rhs)?;
                let (out, v) = (*out, Value::Bool(pred.eval(a, b)));
                self.set(out, v);
            }
            Inst::IntCmpImm {
                pred,
                lhs,
                imm,
                out,
            } => {
                let a = self.int(*lhs)?;
                let (out, v) = (*out, Value::Bool(pred.eval(a, *imm)));
                self.set(out, v);
            }
            Inst::CastIntLike { src, out, index } => {
                let v = Self::int_like(*index, self.int(*src)?);
                let out = *out;
                self.set(out, v);
            }
            Inst::Jump { target } => return Ok(Step::Jump(*target)),
            Inst::JumpIfNot { cond, target } => {
                let c = self.slots[*cond as usize]
                    .as_bool()
                    .ok_or_else(|| err("scf.if condition must be boolean"))?;
                if !c {
                    return Ok(Step::Jump(*target));
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
                let lb = self.int(*lb)?;
                let ub = self.int(*ub)?;
                let step = self.int(*step)?;
                if step <= 0 {
                    return Err(err("loop step must be positive"));
                }
                let parallel = *parallel;
                if parallel {
                    machine.push_parallel();
                    self.trace_push(|| TraceOp::PushParallel);
                }
                if lb >= ub {
                    if parallel {
                        machine.pop_scope();
                        self.trace_push(|| TraceOp::PopScope);
                    }
                    return Ok(Step::Jump(*exit));
                }
                let iv_slot = *iv;
                self.frames.push(Frame {
                    iv_slot,
                    iv: lb,
                    ub,
                    step,
                    body: pc + 1,
                    parallel,
                });
                self.set(iv_slot, Value::Index(lb));
                if parallel {
                    machine.push_sequential();
                    self.trace_push(|| TraceOp::PushSequential);
                }
            }
            Inst::LoopNext { .. } => {
                let f = self
                    .frames
                    .last_mut()
                    .ok_or_else(|| err("loop back-edge without an active loop"))?;
                f.iv += f.step;
                let (iv_slot, iv, ub, body, parallel) = (f.iv_slot, f.iv, f.ub, f.body, f.parallel);
                if parallel {
                    machine.pop_scope(); // this iteration's sequential scope
                    self.trace_push(|| TraceOp::PopScope);
                }
                if iv < ub {
                    self.set(iv_slot, Value::Index(iv));
                    if parallel {
                        machine.push_sequential();
                        self.trace_push(|| TraceOp::PushSequential);
                    }
                    return Ok(Step::Jump(body));
                }
                self.frames.pop();
                if parallel {
                    machine.pop_scope(); // the loop's parallel scope
                    self.trace_push(|| TraceOp::PopScope);
                }
            }
            Inst::Return { values } => {
                // `None` when not tracing.
                let vids: Option<Vec<u32>> = values
                    .iter()
                    .map(|&s| self.trace_operand(s))
                    .collect::<VResult<_>>()?;
                if let Some(values) = vids {
                    self.trace_push(|| TraceOp::Return { values });
                }
                let out = values
                    .iter()
                    .map(|&s| self.slots[s as usize].clone())
                    .collect();
                return Ok(Step::Return(out));
            }
            Inst::ExtractSlice {
                src,
                offsets,
                sizes,
                out,
            } => {
                let (src, sizes, out) = (*src, *sizes, *out);
                // Steady-state loop iterations overwrite the previous
                // slice's tensor in place instead of allocating (a
                // slice's storage is its own unless something cloned
                // it, and then the write copies). Never while tracing:
                // the trace wants fresh value ids.
                let recycled = if self.trace.is_none() && src != out {
                    match std::mem::replace(&mut self.slots[out as usize], Value::Int(0)) {
                        Value::Tensor(t) if t.shape() == sizes => Some(t),
                        _ => None,
                    }
                } else {
                    None
                };
                let t = self.exec_extract_slice(src, *offsets, sizes, recycled)?;
                self.set(out, Value::Tensor(t));
            }
            Inst::AllocBuffer { shape, out } => {
                let (out, v) = (*out, Value::new_buffer(shape.clone()));
                self.set(out, v);
                if let Some(tr) = &mut self.trace {
                    let vid = tr.fresh();
                    tr.push(TraceOp::Buffer {
                        shape: shape.clone(),
                        out: vid,
                    });
                    tr.set_vid(out, vid);
                }
            }
            Inst::AllocCopy { src, out } => {
                let t = self.slots[*src as usize]
                    .snapshot_tensor()
                    .ok_or_else(|| err("expected a tensor value"))?;
                let out = *out;
                let traced = self.trace.is_some().then(|| t.clone());
                self.set(out, Value::buffer_from(t));
                if let (Some(data), Some(tr)) = (traced, &mut self.trace) {
                    let vid = tr.fresh();
                    tr.push(TraceOp::Literal { data, out: vid });
                    tr.set_vid(out, vid);
                }
            }
            Inst::ToTensor { src, out } => {
                let t = self.slots[*src as usize]
                    .snapshot_tensor()
                    .ok_or_else(|| err("to_tensor on non-buffer"))?;
                let (src, out) = (*src, *out);
                let traced = self.trace.is_some().then(|| t.clone());
                self.set(out, Value::Tensor(t));
                if let (Some(data), Some(tr)) = (traced, &mut self.trace) {
                    let vid = tr.fresh();
                    match tr.vid(src) {
                        Some(sv) => tr.push(TraceOp::Snapshot { src: sv, out: vid }),
                        None => tr.push(TraceOp::Literal { data, out: vid }),
                    }
                    tr.set_vid(out, vid);
                }
            }
            Inst::AllocBank { out } => {
                let id = machine.alloc_bank().map_err(|e| err(e.message))?;
                let out = *out;
                self.set(out, Value::Handle(Handle::Bank(id)));
                self.trace_push(|| TraceOp::AllocBank);
            }
            Inst::AllocMat { parent, out } => {
                let bank = match self.slots[*parent as usize].as_handle() {
                    Some(Handle::Bank(b)) => b,
                    _ => return Err(err("alloc_mat expects a bank handle")),
                };
                let id = machine.alloc_mat(bank).map_err(|e| err(e.message))?;
                let out = *out;
                self.set(out, Value::Handle(Handle::Mat(id)));
                self.trace_push(|| TraceOp::AllocMat { bank: bank.0 });
            }
            Inst::AllocArray { parent, out } => {
                let mat = match self.slots[*parent as usize].as_handle() {
                    Some(Handle::Mat(x)) => x,
                    _ => return Err(err("alloc_array expects a mat handle")),
                };
                let id = machine.alloc_array(mat).map_err(|e| err(e.message))?;
                let out = *out;
                self.set(out, Value::Handle(Handle::Array(id)));
                self.trace_push(|| TraceOp::AllocArray { mat: mat.0 });
            }
            Inst::AllocSubarray { parent, out } => {
                let array = match self.slots[*parent as usize].as_handle() {
                    Some(Handle::Array(x)) => x,
                    _ => return Err(err("alloc_subarray expects an array handle")),
                };
                let id = machine.alloc_subarray(array).map_err(|e| err(e.message))?;
                let out = *out;
                self.set(out, Value::Handle(Handle::Subarray(id)));
                self.trace_push(|| TraceOp::AllocSubarray { array: array.0 });
            }
            Inst::StoreHandle { table, pos, sub } => {
                let pos = self.int(*pos)? as usize;
                let sub = self.subarray(*sub)?;
                let table = self.slots[*table as usize]
                    .as_buffer()
                    .cloned()
                    .ok_or_else(|| err("store_handle expects a buffer table"))?;
                let mut t = table.borrow_mut();
                if pos >= t.len() {
                    return Err(err("handle table index out of bounds"));
                }
                t.data_mut()[pos] = sub.0 as f32;
            }
            Inst::LoadHandle { table, pos, out } => {
                let pos = self.int(*pos)? as usize;
                let id = {
                    let table = self.tensor_view(*table)?;
                    if pos >= table.len() {
                        return Err(err("handle table index out of bounds"));
                    }
                    SubarrayId(table.data()[pos] as usize)
                };
                let out = *out;
                self.set(out, Value::Handle(Handle::Subarray(id)));
            }
            Inst::WriteValue { sub, data, row_off } => {
                let sub = self.subarray(*sub)?;
                let row_off = self.int(*row_off)? as usize;
                let traced = {
                    let data = self.tensor_view(*data)?;
                    let rows = tensor_rows(&data);
                    machine
                        .write_row_views(sub, row_off, &rows)
                        .map_err(|e| err(e.message))?;
                    self.trace
                        .is_some()
                        .then(|| rows.iter().map(|r| r.to_vec()).collect())
                };
                if let Some(rows) = traced {
                    self.trace_push(|| TraceOp::Write {
                        sub: sub.0,
                        row_off,
                        rows,
                    });
                }
            }
            Inst::Search(s) => {
                let sub = self.subarray(s.sub)?;
                let selection = match s.selective {
                    Some((start, len)) => {
                        Some((self.int(start)? as usize, self.int(len)? as usize))
                    }
                    None => None,
                };
                let spec = search_spec(s.kind, s.metric, selection, s.threshold, s.broadcast_share);
                let traced_query = {
                    let query = self.tensor_view(s.query)?;
                    let q = search_query_view(&query).map_err(err)?;
                    let traced = self.trace.is_some().then(|| q.to_vec());
                    machine.search(sub, q, spec).map_err(|e| err(e.message))?;
                    traced
                };
                if let Some(query) = traced_query {
                    self.trace_push(|| TraceOp::Search {
                        sub: sub.0,
                        kind: s.kind,
                        metric: s.metric,
                        selection,
                        threshold: s.threshold,
                        share: s.broadcast_share,
                        query,
                    });
                }
            }
            Inst::Read {
                sub,
                shape,
                vals,
                idx,
            } => {
                let sub = self.subarray(*sub)?;
                let (vals, idx) = (*vals, *idx);
                // Steady-state loop iterations overwrite the previous
                // read's buffers in place instead of allocating; the
                // first iteration (or an aliased/reshaped slot) takes
                // the allocating path.
                let reuse = self
                    .reusable_buffer(vals, shape)
                    .zip(self.reusable_buffer(idx, shape));
                let result = machine.read(sub).map_err(|e| err(e.message))?;
                match reuse {
                    Some((vb, ib)) => {
                        read_tensors_into(result, &mut vb.borrow_mut(), &mut ib.borrow_mut())
                            .map_err(err)?;
                    }
                    None => {
                        let (v, i) = read_tensors(result, shape).map_err(err)?;
                        self.set(vals, Value::buffer_from(v));
                        self.set(idx, Value::buffer_from(i));
                    }
                }
                if let Some(tr) = &mut self.trace {
                    let (vv, vi) = (tr.fresh(), tr.fresh());
                    tr.push(TraceOp::Read {
                        sub: sub.0,
                        shape: shape.clone(),
                        vals: vv,
                        idx: vi,
                    });
                    tr.set_vid(vals, vv);
                    tr.set_vid(idx, vi);
                }
            }
            Inst::MergePartial {
                acc,
                vals,
                idx,
                q,
                offset,
            } => {
                let acc_slot = *acc;
                let q = self.int(*q)? as usize;
                let offset = self.int(*offset)?;
                // Resolve (materializing host-computed operands) *before*
                // the merge mutates the accumulator; `None` when not
                // tracing.
                let traced = match (
                    self.trace_operand(acc_slot)?,
                    self.trace_operand(*vals)?,
                    self.trace_operand(*idx)?,
                ) {
                    (Some(acc), Some(vals), Some(idx)) => Some((acc, vals, idx)),
                    _ => None,
                };
                let acc = self.slots[acc_slot as usize]
                    .as_buffer()
                    .cloned()
                    .ok_or_else(|| err("merge expects an accumulator buffer"))?;
                {
                    let vals = self.tensor_view(*vals)?;
                    let idx = self.tensor_view(*idx)?;
                    merge_partial_rows(&mut acc.borrow_mut(), &vals, &idx, q, offset)
                        .map_err(err)?;
                }
                if let Some((acc, vals, idx)) = traced {
                    self.trace_push(|| TraceOp::MergePartial {
                        acc,
                        vals,
                        idx,
                        q,
                        offset,
                    });
                }
            }
            Inst::MergeLevel { level, elems } => {
                machine.merge(*level, *elems);
                self.trace_push(|| TraceOp::MergeLevel {
                    level: *level,
                    elems: *elems,
                });
            }
            Inst::PhaseMarker { name } => {
                machine.mark_phase(name);
                self.trace_push(|| TraceOp::Phase {
                    name: name.to_string(),
                });
            }
            Inst::Reduce(r) => {
                let acc_vid = self.trace_operand(r.acc)?;
                let acc = self.slots[r.acc as usize]
                    .snapshot_tensor()
                    .ok_or_else(|| err("cam.reduce expects a buffer"))?;
                let (vals, idx) =
                    reduce_scores(&acc, r.k, r.n_valid, r.select_largest, &r.metric, true)
                        .map_err(err)?;
                let vals = vals
                    .reshape(r.vals_shape.clone())
                    .map_err(|e| err(e.message))?;
                let idx = idx
                    .reshape(r.idx_shape.clone())
                    .map_err(|e| err(e.message))?;
                let (vs, is) = (r.vals, r.idx);
                self.set(vs, Value::buffer_from(vals));
                self.set(is, Value::buffer_from(idx));
                if let (Some(acc), Some(tr)) = (acc_vid, &mut self.trace) {
                    let (vv, vi) = (tr.fresh(), tr.fresh());
                    tr.push(TraceOp::Reduce {
                        acc,
                        k: r.k,
                        n_valid: r.n_valid,
                        largest: r.select_largest,
                        metric: r.metric.to_string(),
                        vals_shape: r.vals_shape.clone(),
                        idx_shape: r.idx_shape.clone(),
                        vals: vv,
                        idx: vi,
                    });
                    tr.set_vid(vs, vv);
                    tr.set_vid(is, vi);
                }
            }
            Inst::ScopeEnter { parallel } => {
                if *parallel {
                    machine.push_parallel();
                    self.trace_push(|| TraceOp::PushParallel);
                } else {
                    machine.push_sequential();
                    self.trace_push(|| TraceOp::PushSequential);
                }
            }
            Inst::ScopeExit => {
                machine.pop_scope();
                self.trace_push(|| TraceOp::PopScope);
            }
            Inst::SearchMerge(s) => self.exec_search_merge(machine, s)?,
        }
        Ok(Step::Next)
    }

    /// One fused search → read → merge: the device calls, the trace
    /// records and the accumulation of the three instructions it
    /// replaces, in their order, without materializing the query slice
    /// or the read buffers.
    fn exec_search_merge(&mut self, machine: &mut CamMachine, s: &SearchMergeInst) -> VResult<()> {
        let sub = self.search_merge_sub(s)?;
        let row = self.int(s.row)?;
        let q = usize::try_from(row).map_err(|_| err("negative slice offset"))?;
        let spec = search_spec(
            s.kind,
            s.metric,
            s.selective,
            s.threshold,
            s.broadcast_share,
        );
        // Taken out so the query tensor can stay borrowed beside it (an
        // error below just costs the next padded search its buffer).
        let mut scratch = std::mem::take(&mut self.query_scratch);
        let traced_query = {
            let query = self.tensor_view(s.query)?;
            let &[rows, cols] = query.shape() else {
                return Err(err("extract_slice supports rank-2 tensors"));
            };
            // `exec_extract_slice`'s clamp: zeros beyond the tensor.
            let windows = QueryWindows {
                data: query.data(),
                rows,
                cols,
                col: s.col,
                width: s.width,
            };
            let window = windows.window(q, &mut scratch);
            machine
                .search(sub, window, spec)
                .map_err(|e| err(e.message))?;
            self.trace.is_some().then(|| window.to_vec())
        };
        self.query_scratch = scratch;

        let traced = match (traced_query, &mut self.trace) {
            (Some(query), Some(tr)) => {
                tr.push(TraceOp::Search {
                    sub: sub.0,
                    kind: s.kind,
                    metric: s.metric,
                    selection: s.selective,
                    threshold: s.threshold,
                    share: s.broadcast_share,
                    query,
                });
                let (vals, idx) = (tr.fresh(), tr.fresh());
                tr.push(TraceOp::Read {
                    sub: sub.0,
                    shape: s.shape.clone(),
                    vals,
                    idx,
                });
                // May materialize the accumulator as a literal, so it
                // comes before the merge mutates it.
                self.trace_operand(s.acc)?.map(|acc| (acc, vals, idx))
            }
            _ => None,
        };
        // Each half's failures go to the op it came from, as on a
        // looped body; everything above is the `cam.search`'s.
        let result = machine
            .read(sub)
            .map_err(|e| self.tape.attach_src(s.read_src, err(e.message)))?;
        let acc = self.slots[s.acc as usize]
            .as_buffer()
            .ok_or_else(|| err("merge expects an accumulator buffer"));
        let declared = s.shape.iter().product();
        acc.and_then(|acc| {
            merge_search_result(&mut acc.borrow_mut(), result, declared, q, s.offset).map_err(err)
        })
        .map_err(|e| self.tape.attach_src(s.merge_src, e))?;
        if let Some((acc, vals, idx)) = traced {
            self.trace_push(|| TraceOp::MergePartial {
                acc,
                vals,
                idx,
                q,
                offset: s.offset,
            });
        }
        Ok(())
    }

    /// The subarray a fused search names: its handle table's entry.
    fn search_merge_sub(&self, s: &SearchMergeInst) -> VResult<SubarrayId> {
        let table = self.tensor_view(s.table)?;
        let id = table
            .data()
            .get(s.pos)
            .ok_or_else(|| err("handle table index out of bounds"))?;
        Ok(SubarrayId(*id as usize))
    }

    /// Clamped + zero-padded rank-2 window (walker-identical semantics).
    fn exec_extract_slice(
        &self,
        src: Slot,
        offsets: [SliceOffset; 2],
        sizes: [usize; 2],
        recycled: Option<Tensor>,
    ) -> VResult<Tensor> {
        let mut off = [0i64; 2];
        for (o, spec) in off.iter_mut().zip(&offsets) {
            *o = match *spec {
                SliceOffset::Static(v) => v,
                SliceOffset::Dynamic(s) => self.int(s)?,
            };
        }
        if off.iter().any(|&o| o < 0) {
            return Err(err("negative slice offset"));
        }
        let src = self.tensor_view(src)?;
        if src.rank() != 2 {
            return Err(err("extract_slice supports rank-2 tensors"));
        }
        let (r, c) = (sizes[0], sizes[1]);
        let (off0, off1) = (off[0] as usize, off[1] as usize);
        let (sr, sc) = (src.shape()[0], src.shape()[1]);
        // A recycled tensor (same shape, previous iteration's slice)
        // carries stale data, so clamped regions must be re-zeroed;
        // a fresh allocation is already zero-padded.
        let stale = recycled.is_some();
        let mut out = recycled.unwrap_or_else(|| Tensor::zeros(vec![r, c]));
        for i in 0..r {
            let si = off0 + i;
            let copy = if si >= sr {
                0
            } else {
                c.min(sc.saturating_sub(off1))
            };
            let dst_start = i * c;
            if copy > 0 {
                let src_start = si * sc + off1;
                out.data_mut()[dst_start..dst_start + copy]
                    .copy_from_slice(&src.data()[src_start..src_start + copy]);
            }
            if stale && copy < c {
                out.data_mut()[dst_start + copy..dst_start + c].fill(0.0);
            }
            if !stale && copy == 0 {
                break;
            }
        }
        Ok(out)
    }
}

enum Step {
    Next,
    Jump(usize),
    Return(Vec<Value>),
}

impl Tape {
    /// Execute the whole tape on `machine` with the given arguments
    /// (single-threaded; drives the device in exactly the tree-walker's
    /// call order, so outputs and statistics are bit-identical to
    /// [`c4cam_runtime::Executor`]).
    ///
    /// # Errors
    /// Propagates compile-surface and runtime failures with op context.
    pub fn run(&self, machine: &mut CamMachine, args: &[Value]) -> Result<Vec<Value>, EngineError> {
        let mut vm = TapeVm::new(self, args)?;
        returned(vm.exec(machine, 0, usize::MAX)?)
    }

    /// Execute the whole tape on `machine` (single-threaded) while
    /// recording a replayable [`Trace`] of every device-relevant
    /// operation. Returns the outputs together with the trace;
    /// replaying the trace on an identically configured fresh device
    /// reproduces both bit-for-bit (see the [`crate::trace`] module).
    ///
    /// # Errors
    /// Propagates compile-surface and runtime failures with op context.
    pub fn run_traced(
        &self,
        machine: &mut CamMachine,
        args: &[Value],
    ) -> Result<(Vec<Value>, Trace), EngineError> {
        let mut vm = TapeVm::new(self, args)?;
        vm.trace = Some(TraceState::new(self.0.n_slots));
        let values = returned(vm.exec(machine, 0, usize::MAX)?)?;
        // Set above, and nothing in `exec` takes it.
        let ops = vm.trace.map_or_else(Vec::new, |tr| tr.ops);
        Ok((values, Trace { ops }))
    }
}

/// The values a completed run returned; a tape that fell off its end
/// without `func.return` is an error.
pub(crate) fn returned(out: Option<Vec<Value>>) -> Result<Vec<Value>, EngineError> {
    out.ok_or_else(|| EngineError::new("function body ended without func.return"))
}
