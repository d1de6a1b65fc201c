//! The IR interpreter.
//!
//! One walker covers every abstraction level the pipeline produces:
//! `torch` and `cim` ops execute functionally on tensors (host
//! reference), `cam` ops drive the attached simulator, and `scf` loops
//! translate their parallel/sequential structure into the machine's
//! timing scopes.

use crate::kernels::{
    as_rank2, merge_partial_rows, read_tensors, reduce_scores, search_query, tensor_rows,
};
use crate::value::{Handle, Value};
use c4cam_arch::tech::Level;
use c4cam_arch::{MatchKind, Metric};
use c4cam_camsim::{CamMachine, RowSelection, SearchSpec, SubarrayId};
use c4cam_ir::{Attribute, BlockId, Module, OpId, TypeKind, ValueId};
use c4cam_tensor::Tensor;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Execution failure (missing value, unsupported op, simulator error...).
///
/// When the failure happened while executing a specific operation, the
/// error carries that op's [`OpId`] and name so failures point at the IR
/// instead of being message-only strings.
#[derive(Debug, Clone)]
pub struct ExecError {
    /// Description of the failure.
    pub message: String,
    /// The operation that failed, when known.
    pub op: Option<OpId>,
    /// Name of the failing operation (e.g. `"cam.search"`), when known.
    pub op_name: Option<String>,
}

impl ExecError {
    fn new(message: impl Into<String>) -> ExecError {
        ExecError {
            message: message.into(),
            op: None,
            op_name: None,
        }
    }

    /// Attach op context if none is recorded yet (the innermost failing
    /// op wins as errors propagate outward).
    #[must_use]
    pub fn with_op(mut self, op: OpId, name: &str) -> ExecError {
        if self.op.is_none() {
            self.op = Some(op);
            self.op_name = Some(name.to_string());
        }
        self
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.message)?;
        if let (Some(op), Some(name)) = (self.op, self.op_name.as_deref()) {
            write!(f, " (in '{name}' at op {})", op.index())?;
        }
        Ok(())
    }
}

impl Error for ExecError {}

type EResult<T> = Result<T, ExecError>;

enum Outcome {
    Yield(Vec<Value>),
    Return(Vec<Value>),
}

type Env = HashMap<ValueId, Value>;

/// A borrowed view of a tensor operand: either a direct borrow of a
/// `Value::Tensor` or a `RefCell` guard of a buffer. Avoids deep-copying
/// large inputs (e.g. the 5216×4096 KNN pattern matrix) on every access.
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

/// Interprets a [`Module`], optionally driving a [`CamMachine`].
pub struct Executor<'a> {
    m: &'a Module,
    machine: Option<&'a mut CamMachine>,
    token_counter: i64,
}

impl<'a> fmt::Debug for Executor<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("has_machine", &self.machine.is_some())
            .finish()
    }
}

impl<'a> Executor<'a> {
    /// Host-reference executor (no device).
    pub fn new(m: &'a Module) -> Executor<'a> {
        Executor {
            m,
            machine: None,
            token_counter: 0,
        }
    }

    /// Device executor: `cam.*` ops drive `machine`.
    pub fn with_machine(m: &'a Module, machine: &'a mut CamMachine) -> Executor<'a> {
        Executor {
            m,
            machine: Some(machine),
            token_counter: 0,
        }
    }

    /// Run function `name` with `args`, returning its results.
    ///
    /// # Errors
    /// Fails on unknown functions, arity mismatches, unsupported ops, or
    /// simulator errors.
    pub fn run(&mut self, name: &str, args: &[Value]) -> EResult<Vec<Value>> {
        let func = self
            .m
            .lookup_symbol(name)
            .ok_or_else(|| ExecError::new(format!("unknown function '{name}'")))?;
        let entry = self.m.op(func).regions[0]
            .first()
            .copied()
            .ok_or_else(|| ExecError::new("function has no body"))?;
        let params = self.m.block(entry).args.clone();
        if params.len() != args.len() {
            return Err(ExecError::new(format!(
                "'{name}' takes {} arguments, got {}",
                params.len(),
                args.len()
            )));
        }
        let mut env: Env = HashMap::new();
        for (&p, a) in params.iter().zip(args) {
            env.insert(p, a.clone());
        }
        match self.exec_block(entry, &mut env)? {
            Outcome::Return(values) => Ok(values),
            Outcome::Yield(_) => Err(ExecError::new("function body ended without func.return")),
        }
    }

    // ------------------------------------------------------------------
    // Core walking
    // ------------------------------------------------------------------

    fn exec_block(&mut self, block: BlockId, env: &mut Env) -> EResult<Outcome> {
        let ops = self.m.block(block).ops.clone();
        for op in ops {
            let step = self
                .exec_op(op, env)
                .map_err(|e| e.with_op(op, &self.m.op(op).name))?;
            if let Some(outcome) = step {
                return Ok(outcome);
            }
        }
        Ok(Outcome::Yield(Vec::new()))
    }

    fn get(&self, env: &Env, v: ValueId) -> EResult<Value> {
        env.get(&v)
            .cloned()
            .ok_or_else(|| ExecError::new(format!("use of unbound value {v:?}")))
    }

    fn get_int(&self, env: &Env, v: ValueId) -> EResult<i64> {
        self.get(env, v)?
            .as_int()
            .ok_or_else(|| ExecError::new("expected an integer value"))
    }

    fn get_tensor(&self, env: &Env, v: ValueId) -> EResult<Tensor> {
        self.get(env, v)?
            .snapshot_tensor()
            .ok_or_else(|| ExecError::new("expected a tensor value"))
    }

    /// Borrowing access to a tensor-valued operand (no copy).
    fn tensor_view<'e>(&self, env: &'e Env, v: ValueId) -> EResult<TensorView<'e>> {
        match env.get(&v) {
            Some(Value::Tensor(t)) => Ok(TensorView::Borrowed(t)),
            Some(Value::Buffer(b)) => Ok(TensorView::Guard(b.borrow())),
            Some(other) => Err(ExecError::new(format!(
                "expected a tensor value, got {}",
                other.kind_name()
            ))),
            None => Err(ExecError::new(format!("use of unbound value {v:?}"))),
        }
    }

    fn get_subarray(&self, env: &Env, v: ValueId) -> EResult<SubarrayId> {
        match self.get(env, v)?.as_handle() {
            Some(Handle::Subarray(id)) => Ok(id),
            other => Err(ExecError::new(format!(
                "expected a subarray handle, got {other:?}"
            ))),
        }
    }

    fn machine(&mut self) -> EResult<&mut CamMachine> {
        self.machine
            .as_deref_mut()
            .ok_or_else(|| ExecError::new("cam op executed without an attached CamMachine"))
    }

    fn set_results(&self, env: &mut Env, op: OpId, values: Vec<Value>) -> EResult<()> {
        let results = &self.m.op(op).results;
        if results.len() != values.len() {
            return Err(ExecError::new(format!(
                "op '{}' produced {} values for {} results",
                self.m.op(op).name,
                values.len(),
                results.len()
            )));
        }
        for (&r, v) in results.iter().zip(values) {
            env.insert(r, v);
        }
        Ok(())
    }

    /// Shape of a declared (tensor/memref) result type, as usizes.
    fn declared_shape(&self, v: ValueId) -> EResult<Vec<usize>> {
        match self.m.kind(self.m.value_type(v)).shape() {
            Some(shape) => shape
                .iter()
                .map(|&d| {
                    usize::try_from(d).map_err(|_| ExecError::new("dynamic shape at runtime"))
                })
                .collect(),
            None => Err(ExecError::new("expected a shaped type")),
        }
    }

    fn reshape_declared(&self, t: Tensor, v: ValueId) -> EResult<Tensor> {
        let shape = self.declared_shape(v)?;
        t.reshape(shape).map_err(|e| ExecError::new(e.message))
    }

    #[allow(clippy::too_many_lines)]
    fn exec_op(&mut self, op: OpId, env: &mut Env) -> EResult<Option<Outcome>> {
        let name = self.m.op(op).name.clone();
        match name.as_str() {
            // ---------------- terminators ----------------
            "func.return" => {
                let vals = self.operand_values(op, env)?;
                return Ok(Some(Outcome::Return(vals)));
            }
            "scf.yield" | "cim.yield" => {
                let vals = self.operand_values(op, env)?;
                return Ok(Some(Outcome::Yield(vals)));
            }

            // ---------------- arith ----------------
            "arith.constant" => {
                let value = self.constant_value(op)?;
                self.set_results(env, op, vec![value])?;
            }
            "arith.addi" | "arith.subi" | "arith.muli" | "arith.divui" | "arith.remui"
            | "arith.minui" | "arith.maxui" => {
                let a = self.get_int(env, self.m.operand(op, 0))?;
                let b = self.get_int(env, self.m.operand(op, 1))?;
                let r = match name.as_str() {
                    "arith.addi" => a.wrapping_add(b),
                    "arith.subi" => a.wrapping_sub(b),
                    "arith.muli" => a.wrapping_mul(b),
                    "arith.divui" => {
                        if b == 0 {
                            return Err(ExecError::new("division by zero in arith.divui"));
                        }
                        ((a as u64) / (b as u64)) as i64
                    }
                    "arith.remui" => {
                        if b == 0 {
                            return Err(ExecError::new("division by zero in arith.remui"));
                        }
                        ((a as u64) % (b as u64)) as i64
                    }
                    "arith.minui" => ((a as u64).min(b as u64)) as i64,
                    "arith.maxui" => ((a as u64).max(b as u64)) as i64,
                    _ => unreachable!(),
                };
                let v = self.int_like_result(op, r);
                self.set_results(env, op, vec![v])?;
            }
            "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" => {
                let a = match self.get(env, self.m.operand(op, 0))? {
                    Value::Float(f) => f,
                    other => {
                        return Err(ExecError::new(format!("float op on {}", other.kind_name())))
                    }
                };
                let b = match self.get(env, self.m.operand(op, 1))? {
                    Value::Float(f) => f,
                    other => {
                        return Err(ExecError::new(format!("float op on {}", other.kind_name())))
                    }
                };
                let r = match name.as_str() {
                    "arith.addf" => a + b,
                    "arith.subf" => a - b,
                    "arith.mulf" => a * b,
                    "arith.divf" => a / b,
                    _ => unreachable!(),
                };
                self.set_results(env, op, vec![Value::Float(r)])?;
            }
            "arith.cmpi" => {
                let a = self.get_int(env, self.m.operand(op, 0))?;
                let b = self.get_int(env, self.m.operand(op, 1))?;
                let pred = self
                    .m
                    .op(op)
                    .str_attr("predicate")
                    .ok_or_else(|| ExecError::new("cmpi without predicate"))?;
                let r = match pred {
                    "eq" => a == b,
                    "ne" => a != b,
                    "slt" => a < b,
                    "sle" => a <= b,
                    "sgt" => a > b,
                    "sge" => a >= b,
                    "ult" => (a as u64) < (b as u64),
                    "ule" => (a as u64) <= (b as u64),
                    "ugt" => (a as u64) > (b as u64),
                    "uge" => (a as u64) >= (b as u64),
                    other => return Err(ExecError::new(format!("unknown predicate {other}"))),
                };
                self.set_results(env, op, vec![Value::Bool(r)])?;
            }
            "arith.index_cast" => {
                let a = self.get_int(env, self.m.operand(op, 0))?;
                let v = self.int_like_result(op, a);
                self.set_results(env, op, vec![v])?;
            }

            // ---------------- scf ----------------
            "scf.for" => self.exec_for(op, env)?,
            "scf.parallel" => self.exec_parallel(op, env)?,
            "scf.if" => {
                let cond = self
                    .get(env, self.m.operand(op, 0))?
                    .as_bool()
                    .ok_or_else(|| ExecError::new("scf.if condition must be boolean"))?;
                let regions = self.m.op(op).regions.clone();
                let region = if cond {
                    regions.first()
                } else {
                    regions.get(1)
                };
                if let Some(region) = region {
                    if let Some(&block) = region.first() {
                        self.exec_block(block, env)?;
                    }
                }
            }

            // ---------------- tensor / memref ----------------
            "tensor.extract_slice" => {
                let t = self.exec_extract_slice(op, env)?;
                self.set_results(env, op, vec![Value::Tensor(t)])?;
            }
            "memref.alloc" => {
                let shape = self.declared_shape(self.m.result(op, 0))?;
                self.set_results(env, op, vec![Value::new_buffer(shape)])?;
            }
            "memref.alloc_copy" => {
                let t = self.get_tensor(env, self.m.operand(op, 0))?;
                self.set_results(env, op, vec![Value::buffer_from(t)])?;
            }
            "memref.to_tensor" => {
                let t = self
                    .get(env, self.m.operand(op, 0))?
                    .snapshot_tensor()
                    .ok_or_else(|| ExecError::new("to_tensor on non-buffer"))?;
                self.set_results(env, op, vec![Value::Tensor(t)])?;
            }

            // ---------------- torch & cim functional ----------------
            "torch.constant" => {
                let value = self.constant_value(op)?;
                self.set_results(env, op, vec![value])?;
            }
            "torch.constant_int" => {
                let v = self
                    .m
                    .op(op)
                    .int_attr("value")
                    .ok_or_else(|| ExecError::new("constant_int without value"))?;
                self.set_results(env, op, vec![Value::Int(v)])?;
            }
            "torch.transpose" | "cim.transpose" => {
                let t = self.get_tensor(env, self.m.operand(op, 0))?;
                let r = t.transpose2d().map_err(|e| ExecError::new(e.message))?;
                self.set_results(env, op, vec![Value::Tensor(r)])?;
            }
            "torch.matmul" | "torch.mm" | "cim.matmul" => {
                let a = self.get_tensor(env, self.m.operand(op, 0))?;
                let b = self.get_tensor(env, self.m.operand(op, 1))?;
                let r = a.matmul(&b).map_err(|e| ExecError::new(e.message))?;
                self.set_results(env, op, vec![Value::Tensor(r)])?;
            }
            "torch.sub" | "cim.sub" => {
                let a = self.get_tensor(env, self.m.operand(op, 0))?;
                let b = self.get_tensor(env, self.m.operand(op, 1))?;
                let r = broadcast_sub(&a, &b)?;
                self.set_results(env, op, vec![Value::Tensor(r)])?;
            }
            "torch.div" | "cim.div" => {
                let r = self.exec_div(op, env)?;
                self.set_results(env, op, vec![Value::Tensor(r)])?;
            }
            "torch.norm" | "cim.norm" => {
                let t = self.get_tensor(env, self.m.operand(op, 0))?;
                let r = t.norm_rows().map_err(|e| ExecError::new(e.message))?;
                self.set_results(env, op, vec![Value::Tensor(r)])?;
            }
            "torch.topk" | "cim.topk" => {
                let t = self.get_tensor(env, self.m.operand(op, 0))?;
                let k = self.get_int(env, self.m.operand(op, 1))? as usize;
                let largest = self.bool_attr(op, "largest")?;
                let t2 = as_rank2(&t);
                let topk = t2.topk(k, largest).map_err(|e| ExecError::new(e.message))?;
                let vals = self.reshape_declared(topk.values, self.m.result(op, 0))?;
                let idx = self.reshape_declared(topk.indices, self.m.result(op, 1))?;
                self.set_results(env, op, vec![Value::Tensor(vals), Value::Tensor(idx)])?;
            }

            // ---------------- cim abstraction ----------------
            "cim.acquire" => {
                self.token_counter += 1;
                let token = self.token_counter;
                self.set_results(env, op, vec![Value::DeviceToken(token)])?;
            }
            "cim.release" => {}
            "cim.execute" => {
                let body = self.m.op(op).regions[0][0];
                match self.exec_block(body, env)? {
                    Outcome::Yield(values) => self.set_results(env, op, values)?,
                    Outcome::Return(_) => {
                        return Err(ExecError::new("func.return inside cim.execute"))
                    }
                }
            }
            "cim.similarity" => {
                let (vals, idx) = self.exec_similarity(op, env)?;
                self.set_results(env, op, vec![Value::Tensor(vals), Value::Tensor(idx)])?;
            }
            "cim.similarity_scores" => {
                let t = self.exec_similarity_scores(op, env)?;
                self.set_results(env, op, vec![Value::Tensor(t)])?;
            }
            "cim.init_acc" => {
                let shape = self.declared_shape(self.m.result(op, 0))?;
                self.set_results(env, op, vec![Value::Tensor(Tensor::zeros(shape))])?;
            }
            "cim.merge_partial" => {
                let acc = self.get_tensor(env, self.m.operand(op, 0))?;
                let partial = self.get_tensor(env, self.m.operand(op, 1))?;
                let off = self.get_int(env, self.m.operand(op, 2))?;
                let r = merge_partial(acc, &partial, off)?;
                self.set_results(env, op, vec![Value::Tensor(r)])?;
            }
            "cim.reduce" => {
                let (vals, idx) = self.exec_cim_reduce(op, env)?;
                self.set_results(env, op, vec![Value::Tensor(vals), Value::Tensor(idx)])?;
            }

            // ---------------- cam device ----------------
            "cam.alloc_bank" => {
                let id = self.machine()?.alloc_bank().map_err(sim_err)?;
                self.set_results(env, op, vec![Value::Handle(Handle::Bank(id))])?;
            }
            "cam.alloc_mat" => {
                let bank = match self.get(env, self.m.operand(op, 0))?.as_handle() {
                    Some(Handle::Bank(b)) => b,
                    _ => return Err(ExecError::new("alloc_mat expects a bank handle")),
                };
                let id = self.machine()?.alloc_mat(bank).map_err(sim_err)?;
                self.set_results(env, op, vec![Value::Handle(Handle::Mat(id))])?;
            }
            "cam.alloc_array" => {
                let mat = match self.get(env, self.m.operand(op, 0))?.as_handle() {
                    Some(Handle::Mat(x)) => x,
                    _ => return Err(ExecError::new("alloc_array expects a mat handle")),
                };
                let id = self.machine()?.alloc_array(mat).map_err(sim_err)?;
                self.set_results(env, op, vec![Value::Handle(Handle::Array(id))])?;
            }
            "cam.alloc_subarray" => {
                let array = match self.get(env, self.m.operand(op, 0))?.as_handle() {
                    Some(Handle::Array(x)) => x,
                    _ => return Err(ExecError::new("alloc_subarray expects an array handle")),
                };
                let id = self.machine()?.alloc_subarray(array).map_err(sim_err)?;
                self.set_results(env, op, vec![Value::Handle(Handle::Subarray(id))])?;
            }
            "cam.store_handle" => {
                let table = self
                    .get(env, self.m.operand(op, 0))?
                    .as_buffer()
                    .cloned()
                    .ok_or_else(|| ExecError::new("store_handle expects a buffer table"))?;
                let pos = self.get_int(env, self.m.operand(op, 1))? as usize;
                let sub = self.get_subarray(env, self.m.operand(op, 2))?;
                let mut t = table.borrow_mut();
                if pos >= t.len() {
                    return Err(ExecError::new("handle table index out of bounds"));
                }
                t.data_mut()[pos] = sub.0 as f32;
            }
            "cam.load_handle" => {
                let table = self
                    .get(env, self.m.operand(op, 0))?
                    .snapshot_tensor()
                    .ok_or_else(|| ExecError::new("load_handle expects a buffer table"))?;
                let pos = self.get_int(env, self.m.operand(op, 1))? as usize;
                if pos >= table.len() {
                    return Err(ExecError::new("handle table index out of bounds"));
                }
                let id = SubarrayId(table.data()[pos] as usize);
                self.set_results(env, op, vec![Value::Handle(Handle::Subarray(id))])?;
            }
            "cam.write_value" => {
                let sub = self.get_subarray(env, self.m.operand(op, 0))?;
                let data = self.tensor_view(env, self.m.operand(op, 1))?;
                let row_off = self.get_int(env, self.m.operand(op, 2))? as usize;
                self.machine()?
                    .write_row_views(sub, row_off, &tensor_rows(&data))
                    .map_err(sim_err)?;
            }
            "cam.search" => self.exec_cam_search(op, env)?,
            "cam.read" => {
                let sub = self.get_subarray(env, self.m.operand(op, 0))?;
                let shape = self.declared_shape(self.m.result(op, 0))?;
                let (vals, idx) = {
                    let result = self.machine()?.read(sub).map_err(sim_err)?;
                    read_tensors(result, &shape).map_err(ExecError::new)?
                };
                self.set_results(
                    env,
                    op,
                    vec![Value::buffer_from(vals), Value::buffer_from(idx)],
                )?;
            }
            "cam.merge_partial_subarray" => {
                let acc = self
                    .get(env, self.m.operand(op, 1))?
                    .as_buffer()
                    .cloned()
                    .ok_or_else(|| ExecError::new("merge expects an accumulator buffer"))?;
                let q = self.get_int(env, self.m.operand(op, 4))? as usize;
                let offset = self.get_int(env, self.m.operand(op, 5))?;
                let vals = self.tensor_view(env, self.m.operand(op, 2))?;
                let idx = self.tensor_view(env, self.m.operand(op, 3))?;
                let mut a = acc.borrow_mut();
                merge_partial_rows(&mut a, &vals, &idx, q, offset).map_err(ExecError::new)?;
            }
            "cam.phase_marker" => {
                let pname = self
                    .m
                    .op(op)
                    .str_attr("name")
                    .unwrap_or("phase")
                    .to_string();
                self.machine()?.mark_phase(&pname);
            }
            "cam.merge_level" => {
                let level = match self.m.op(op).str_attr("level") {
                    Some("bank") => Level::Bank,
                    Some("mat") => Level::Mat,
                    Some("array") => Level::Array,
                    Some("subarray") => Level::Subarray,
                    other => return Err(ExecError::new(format!("bad merge level {other:?}"))),
                };
                let elems = self.m.op(op).int_attr("elems").unwrap_or(1) as usize;
                self.machine()?.merge(level, elems);
            }
            "cam.reduce" => {
                let (vals, idx) = self.exec_cam_reduce(op, env)?;
                self.set_results(
                    env,
                    op,
                    vec![Value::buffer_from(vals), Value::buffer_from(idx)],
                )?;
            }

            other => {
                return Err(ExecError::new(format!("unsupported op '{other}'")));
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Op helpers
    // ------------------------------------------------------------------

    fn operand_values(&self, op: OpId, env: &Env) -> EResult<Vec<Value>> {
        self.m
            .op(op)
            .operands
            .iter()
            .map(|&v| self.get(env, v))
            .collect()
    }

    fn bool_attr(&self, op: OpId, name: &str) -> EResult<bool> {
        self.m
            .op(op)
            .attr(name)
            .and_then(Attribute::as_bool)
            .ok_or_else(|| ExecError::new(format!("missing boolean attribute '{name}'")))
    }

    fn int_like_result(&self, op: OpId, v: i64) -> Value {
        match self.m.kind(self.m.value_type(self.m.result(op, 0))) {
            TypeKind::Index => Value::Index(v),
            _ => Value::Int(v),
        }
    }

    fn constant_value(&self, op: OpId) -> EResult<Value> {
        let data = self.m.op(op);
        let attr = data
            .attr("value")
            .ok_or_else(|| ExecError::new("constant without value"))?;
        match attr {
            Attribute::Int(v) => Ok(self.int_like_result(op, *v)),
            Attribute::Bool(b) => Ok(Value::Bool(*b)),
            Attribute::Float(f) => Ok(Value::Float(*f)),
            Attribute::Dense { shape, data } => {
                let shape: Vec<usize> = shape.iter().map(|&d| d as usize).collect();
                let values: Vec<f32> = (0..data.len()).map(|i| data.get_f64(i) as f32).collect();
                Ok(Value::Tensor(Tensor::from_vec(shape, values).map_err(te)?))
            }
            other => Err(ExecError::new(format!("bad constant payload {other:?}"))),
        }
    }

    fn loop_bounds(&self, op: OpId, env: &Env) -> EResult<(i64, i64, i64)> {
        let lb = self.get_int(env, self.m.operand(op, 0))?;
        let ub = self.get_int(env, self.m.operand(op, 1))?;
        let step = self.get_int(env, self.m.operand(op, 2))?;
        if step <= 0 {
            return Err(ExecError::new("loop step must be positive"));
        }
        Ok((lb, ub, step))
    }

    fn exec_for(&mut self, op: OpId, env: &mut Env) -> EResult<()> {
        let (lb, ub, step) = self.loop_bounds(op, env)?;
        let inits: Vec<Value> = self.m.op(op).operands[3..]
            .iter()
            .map(|&v| self.get(env, v))
            .collect::<EResult<_>>()?;
        let body = self.m.op(op).regions[0][0];
        let args = self.m.block(body).args.clone();
        let mut carried = inits;
        let mut iv = lb;
        while iv < ub {
            env.insert(args[0], Value::Index(iv));
            for (&a, v) in args[1..].iter().zip(&carried) {
                env.insert(a, v.clone());
            }
            match self.exec_block(body, env)? {
                Outcome::Yield(values) => {
                    if values.len() != carried.len() {
                        return Err(ExecError::new("scf.for yield arity mismatch"));
                    }
                    carried = values;
                }
                Outcome::Return(_) => {
                    return Err(ExecError::new("func.return inside scf.for"));
                }
            }
            iv += step;
        }
        self.set_results(env, op, carried)?;
        Ok(())
    }

    fn exec_parallel(&mut self, op: OpId, env: &mut Env) -> EResult<()> {
        let (lb, ub, step) = self.loop_bounds(op, env)?;
        let body = self.m.op(op).regions[0][0];
        let iv_arg = self.m.block(body).args[0];
        if let Some(mach) = self.machine.as_deref_mut() {
            mach.push_parallel();
        }
        let mut iv = lb;
        let mut result = Ok(());
        while iv < ub {
            env.insert(iv_arg, Value::Index(iv));
            if let Some(mach) = self.machine.as_deref_mut() {
                mach.push_sequential();
            }
            let r = self.exec_block(body, env);
            if let Some(mach) = self.machine.as_deref_mut() {
                mach.pop_scope();
            }
            match r {
                Ok(Outcome::Yield(_)) => {}
                Ok(Outcome::Return(_)) => {
                    result = Err(ExecError::new("func.return inside scf.parallel"));
                    break;
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            iv += step;
        }
        if let Some(mach) = self.machine.as_deref_mut() {
            mach.pop_scope();
        }
        result
    }

    fn exec_extract_slice(&mut self, op: OpId, env: &Env) -> EResult<Tensor> {
        let src = self.tensor_view(env, self.m.operand(op, 0))?;
        if src.rank() != 2 {
            return Err(ExecError::new("extract_slice supports rank-2 tensors"));
        }
        let data = self.m.op(op);
        let static_offsets = data
            .attr("static_offsets")
            .and_then(Attribute::as_int_array)
            .ok_or_else(|| ExecError::new("extract_slice without static_offsets"))?;
        let sizes = data
            .attr("sizes")
            .and_then(Attribute::as_int_array)
            .ok_or_else(|| ExecError::new("extract_slice without sizes"))?;
        let mut dyn_idx = 1usize;
        let mut offsets = Vec::with_capacity(static_offsets.len());
        for &so in &static_offsets {
            if so == crate::kernels::DYNAMIC_OFFSET {
                let v = self.get_int(env, self.m.operand(op, dyn_idx))?;
                dyn_idx += 1;
                offsets.push(v);
            } else {
                offsets.push(so);
            }
        }
        if offsets.iter().any(|&o| o < 0) {
            return Err(ExecError::new("negative slice offset"));
        }
        let (r, c) = (sizes[0] as usize, sizes[1] as usize);
        let (off0, off1) = (offsets[0] as usize, offsets[1] as usize);
        let (sr, sc) = (src.shape()[0], src.shape()[1]);
        // Clamped + zero-padded window (see tensor_ops docs).
        let mut out = Tensor::zeros(vec![r, c]);
        for i in 0..r {
            let si = off0 + i;
            if si >= sr {
                break;
            }
            let copy = c.min(sc.saturating_sub(off1));
            if copy == 0 {
                break;
            }
            let src_start = si * sc + off1;
            let dst_start = i * c;
            out.data_mut()[dst_start..dst_start + copy]
                .copy_from_slice(&src.data()[src_start..src_start + copy]);
        }
        Ok(out)
    }

    fn exec_div(&mut self, op: OpId, env: &Env) -> EResult<Tensor> {
        let operands = self.m.op(op).operands.clone();
        let a = self.get_tensor(env, operands[0])?;
        if operands.len() == 2 {
            let b = self.get_tensor(env, operands[1])?;
            return a.div(&b).map_err(te);
        }
        // Cosine form: div(mm[nq,ns], n2[ns], n1[nq]).
        let n2 = self.get_tensor(env, operands[1])?;
        let n1 = self.get_tensor(env, operands[2])?;
        let (nq, ns) = (a.shape()[0], a.shape()[1]);
        if n2.len() != ns || n1.len() != nq {
            return Err(ExecError::new("cosine div operand shapes do not line up"));
        }
        let mut out = a.clone();
        for i in 0..nq {
            for j in 0..ns {
                let denom = n1.data()[i] * n2.data()[j];
                out.data_mut()[i * ns + j] /= denom;
            }
        }
        Ok(out)
    }

    /// Full host-reference similarity: exact scores + top-k.
    fn exec_similarity(&mut self, op: OpId, env: &Env) -> EResult<(Tensor, Tensor)> {
        let k = self.get_int(env, self.m.operand(op, 2))? as usize;
        let metric = self
            .m
            .op(op)
            .str_attr("metric")
            .ok_or_else(|| ExecError::new("similarity without metric"))?
            .to_string();
        let largest = self.bool_attr(op, "largest")?;
        let scores = {
            let stored = self.tensor_view(env, self.m.operand(op, 0))?;
            let query = self.tensor_view(env, self.m.operand(op, 1))?;
            score_matrix(&stored, &query, &metric, true)?
        };
        if metric == "cos" {
            // The cosine pattern yields the full normalized matrix (no
            // top-k in Algorithm 1); indices are the column ids.
            let (nq, ns) = (scores.shape()[0], scores.shape()[1]);
            let idx: Vec<f32> = (0..nq).flat_map(|_| (0..ns).map(|j| j as f32)).collect();
            let vals = self.reshape_declared(scores, self.m.result(op, 0))?;
            let idx = Tensor::from_vec(vec![nq, ns], idx).map_err(te)?;
            let idx = self.reshape_declared(idx, self.m.result(op, 1))?;
            return Ok((vals, idx));
        }
        let topk = scores.topk(k, largest).map_err(te)?;
        let vals = self.reshape_declared(topk.values, self.m.result(op, 0))?;
        let idx = self.reshape_declared(topk.indices, self.m.result(op, 1))?;
        Ok((vals, idx))
    }

    /// Partial scores for the partitioned form (pre-reduction: squared
    /// distances / raw dot partials, accumulated additively).
    fn exec_similarity_scores(&mut self, op: OpId, env: &Env) -> EResult<Tensor> {
        let metric = self
            .m
            .op(op)
            .str_attr("metric")
            .ok_or_else(|| ExecError::new("similarity_scores without metric"))?
            .to_string();
        let stored = self.tensor_view(env, self.m.operand(op, 0))?;
        let query = self.tensor_view(env, self.m.operand(op, 1))?;
        score_matrix(&stored, &query, &metric, false)
    }

    fn exec_cim_reduce(&mut self, op: OpId, env: &Env) -> EResult<(Tensor, Tensor)> {
        let acc = self.get_tensor(env, self.m.operand(op, 0))?;
        let k = self.get_int(env, self.m.operand(op, 1))? as usize;
        let data = self.m.op(op);
        let largest = self.bool_attr(op, "largest")?;
        let metric = data.str_attr("metric").unwrap_or("dot").to_string();
        let n_valid =
            data.int_attr("n_valid")
                .ok_or_else(|| ExecError::new("cim.reduce without n_valid"))? as usize;
        let (vals, idx) =
            reduce_scores(&acc, k, n_valid, largest, &metric, false).map_err(ExecError::new)?;
        let vals = self.reshape_declared(vals, self.m.result(op, 0))?;
        let idx = self.reshape_declared(idx, self.m.result(op, 1))?;
        Ok((vals, idx))
    }

    fn exec_cam_reduce(&mut self, op: OpId, env: &Env) -> EResult<(Tensor, Tensor)> {
        let acc = self
            .get(env, self.m.operand(op, 0))?
            .snapshot_tensor()
            .ok_or_else(|| ExecError::new("cam.reduce expects a buffer"))?;
        let data = self.m.op(op);
        let k = data
            .int_attr("k")
            .ok_or_else(|| ExecError::new("cam.reduce without k"))? as usize;
        let n_valid =
            data.int_attr("n_valid")
                .ok_or_else(|| ExecError::new("cam.reduce without n_valid"))? as usize;
        let select_largest = self.bool_attr(op, "select_largest")?;
        let metric = data.str_attr("metric").unwrap_or("dot").to_string();
        let (vals, idx) = reduce_scores(&acc, k, n_valid, select_largest, &metric, true)
            .map_err(ExecError::new)?;
        let vals = self.reshape_declared(vals, self.m.result(op, 0))?;
        let idx = self.reshape_declared(idx, self.m.result(op, 1))?;
        Ok((vals, idx))
    }

    fn exec_cam_search(&mut self, op: OpId, env: &Env) -> EResult<()> {
        let sub = self.get_subarray(env, self.m.operand(op, 0))?;
        let data = self.m.op(op);
        let kind = data
            .str_attr("kind")
            .and_then(MatchKind::from_keyword)
            .ok_or_else(|| ExecError::new("cam.search without kind"))?;
        let metric = data
            .str_attr("metric")
            .and_then(Metric::from_keyword)
            .ok_or_else(|| ExecError::new("cam.search without metric"))?;
        let selective = data
            .attr("selective")
            .and_then(Attribute::as_bool)
            .unwrap_or(false);
        let mut spec = SearchSpec::new(kind, metric);
        if selective {
            let start = self.get_int(env, self.m.operand(op, 2))? as usize;
            let len = self.get_int(env, self.m.operand(op, 3))? as usize;
            spec = spec.with_selection(RowSelection::Window { start, len });
        }
        if let Some(threshold) = data.attr("threshold").and_then(Attribute::as_float) {
            spec = spec.with_threshold(threshold);
        }
        if let Some(share) = data.attr("broadcast_share").and_then(Attribute::as_float) {
            spec = spec.with_broadcast_share(share);
        }
        let q = {
            let query = self.tensor_view(env, self.m.operand(op, 1))?;
            search_query(&query).map_err(ExecError::new)?
        };
        self.machine()?.search(sub, &q, spec).map_err(sim_err)?;
        Ok(())
    }
}

fn sim_err(e: c4cam_camsim::SimError) -> ExecError {
    ExecError::new(e.message)
}

fn te(e: c4cam_tensor::TensorError) -> ExecError {
    ExecError::new(e.message)
}

fn broadcast_sub(a: &Tensor, b: &Tensor) -> EResult<Tensor> {
    if a.shape() == b.shape() {
        return a.sub(b).map_err(te);
    }
    // Row broadcast: [N, d] - [1, d].
    if a.rank() == 2 && b.rank() == 2 && b.shape()[0] == 1 && a.shape()[1] == b.shape()[1] {
        let (n, d) = (a.shape()[0], a.shape()[1]);
        let mut out = a.clone();
        for i in 0..n {
            for j in 0..d {
                out.data_mut()[i * d + j] -= b.data()[j];
            }
        }
        return Ok(out);
    }
    Err(ExecError::new(format!(
        "sub shapes incompatible: {:?} vs {:?}",
        a.shape(),
        b.shape()
    )))
}

/// Score matrix `[nq, ns]` between query rows and stored rows.
///
/// With `finalized = true` (unpartitioned host similarity) Euclidean
/// scores are true distances (sqrt); otherwise squared partials suitable
/// for additive accumulation.
fn score_matrix(stored: &Tensor, query: &Tensor, metric: &str, finalized: bool) -> EResult<Tensor> {
    let s = as_rank2(stored);
    let q = as_rank2(query);
    if s.shape()[1] != q.shape()[1] {
        return Err(ExecError::new("similarity feature dims differ"));
    }
    let (ns, nq) = (s.shape()[0], q.shape()[0]);
    let mut out = Tensor::zeros(vec![nq, ns]);
    for i in 0..nq {
        let qr = q.row(i).map_err(te)?;
        for j in 0..ns {
            let srow = s.row(j).map_err(te)?;
            let v = match metric {
                "dot" | "cos" => qr
                    .iter()
                    .zip(srow)
                    .map(|(&x, &y)| (x as f64) * (y as f64))
                    .sum::<f64>(),
                "eucl" => {
                    let d2 = Tensor::squared_distance(qr, srow).map_err(te)?;
                    if finalized {
                        d2.sqrt()
                    } else {
                        d2
                    }
                }
                other => return Err(ExecError::new(format!("unknown metric {other}"))),
            };
            out.data_mut()[i * ns + j] = v as f32;
        }
    }
    if metric == "cos" && finalized {
        // Normalize by the norms of query and stored rows.
        let mut normalized = out.clone();
        for i in 0..nq {
            let qn = Tensor::from_slice(q.row(i).map_err(te)?).norm_l2();
            for j in 0..ns {
                let sn = Tensor::from_slice(s.row(j).map_err(te)?).norm_l2();
                normalized.data_mut()[i * ns + j] /= qn * sn;
            }
        }
        return Ok(normalized);
    }
    Ok(out)
}

fn merge_partial(mut acc: Tensor, partial: &Tensor, col_off: i64) -> EResult<Tensor> {
    if acc.rank() != 2 || partial.rank() != 2 {
        return Err(ExecError::new("merge_partial expects rank-2 tensors"));
    }
    let (nq, cols) = (acc.shape()[0], acc.shape()[1]);
    let (pq, pc) = (partial.shape()[0], partial.shape()[1]);
    if pq != nq {
        return Err(ExecError::new("merge_partial query count mismatch"));
    }
    let off = usize::try_from(col_off).map_err(|_| ExecError::new("negative merge offset"))?;
    if off + pc > cols {
        return Err(ExecError::new("merge_partial writes past accumulator"));
    }
    for i in 0..nq {
        for j in 0..pc {
            acc.data_mut()[i * cols + off + j] += partial.data()[i * pc + j];
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_arch::ArchSpec;
    use c4cam_core::dialects::torch;
    use c4cam_core::pipeline::{C4camPipeline, PipelineOptions, Target};
    use c4cam_ir::pass::Pass;
    use c4cam_ir::Module;

    fn hdc_inputs(nq: usize, classes: usize, dims: usize) -> (Tensor, Tensor) {
        // Deterministic binary patterns with per-class structure.
        let mut stored = Vec::with_capacity(classes * dims);
        for c in 0..classes {
            for d in 0..dims {
                stored.push(f32::from(u8::from((d + c) % 3 == 0)));
            }
        }
        let mut queries = Vec::with_capacity(nq * dims);
        for q in 0..nq {
            for d in 0..dims {
                // Query q is a noisy copy of class q % classes.
                let base = f32::from(u8::from((d + (q % classes)).is_multiple_of(3)));
                let flip = f32::from(u8::from(d % 97 == q));
                queries.push((base + flip) % 2.0);
            }
        }
        (
            Tensor::from_vec(vec![classes, dims], stored).unwrap(),
            Tensor::from_vec(vec![nq, dims], queries).unwrap(),
        )
    }

    #[test]
    fn torch_level_hdc_matches_manual_computation() {
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 3, 4, 64, 1);
        let (stored, queries) = hdc_inputs(3, 4, 64);
        let out = Executor::new(&m)
            .run(
                "forward",
                &[
                    Value::Tensor(queries.clone()),
                    Value::Tensor(stored.clone()),
                ],
            )
            .unwrap();
        // Manual reference.
        let scores = queries.matmul(&stored.transpose2d().unwrap()).unwrap();
        let expect = scores.topk(1, false).unwrap();
        assert_eq!(out[0].as_tensor().unwrap(), &expect.values);
        assert_eq!(out[1].as_tensor().unwrap(), &expect.indices);
    }

    #[test]
    fn cim_level_execution_equals_torch_level() {
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 2, 4, 64, 1);
        let (stored, queries) = hdc_inputs(2, 4, 64);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let torch_out = Executor::new(&m).run("forward", &args).unwrap();

        c4cam_core::passes::TorchToCimPass.run(&mut m).unwrap();
        let cim_out = Executor::new(&m).run("forward", &args).unwrap();
        assert_eq!(
            torch_out[1].as_tensor().unwrap(),
            cim_out[1].as_tensor().unwrap()
        );

        c4cam_core::passes::CimFusePass.run(&mut m).unwrap();
        let fused_out = Executor::new(&m).run("forward", &args).unwrap();
        assert_eq!(
            torch_out[1].as_tensor().unwrap(),
            fused_out[1].as_tensor().unwrap()
        );
    }

    #[test]
    fn partitioned_host_execution_equals_unpartitioned() {
        let spec = ArchSpec::builder().subarray(16, 16).build().unwrap();
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 2, 4, 64, 1);
        let (stored, queries) = hdc_inputs(2, 4, 64);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let reference = Executor::new(&m).run("forward", &args).unwrap();

        let compiled = C4camPipeline::new(spec)
            .with_options(PipelineOptions {
                target: Target::HostLoops,
                ..PipelineOptions::default()
            })
            .compile(m)
            .unwrap();
        let out = Executor::new(&compiled.module)
            .run("forward", &args)
            .unwrap();
        assert_eq!(
            reference[1].as_tensor().unwrap(),
            out[1].as_tensor().unwrap(),
            "partitioned indices must match"
        );
    }

    #[test]
    fn cam_device_execution_matches_host_indices() {
        let spec = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 2)
            .build()
            .unwrap();
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 3, 4, 64, 1);
        let (stored, queries) = hdc_inputs(3, 4, 64);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let reference = Executor::new(&m).run("forward", &args).unwrap();

        let compiled = C4camPipeline::new(spec.clone()).compile(m).unwrap();
        let mut machine = CamMachine::new(&spec);
        let out = Executor::with_machine(&compiled.module, &mut machine)
            .run("forward", &args)
            .unwrap();
        assert_eq!(
            reference[1].as_tensor().unwrap().data(),
            out[1].as_tensor().unwrap().data(),
            "device indices must match host reference"
        );
        let stats = machine.stats();
        assert!(stats.search_ops > 0);
        assert!(stats.latency_ns > 0.0);
        assert!(stats.subarrays_allocated > 0);
    }

    #[test]
    fn knn_device_execution_matches_reference() {
        let spec = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .build()
            .unwrap();
        let mut m = Module::new();
        torch::build_knn_eucl(&mut m, 40, 32, 3);
        // Stored patterns with distinct distances from the query.
        let mut stored = Vec::new();
        for p in 0..40 {
            for d in 0..32 {
                stored.push(f32::from(u8::from((d * 7 + p * 3) % 5 == 0)));
            }
        }
        let stored = Tensor::from_vec(vec![40, 32], stored).unwrap();
        let query: Vec<f32> = (0..32).map(|d| f32::from(u8::from(d % 5 == 0))).collect();
        let query = Tensor::from_vec(vec![1, 32], query).unwrap();
        let args = [Value::Tensor(stored), Value::Tensor(query)];
        let reference = Executor::new(&m).run("knn", &args).unwrap();

        let compiled = C4camPipeline::new(spec.clone()).compile(m).unwrap();
        let mut machine = CamMachine::new(&spec);
        let out = Executor::with_machine(&compiled.module, &mut machine)
            .run("knn", &args)
            .unwrap();
        assert_eq!(
            reference[1].as_tensor().unwrap().data(),
            out[1].as_tensor().unwrap().data(),
            "KNN indices must match"
        );
        // Euclidean values are exact (sqrt of accumulated squares).
        let rv = reference[0].as_tensor().unwrap().data();
        let dv = out[0].as_tensor().unwrap().data();
        for (a, b) in rv.iter().zip(dv) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// Build a module executing a snippet of generic-form IR text, run
    /// it on the host, and return the results.
    fn run_ir(src: &str, func: &str, args: &[Value]) -> EResult<Vec<Value>> {
        let m = c4cam_ir::parse::parse_module(src).expect("parse test IR");
        Executor::new(&m).run(func, args)
    }

    #[test]
    fn scf_if_takes_both_branches() {
        let src = r#"
"func.func"() ({
^bb(%a0: memref<1x2xf32>):
  %0 = "arith.constant"() {value = 3} : () -> (index)
  %1 = "arith.constant"() {value = 5} : () -> (index)
  %2 = "arith.cmpi"(%0, %1) {predicate = "ult"} : (index, index) -> (i1)
  "scf.if"(%2) ({
  ^bb():
    %3 = "arith.constant"() {value = 7} : () -> (index)
    "scf.yield"() : () -> ()
  }) : (i1) -> ()
  %4 = "memref.to_tensor"(%a0) : (memref<1x2xf32>) -> (tensor<1x2xf32>)
  "func.return"(%4) : (tensor<1x2xf32>) -> ()
}) {function_type = (memref<1x2xf32>) -> tensor<1x2xf32>, sym_name = "f"} : () -> ()
"#;
        let buf = Value::buffer_from(Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap());
        let out = run_ir(src, "f", &[buf]).unwrap();
        assert_eq!(out[0].as_tensor().unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn arith_ops_cover_float_and_index_cases() {
        let src = r#"
"func.func"() ({
^bb():
  %a = "arith.constant"() {value = 2.5} : () -> (f64)
  %b = "arith.constant"() {value = 0.5} : () -> (f64)
  %s = "arith.addf"(%a, %b) : (f64, f64) -> (f64)
  %d = "arith.divf"(%s, %b) : (f64, f64) -> (f64)
  %i = "arith.constant"() {value = 9} : () -> (i64)
  %x = "arith.index_cast"(%i) : (i64) -> (index)
  %m = "arith.minui"(%x, %x) : (index, index) -> (index)
  "func.return"() : () -> ()
}) {function_type = () -> (), sym_name = "f"} : () -> ()
"#;
        run_ir(src, "f", &[]).unwrap();
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let src = r#"
"func.func"() ({
^bb():
  %a = "arith.constant"() {value = 4} : () -> (index)
  %z = "arith.constant"() {value = 0} : () -> (index)
  %q = "arith.divui"(%a, %z) : (index, index) -> (index)
  "func.return"() : () -> ()
}) {function_type = () -> (), sym_name = "f"} : () -> ()
"#;
        let e = run_ir(src, "f", &[]).unwrap_err();
        assert!(e.message.contains("division by zero"), "{e}");
    }

    #[test]
    fn cmpi_predicates_evaluate() {
        for (pred, a, b, expect) in [
            ("eq", 3i64, 3i64, true),
            ("ne", 3, 3, false),
            ("slt", -1, 1, true),
            ("sge", 5, 5, true),
            ("ugt", 2, 1, true),
        ] {
            let src = format!(
                r#"
"func.func"() ({{
^bb():
  %a = "arith.constant"() {{value = {a}}} : () -> (i64)
  %b = "arith.constant"() {{value = {b}}} : () -> (i64)
  %c = "arith.cmpi"(%a, %b) {{predicate = "{pred}"}} : (i64, i64) -> (i1)
  "scf.if"(%c) ({{
  ^bb():
    "test.marker"() : () -> ()
    "scf.yield"() : () -> ()
  }}) : (i1) -> ()
  "func.return"() : () -> ()
}}) {{function_type = () -> (), sym_name = "f"}} : () -> ()
"#
            );
            let result = run_ir(&src, "f", &[]);
            if expect {
                // The then-branch runs test.marker, which is unsupported.
                assert!(result.is_err(), "{pred} should take then-branch");
            } else {
                assert!(result.is_ok(), "{pred} should skip then-branch");
            }
        }
    }

    #[test]
    fn cim_init_acc_and_merge_partial_accumulate() {
        let src = r#"
"func.func"() ({
^bb(%a0: tensor<2x3xf32>):
  %acc = "cim.init_acc"() {shape = [2, 6]} : () -> (tensor<2x6xf32>)
  %off = "arith.constant"() {value = 3} : () -> (index)
  %m = "cim.merge_partial"(%acc, %a0, %off) {dir = "horizontal"} : (tensor<2x6xf32>, tensor<2x3xf32>, index) -> (tensor<2x6xf32>)
  "func.return"(%m) : (tensor<2x6xf32>) -> ()
}) {function_type = (tensor<2x3xf32>) -> tensor<2x6xf32>, sym_name = "f"} : () -> ()
"#;
        let partial = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let out = run_ir(src, "f", &[Value::Tensor(partial)]).unwrap();
        assert_eq!(
            out[0].as_tensor().unwrap().data(),
            &[0., 0., 0., 1., 2., 3., 0., 0., 0., 4., 5., 6.]
        );
    }

    #[test]
    fn merge_partial_out_of_bounds_is_reported() {
        let src = r#"
"func.func"() ({
^bb(%a0: tensor<2x3xf32>):
  %acc = "cim.init_acc"() {shape = [2, 4]} : () -> (tensor<2x4xf32>)
  %off = "arith.constant"() {value = 3} : () -> (index)
  %m = "cim.merge_partial"(%acc, %a0, %off) {dir = "horizontal"} : (tensor<2x4xf32>, tensor<2x3xf32>, index) -> (tensor<2x4xf32>)
  "func.return"(%m) : (tensor<2x4xf32>) -> ()
}) {function_type = (tensor<2x3xf32>) -> tensor<2x4xf32>, sym_name = "f"} : () -> ()
"#;
        let partial = Tensor::zeros(vec![2, 3]);
        let e = run_ir(src, "f", &[Value::Tensor(partial)]).unwrap_err();
        assert!(e.message.contains("past"), "{e}");
    }

    #[test]
    fn cam_ops_without_machine_fail_loudly() {
        let src = r#"
"func.func"() ({
^bb():
  %r = "arith.constant"() {value = 4} : () -> (index)
  %b = "cam.alloc_bank"(%r, %r) : (index, index) -> (!cam.bank_id)
  "func.return"() : () -> ()
}) {function_type = () -> (), sym_name = "f"} : () -> ()
"#;
        let e = run_ir(src, "f", &[]).unwrap_err();
        assert!(e.message.contains("CamMachine"), "{e}");
    }

    #[test]
    fn unknown_function_is_reported() {
        let m = Module::new();
        let e = Executor::new(&m).run("nope", &[]).unwrap_err();
        assert!(e.message.contains("unknown function"), "{e}");
    }

    #[test]
    fn unsupported_op_reports_name() {
        let mut m = Module::new();
        let (_, entry) = c4cam_ir::builder::build_func(&mut m, "f", &[], &[]);
        let mut b = c4cam_ir::builder::OpBuilder::at_end(&mut m, entry);
        b.op("mystery.op", &[], &[], vec![]);
        b.op("func.return", &[], &[], vec![]);
        let e = Executor::new(&m).run("f", &[]).unwrap_err();
        assert!(e.message.contains("mystery.op"), "{e}");
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 1, 2, 4, 1);
        let e = Executor::new(&m).run("forward", &[]).unwrap_err();
        assert!(e.message.contains("arguments"), "{e}");
    }
}
