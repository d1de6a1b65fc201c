//! Lowering from the TorchScript AST to the `torch` dialect.

use crate::ast::{Expr, Stmt, TsFunction};
use crate::parser::FrontendError;
use c4cam_core::dialects::torch;
use c4cam_ir::builder::{build_func, OpBuilder};
use c4cam_ir::{Attribute, Module, OpId, ValueId};
use std::collections::HashMap;

type FResult<T> = Result<T, FrontendError>;

/// Shape information the front end needs (stands in for the serialized
/// TorchScript module the paper's converter reads).
#[derive(Debug, Clone, Default)]
pub struct FrontendConfig {
    /// Shapes of the tensor parameters, in positional order. Parameters
    /// beyond this list are treated as scalar configuration flags and
    /// may not be used in tensor expressions.
    pub inputs: Vec<Vec<i64>>,
    /// Shapes of `self.<name>` module parameters.
    pub parameters: HashMap<String, Vec<i64>>,
}

impl FrontendConfig {
    /// Empty configuration.
    pub fn new() -> FrontendConfig {
        FrontendConfig::default()
    }

    /// Append a positional tensor input shape.
    pub fn input(mut self, shape: Vec<i64>) -> FrontendConfig {
        self.inputs.push(shape);
        self
    }

    /// Declare a `self.<name>` parameter shape.
    pub fn parameter(mut self, name: &str, shape: Vec<i64>) -> FrontendConfig {
        self.parameters.insert(name.to_string(), shape);
        self
    }
}

/// A function lowered to torch IR inside its own [`Module`].
#[derive(Debug)]
pub struct LoweredFunction {
    /// The module holding the lowered function.
    pub module: Module,
    /// The `func.func` op.
    pub func: OpId,
    /// Function name.
    pub name: String,
    /// Names of the runtime arguments in order: tensor parameters first,
    /// then `self.<param>` weights in first-use order.
    pub arg_order: Vec<String>,
}

/// Lowering output before the module is attached (see
/// [`lower_function`]).
#[derive(Debug)]
pub struct LoweredParts {
    /// The `func.func` op.
    pub func: OpId,
    /// Function name.
    pub name: String,
    /// Runtime argument order.
    pub arg_order: Vec<String>,
}

impl LoweredParts {
    /// Package with the module that was lowered into.
    pub fn with_module(self, module: Module) -> LoweredFunction {
        LoweredFunction {
            module,
            func: self.func,
            name: self.name,
            arg_order: self.arg_order,
        }
    }
}

/// A lowered expression value.
#[derive(Debug, Clone)]
enum Lowered {
    /// SSA tensor value.
    Val(ValueId),
    /// Compile-time integer.
    Int(i64),
    /// Compile-time boolean (call lowering reads literal keyword
    /// values straight from the AST, so no payload).
    Bool,
    /// `None` literal.
    None,
}

impl Lowered {
    fn val(&self) -> Option<ValueId> {
        match self {
            Lowered::Val(v) => Some(*v),
            _ => None,
        }
    }
}

/// Collect `self.<name>` references in first-use order.
fn collect_self_params(f: &TsFunction, out: &mut Vec<String>) {
    fn walk(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Attr { base, name } => {
                if matches!(&**base, Expr::Name(n) if n == "self") {
                    if !out.contains(name) {
                        out.push(name.clone());
                    }
                } else {
                    walk(base, out);
                }
            }
            Expr::Call {
                callee,
                args,
                kwargs,
            } => {
                walk(callee, out);
                for a in args {
                    walk(a, out);
                }
                for (_, a) in kwargs {
                    walk(a, out);
                }
            }
            Expr::BinOp { lhs, rhs, .. } => {
                walk(lhs, out);
                walk(rhs, out);
            }
            Expr::Neg(inner) => walk(inner, out),
            _ => {}
        }
    }
    for stmt in &f.body {
        match stmt {
            Stmt::Assign { value, .. } => walk(value, out),
            Stmt::Return(exprs) => {
                for e in exprs {
                    walk(e, out);
                }
            }
        }
    }
}

/// Lower one parsed function into `module`.
///
/// # Errors
/// Fails on unknown calls, missing shapes, or unsupported constructs.
pub fn lower_function(
    module: &mut Module,
    f: &TsFunction,
    config: &FrontendConfig,
) -> FResult<LoweredParts> {
    let mut self_params = Vec::new();
    collect_self_params(f, &mut self_params);

    // Assemble argument order and types.
    let f32t = module.f32_ty();
    let mut arg_order = Vec::new();
    let mut arg_types = Vec::new();
    let tensor_param_count = config.inputs.len().min(f.params.len());
    for (i, shape) in config.inputs.iter().take(tensor_param_count).enumerate() {
        arg_order.push(f.params[i].clone());
        arg_types.push(module.tensor_ty(shape, f32t));
    }
    for p in &self_params {
        let shape = config.parameters.get(p).ok_or_else(|| {
            FrontendError::new(0, format!("no shape configured for parameter self.{p}"))
        })?;
        arg_order.push(format!("self.{p}"));
        arg_types.push(module.tensor_ty(shape, f32t));
    }

    // Result types are only known after lowering; create the function
    // with a provisional type and patch `function_type` afterwards.
    let (func, entry) = build_func(module, &f.name, &arg_types, &[]);

    let mut env: HashMap<String, Lowered> = HashMap::new();
    {
        let args = module.block(entry).args.clone();
        for (name, &v) in arg_order.iter().zip(&args) {
            env.insert(name.clone(), Lowered::Val(v));
        }
    }

    let mut result_values: Option<Vec<ValueId>> = None;
    for stmt in &f.body {
        match stmt {
            Stmt::Assign { targets, value } => {
                let values = lower_expr_multi(module, entry, &mut env, value)?;
                if values.len() != targets.len() {
                    return Err(FrontendError::new(
                        0,
                        format!(
                            "assignment of {} values to {} targets",
                            values.len(),
                            targets.len()
                        ),
                    ));
                }
                for (t, v) in targets.iter().zip(values) {
                    env.insert(t.clone(), v);
                }
            }
            Stmt::Return(exprs) => {
                let mut vals = Vec::new();
                for e in exprs {
                    let lowered = lower_expr_multi(module, entry, &mut env, e)?;
                    for l in lowered {
                        vals.push(l.val().ok_or_else(|| {
                            FrontendError::new(0, "can only return tensor values")
                        })?);
                    }
                }
                let mut b = OpBuilder::at_end(module, entry);
                b.op("func.return", &vals, &[], vec![]);
                result_values = Some(vals);
                break;
            }
        }
    }
    let results = result_values
        .ok_or_else(|| FrontendError::new(0, format!("function '{}' has no return", f.name)))?;

    // Patch the function type with the actual result types.
    let result_tys: Vec<_> = results.iter().map(|&v| module.value_type(v)).collect();
    let fty = module.func_ty(&arg_types, &result_tys);
    module.set_attr(func, "function_type", Attribute::TypeAttr(fty));

    Ok(LoweredParts {
        func,
        name: f.name.clone(),
        arg_order,
    })
}

/// Lower an expression that may produce multiple values (topk).
fn lower_expr_multi(
    m: &mut Module,
    entry: c4cam_ir::BlockId,
    env: &mut HashMap<String, Lowered>,
    e: &Expr,
) -> FResult<Vec<Lowered>> {
    if let Expr::Call {
        callee,
        args,
        kwargs,
    } = e
    {
        let path = callee.dotted_path();
        let is_topk = matches!(
            path.as_deref(),
            Some("torch.topk") | Some("torch.ops.aten.topk")
        ) || matches!(&**callee, Expr::Attr { name, .. } if name == "topk");
        if is_topk {
            let (vals, idx) = lower_topk(m, entry, env, callee, args, kwargs)?;
            return Ok(vec![Lowered::Val(vals), Lowered::Val(idx)]);
        }
    }
    Ok(vec![lower_expr(m, entry, env, e)?])
}

fn lower_expr(
    m: &mut Module,
    entry: c4cam_ir::BlockId,
    env: &mut HashMap<String, Lowered>,
    e: &Expr,
) -> FResult<Lowered> {
    match e {
        Expr::Int(v) => Ok(Lowered::Int(*v)),
        Expr::Float(_) => Err(FrontendError::new(0, "float literals are not supported")),
        Expr::Bool(_) => Ok(Lowered::Bool),
        Expr::None => Ok(Lowered::None),
        Expr::Name(n) => env
            .get(n)
            .cloned()
            .ok_or_else(|| FrontendError::new(0, format!("undefined name '{n}'"))),
        Expr::Attr { base, name } => {
            if matches!(&**base, Expr::Name(n) if n == "self") {
                env.get(&format!("self.{name}"))
                    .cloned()
                    .ok_or_else(|| FrontendError::new(0, format!("unknown parameter self.{name}")))
            } else {
                Err(FrontendError::new(
                    0,
                    format!("unsupported attribute access '.{name}'"),
                ))
            }
        }
        Expr::Neg(_) => Err(FrontendError::new(0, "unary minus on tensors unsupported")),
        Expr::BinOp { op, lhs, rhs } => {
            let l = lower_expr(m, entry, env, lhs)?
                .val()
                .ok_or_else(|| FrontendError::new(0, "operator on non-tensor"))?;
            let r = lower_expr(m, entry, env, rhs)?
                .val()
                .ok_or_else(|| FrontendError::new(0, "operator on non-tensor"))?;
            let mut b = OpBuilder::at_end(m, entry);
            match op {
                '-' => Ok(Lowered::Val(torch::build_sub(&mut b, l, r))),
                '/' => {
                    let lhs_ty = b.module_ref().value_type(l);
                    let div = b.op("torch.div", &[l, r], &[lhs_ty], vec![]);
                    Ok(Lowered::Val(b.module().result(div, 0)))
                }
                other => Err(FrontendError::new(
                    0,
                    format!("unsupported operator '{other}'"),
                )),
            }
        }
        Expr::Call {
            callee,
            args,
            kwargs,
        } => lower_call(m, entry, env, callee, args, kwargs),
    }
}

fn lower_call(
    m: &mut Module,
    entry: c4cam_ir::BlockId,
    env: &mut HashMap<String, Lowered>,
    callee: &Expr,
    args: &[Expr],
    kwargs: &[(String, Expr)],
) -> FResult<Lowered> {
    let path = callee.dotted_path();
    // Known torch library functions.
    if let Some(path) = path.as_deref() {
        match path {
            "torch.matmul" | "torch.mm" => {
                let a = expect_tensor_arg(m, entry, env, args, 0)?;
                let b_arg = expect_tensor_arg(m, entry, env, args, 1)?;
                let mut b = OpBuilder::at_end(m, entry);
                return Ok(Lowered::Val(torch::build_matmul(&mut b, a, b_arg)));
            }
            "torch.sub" => {
                let a = expect_tensor_arg(m, entry, env, args, 0)?;
                let b_arg = expect_tensor_arg(m, entry, env, args, 1)?;
                let mut b = OpBuilder::at_end(m, entry);
                return Ok(Lowered::Val(torch::build_sub(&mut b, a, b_arg)));
            }
            "torch.div" => {
                let mut vals = Vec::new();
                for (i, _) in args.iter().enumerate() {
                    vals.push(expect_tensor_arg(m, entry, env, args, i)?);
                }
                if vals.len() < 2 {
                    return Err(FrontendError::new(0, "torch.div takes 2 or 3 tensors"));
                }
                let lhs_ty = m.value_type(vals[0]);
                let mut b = OpBuilder::at_end(m, entry);
                let div = b.op("torch.div", &vals, &[lhs_ty], vec![]);
                return Ok(Lowered::Val(b.module().result(div, 0)));
            }
            "torch.norm" => {
                let t = expect_tensor_arg(m, entry, env, args, 0)?;
                let mut b = OpBuilder::at_end(m, entry);
                return Ok(Lowered::Val(torch::build_norm(&mut b, t)));
            }
            "torch.topk" | "torch.ops.aten.topk" => {
                let (vals, _idx) = lower_topk(m, entry, env, callee, args, kwargs)?;
                // Single-value context: expose the values tensor.
                return Ok(Lowered::Val(vals));
            }
            "torch.transpose" => {
                let t = expect_tensor_arg(m, entry, env, args, 0)?;
                let d0 = expect_int_arg(m, entry, env, args, 1)?;
                let d1 = expect_int_arg(m, entry, env, args, 2)?;
                let mut b = OpBuilder::at_end(m, entry);
                return Ok(Lowered::Val(torch::build_transpose(&mut b, t, d0, d1)));
            }
            _ => {}
        }
    }
    // Tensor methods: callee is Attr { base: <tensor expr>, name }.
    if let Expr::Attr { base, name } = callee {
        let recv = lower_expr(m, entry, env, base)?;
        if let Some(t) = recv.val() {
            match name.as_str() {
                "transpose" => {
                    let d0 = expect_int_arg(m, entry, env, args, 0)?;
                    let d1 = expect_int_arg(m, entry, env, args, 1)?;
                    let mut b = OpBuilder::at_end(m, entry);
                    return Ok(Lowered::Val(torch::build_transpose(&mut b, t, d0, d1)));
                }
                "matmul" | "mm" => {
                    let rhs = expect_tensor_arg(m, entry, env, args, 0)?;
                    let mut b = OpBuilder::at_end(m, entry);
                    return Ok(Lowered::Val(torch::build_matmul(&mut b, t, rhs)));
                }
                "norm" => {
                    let mut b = OpBuilder::at_end(m, entry);
                    return Ok(Lowered::Val(torch::build_norm(&mut b, t)));
                }
                "sub" => {
                    let rhs = expect_tensor_arg(m, entry, env, args, 0)?;
                    let mut b = OpBuilder::at_end(m, entry);
                    return Ok(Lowered::Val(torch::build_sub(&mut b, t, rhs)));
                }
                other => {
                    return Err(FrontendError::new(
                        0,
                        format!("unsupported tensor method '.{other}()'"),
                    ))
                }
            }
        }
    }
    Err(FrontendError::new(
        0,
        format!(
            "unknown callable '{}'",
            path.unwrap_or_else(|| "<expr>".to_string())
        ),
    ))
}

fn lower_topk(
    m: &mut Module,
    entry: c4cam_ir::BlockId,
    env: &mut HashMap<String, Lowered>,
    callee: &Expr,
    args: &[Expr],
    kwargs: &[(String, Expr)],
) -> FResult<(ValueId, ValueId)> {
    // Method form: tensor.topk(k, ...) / function form: topk(t, k, ...).
    let (tensor, rest): (ValueId, &[Expr]) = match callee.dotted_path().as_deref() {
        Some("torch.topk") | Some("torch.ops.aten.topk") => {
            let t = expect_tensor_arg(m, entry, env, args, 0)?;
            (t, &args[1..])
        }
        _ => match callee {
            Expr::Attr { base, .. } => {
                let recv = lower_expr(m, entry, env, base)?
                    .val()
                    .ok_or_else(|| FrontendError::new(0, "topk receiver must be a tensor"))?;
                (recv, args)
            }
            _ => return Err(FrontendError::new(0, "malformed topk call")),
        },
    };
    let k = match rest.first() {
        Some(Expr::Int(v)) => *v,
        _ => return Err(FrontendError::new(0, "topk requires an integer k literal")),
    };
    // Positional: (k, dim, largest, sorted) — as in the Fig. 4b listing.
    let mut largest = true; // ATen default
    if let Some(Expr::Bool(b)) = rest.get(2) {
        largest = *b;
    }
    for (name, value) in kwargs {
        match (name.as_str(), value) {
            ("largest", Expr::Bool(b)) => largest = *b,
            ("sorted", _) | ("dim", _) => {}
            (other, _) => {
                return Err(FrontendError::new(
                    0,
                    format!("unsupported topk keyword '{other}'"),
                ))
            }
        }
    }
    let mut b = OpBuilder::at_end(m, entry);
    let kv = torch::build_constant_int(&mut b, k);
    Ok(torch::build_topk(&mut b, tensor, kv, k, largest))
}

fn expect_tensor_arg(
    m: &mut Module,
    entry: c4cam_ir::BlockId,
    env: &mut HashMap<String, Lowered>,
    args: &[Expr],
    i: usize,
) -> FResult<ValueId> {
    let e = args
        .get(i)
        .ok_or_else(|| FrontendError::new(0, format!("missing argument {i}")))?;
    lower_expr(m, entry, env, e)?
        .val()
        .ok_or_else(|| FrontendError::new(0, format!("argument {i} must be a tensor")))
}

fn expect_int_arg(
    m: &mut Module,
    entry: c4cam_ir::BlockId,
    env: &mut HashMap<String, Lowered>,
    args: &[Expr],
    i: usize,
) -> FResult<i64> {
    let e = args
        .get(i)
        .ok_or_else(|| FrontendError::new(0, format!("missing argument {i}")))?;
    match lower_expr(m, entry, env, e)? {
        Lowered::Int(v) => Ok(v),
        _ => Err(FrontendError::new(
            0,
            format!("argument {i} must be an integer literal"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_torchscript;
    use c4cam_core::dialects::standard_registry;
    use c4cam_ir::verify::verify_module;

    /// The paper's Fig. 4a source.
    pub const HDC_SOURCE: &str = r#"
def forward(self, input: Tensor, dot: bool = False) -> Tensor:
    others = self.weight.transpose(-2, -1)
    matmul = torch.matmul(input, (others))
    values, indices = torch.ops.aten.topk(matmul, 1, largest=False)
    return indices
"#;

    #[test]
    fn fig4a_lowers_to_fig4b_shape() {
        let config = FrontendConfig::new()
            .input(vec![10, 8192])
            .parameter("weight", vec![10, 8192]);
        let lowered = parse_torchscript(HDC_SOURCE, &config).unwrap();
        verify_module(&lowered.module, &standard_registry()).unwrap();
        assert_eq!(lowered.arg_order, vec!["input", "self.weight"]);
        let names: Vec<String> = lowered
            .module
            .walk(lowered.func)
            .iter()
            .map(|&o| lowered.module.op(o).name.clone())
            .collect();
        // Fig. 4b: transpose, mm, topk (plus the materialized k constant).
        assert_eq!(
            names,
            vec![
                "func.func",
                "torch.transpose",
                "torch.matmul",
                "torch.constant_int",
                "torch.topk",
                "func.return"
            ]
        );
        // topk carries largest=false from the kwarg.
        for op in lowered.module.walk(lowered.func) {
            if lowered.module.op(op).name == "torch.topk" {
                assert_eq!(
                    lowered
                        .module
                        .op(op)
                        .attr("largest")
                        .and_then(|a| a.as_bool()),
                    Some(false)
                );
            }
        }
    }

    #[test]
    fn knn_source_with_operators_lowers() {
        let src = r#"
def knn(self, query: Tensor) -> Tensor:
    diff = self.patterns - query
    dist = torch.norm(diff)
    values, indices = torch.topk(dist, 5, largest=False)
    return values, indices
"#;
        let config = FrontendConfig::new()
            .input(vec![1, 128])
            .parameter("patterns", vec![100, 128]);
        let lowered = parse_torchscript(src, &config).unwrap();
        verify_module(&lowered.module, &standard_registry()).unwrap();
        assert_eq!(lowered.arg_order, vec!["query", "self.patterns"]);
        let names: Vec<String> = lowered
            .module
            .walk(lowered.func)
            .iter()
            .map(|&o| lowered.module.op(o).name.clone())
            .collect();
        assert!(names.contains(&"torch.sub".to_string()));
        assert!(names.contains(&"torch.norm".to_string()));
    }

    #[test]
    fn missing_parameter_shape_is_reported() {
        let config = FrontendConfig::new().input(vec![10, 8192]);
        let e = parse_torchscript(HDC_SOURCE, &config).unwrap_err();
        assert!(e.message.contains("self.weight"), "{e}");
    }

    #[test]
    fn undefined_name_is_reported() {
        let src = "def f(self, x: Tensor):\n    return torch.matmul(x, ghost)\n";
        let config = FrontendConfig::new().input(vec![4, 4]);
        let e = parse_torchscript(src, &config).unwrap_err();
        assert!(e.message.contains("ghost"), "{e}");
    }

    #[test]
    fn dynamic_k_is_rejected() {
        let src = "def f(self, x: Tensor, k: Tensor):\n    v, i = torch.topk(x, k)\n    return i\n";
        let config = FrontendConfig::new().input(vec![4, 4]).input(vec![1]);
        let e = parse_torchscript(src, &config).unwrap_err();
        assert!(e.message.contains("integer k"), "{e}");
    }

    #[test]
    fn function_without_return_is_rejected() {
        let src = "def f(self, x: Tensor):\n    y = torch.norm(x)\n";
        let config = FrontendConfig::new().input(vec![4, 4]);
        let e = parse_torchscript(src, &config).unwrap_err();
        assert!(e.message.contains("no return"), "{e}");
    }

    #[test]
    fn lowered_hdc_executes_like_builder_version() {
        use c4cam_runtime::{Executor, Value};
        use c4cam_tensor::Tensor;
        let config = FrontendConfig::new()
            .input(vec![3, 64])
            .parameter("weight", vec![4, 64]);
        let lowered = parse_torchscript(HDC_SOURCE, &config).unwrap();
        let mut stored = Vec::new();
        for c in 0..4 {
            for d in 0..64 {
                stored.push(f32::from(u8::from((d + c) % 3 == 0)));
            }
        }
        let stored = Tensor::from_vec(vec![4, 64], stored).unwrap();
        let queries = stored.slice2d(0, 0, 3, 64).unwrap();
        let out = Executor::new(&lowered.module)
            .run(
                "forward",
                &[
                    Value::Tensor(queries.clone()),
                    Value::Tensor(stored.clone()),
                ],
            )
            .unwrap();
        let scores = queries.matmul(&stored.transpose2d().unwrap()).unwrap();
        let expect = scores.topk(1, false).unwrap();
        assert_eq!(out[0].as_tensor().unwrap(), &expect.indices);
    }
}
