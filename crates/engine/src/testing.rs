//! Test support shared by the unit tests of the tape compiler, its
//! passes and its verifier.

use c4cam_arch::{ArchSpec, Optimization};
use c4cam_core::dialects::{scf, torch};
use c4cam_core::pipeline::C4camPipeline;
use c4cam_ir::builder::OpBuilder;
use c4cam_ir::{Module, OpId, ValueId};

/// A mapped HDC module (`forward`): 4 classes × 64 dimensions on
/// 16 × 16 subarrays in a (2, 2, 4) hierarchy — four column chunks. The
/// specialisation pass flattens its query nest at any query count.
pub(crate) fn lowered_hdc(queries: i64) -> Module {
    let mut m = Module::new();
    torch::build_hdc_dot(&mut m, queries, 4, 64, 1);
    let spec = ArchSpec::builder()
        .subarray(16, 16)
        .hierarchy(2, 2, 4)
        .optimization(Optimization::Base)
        .build()
        .unwrap();
    C4camPipeline::new(spec).compile(m).unwrap().module
}

/// [`lowered_hdc`] whose query nest stays on the tape as loops.
pub(crate) fn looped_hdc(queries: i64) -> Module {
    let mut m = lowered_hdc(queries);
    keep_query_loops(&mut m, "forward");
    m
}

/// Where a test may add ops to a mapped module.
pub(crate) struct QueryNest {
    /// The query loop (insert before it for loop-invariant values).
    pub(crate) query_loop: OpId,
    /// First op of the loop's body (insert before it).
    pub(crate) head: OpId,
    /// The query induction variable.
    pub(crate) iv: ValueId,
}

/// The query nest of mapped function `func`.
pub(crate) fn query_nest(m: &Module, func: &str) -> QueryNest {
    let func = m.lookup_symbol(func).unwrap();
    let entry = m.op(func).regions[0][0];
    let query_loop = *m
        .block(entry)
        .ops
        .iter()
        .find(|&&op| m.op(op).name == "scf.for")
        .expect("the query loop is the top-level scf.for");
    let body = m.op(query_loop).regions[0][0];
    QueryNest {
        query_loop,
        head: m.block(body).ops[0],
        iv: m.block(body).args[0],
    }
}

/// Make the specialisation pass leave `func`'s query body as the loops
/// the module spelled (`Unspecialised::IvEscapes`): a dead
/// `arith.addi %iv, %iv` at the head of the body, which changes nothing
/// the module computes or charges.
pub(crate) fn keep_query_loops(m: &mut Module, func: &str) {
    let nest = query_nest(m, func);
    let mut b = OpBuilder::before(m, nest.head);
    let ty = b.module().index_ty();
    b.op("arith.addi", &[nest.iv, nest.iv], &[ty], vec![]);
}

/// An empty `scf.for` / `scf.parallel` of `trips` trips before `at`.
pub(crate) fn empty_loop(m: &mut Module, at: OpId, trips: i64, parallel: bool) {
    let mut b = OpBuilder::before(m, at);
    let (lb, ub, step) = (b.const_index(0), b.const_index(trips), b.const_index(1));
    let (_, body, _) = if parallel {
        scf::build_parallel(&mut b, lb, ub, step)
    } else {
        scf::build_for(&mut b, lb, ub, step)
    };
    scf::end_body(m, body, &[]);
}
