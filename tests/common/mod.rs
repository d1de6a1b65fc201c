//! Helpers shared by the integration tests.

use c4cam::ir::builder::OpBuilder;
use c4cam::ir::Module;

/// Make the tape's specialisation pass leave `func`'s query body as the
/// loops the mapped module spelled (`Unspecialised::IvEscapes`): a dead
/// `arith.addi %iv, %iv` at the head of the query loop — the function's
/// one top-level `scf.for` — which changes nothing the module computes
/// or charges.
pub fn keep_query_loops(m: &mut Module, func: &str) {
    let func = m.lookup_symbol(func).expect("function");
    let entry = m.op(func).regions[0][0];
    let query_loop = *m
        .block(entry)
        .ops
        .iter()
        .find(|&&op| m.op(op).name == "scf.for")
        .expect("the query loop is the top-level scf.for");
    let body = m.op(query_loop).regions[0][0];
    let (head, iv) = (m.block(body).ops[0], m.block(body).args[0]);
    let mut b = OpBuilder::before(m, head);
    let ty = b.module().index_ty();
    b.op("arith.addi", &[iv, iv], &[ty], vec![]);
}
