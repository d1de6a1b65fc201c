//! Dialect definitions: op specs, builder helpers and verifiers.
//!
//! Each submodule registers its ops into a [`DialectRegistry`];
//! [`standard_registry`] assembles the full C4CAM configuration, and
//! [`shared_registry`] hands out one process-wide copy of it.

use c4cam_ir::verify::DialectRegistry;
use std::sync::{Arc, LazyLock};

pub mod arith;
pub mod cam;
pub mod cim;
pub mod func;
pub mod memref;
pub mod scf;
pub mod tensor_ops;
pub mod torch;

/// Registry containing every dialect the C4CAM pipeline can produce.
pub fn standard_registry() -> DialectRegistry {
    let mut r = DialectRegistry::new();
    func::register(&mut r);
    arith::register(&mut r);
    scf::register(&mut r);
    tensor_ops::register(&mut r);
    memref::register(&mut r);
    torch::register(&mut r);
    cim::register(&mut r);
    cam::register(&mut r);
    r
}

static SHARED: LazyLock<Arc<DialectRegistry>> = LazyLock::new(|| Arc::new(standard_registry()));

/// The [`standard_registry`], built once per process: every pipeline
/// run verifies against this copy. Callers that need to modify a
/// registry build their own with [`standard_registry`].
pub fn shared_registry() -> Arc<DialectRegistry> {
    Arc::clone(&SHARED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_contains_all_dialects() {
        let r = standard_registry();
        for op in [
            "func.func",
            "func.return",
            "arith.constant",
            "scf.for",
            "scf.parallel",
            "scf.yield",
            "tensor.extract_slice",
            "memref.alloc",
            "torch.matmul",
            "torch.topk",
            "cim.execute",
            "cim.similarity",
            "cam.alloc_bank",
            "cam.search",
            "cam.reduce",
        ] {
            assert!(r.spec(op).is_some(), "missing op spec: {op}");
        }
        assert!(r.len() > 40, "expected a rich op set, got {}", r.len());
    }

    #[test]
    fn the_shared_registry_is_built_once_and_is_the_standard_one() {
        let (a, b) = (shared_registry(), shared_registry());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.op_names(), standard_registry().op_names());
    }
}
