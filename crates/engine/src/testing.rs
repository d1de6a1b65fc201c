//! Test support shared by the unit tests of the tape compiler, its
//! passes and its verifier.

use c4cam_arch::{ArchSpec, Optimization};
use c4cam_core::dialects::torch;
use c4cam_core::pipeline::C4camPipeline;
use c4cam_ir::Module;

/// A mapped HDC module (`forward`): 4 classes × 64 dimensions on
/// 16 × 16 subarrays in a (2, 2, 4) hierarchy — four column chunks. One
/// query keeps the query nest as loops (with shard-loop candidates);
/// two or more let the specialisation pass flatten it.
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
