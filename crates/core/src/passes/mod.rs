//! The C4CAM lowering and optimization passes.
//!
//! Two pass lists, one per [`Target`](crate::pipeline::Target) (paper
//! Fig. 3); nothing else runs and nothing is optional.
//!
//! `Target::CamDevice` (default):
//!
//! 1. [`torch_to_cim::TorchToCimPass`] — wrap device-amenable torch ops
//!    into `cim.acquire`/`cim.execute`/`cim.release` triples.
//! 2. [`cim_fuse::CimFusePass`] — fuse dependent execute blocks, then run
//!    *SimilarityMatching* (Algorithm 1) to recover `cim.similarity`.
//! 3. [`cam_map::CamMapPass`] — lower `cim` to `cam` and map onto the
//!    hierarchy under the chosen optimization configuration (the paper's
//!    `cim-to-cam` conversion and `cam-map` pass share their placement
//!    computation, so they are implemented as one pass here).
//!
//! `Target::HostLoops` (`--emit partitioned`, the host reference):
//!
//! 1. `torch-to-cim`, as above.
//! 2. `cim-fuse-ops`, as above.
//! 3. [`cim_partition::CimPartitionPass`] — compulsory partitioning into
//!    subarray-sized tiles with partial-result accumulation (Fig. 5d).
//!
//! Fig. 3's "generic optimizations" box is not an IR pass here: the
//! mapped nest's constants, loops and guards are folded once, at
//! tape-compile time, by `c4cam_engine`'s specialiser.

pub mod cam_map;
pub mod cim_fuse;
pub mod cim_partition;
pub mod torch_to_cim;

pub use cam_map::CamMapPass;
pub use cim_fuse::CimFusePass;
pub use cim_partition::CimPartitionPass;
pub use torch_to_cim::TorchToCimPass;

use c4cam_ir::{Module, OpId, ValueDef, ValueId};

/// Return the defining op of `v` if it is an op result.
pub(crate) fn defining_op(m: &Module, v: ValueId) -> Option<OpId> {
    match m.value(v).def {
        ValueDef::OpResult { op, .. } => Some(op),
        ValueDef::BlockArg { .. } => None,
    }
}

/// Read the static integer behind a value defined by `arith.constant` or
/// `torch.constant_int`.
pub(crate) fn const_int_value(m: &Module, v: ValueId) -> Option<i64> {
    let op = defining_op(m, v)?;
    let data = m.op(op);
    if data.name == "arith.constant" || data.name == "torch.constant_int" {
        data.int_attr("value")
    } else {
        None
    }
}
