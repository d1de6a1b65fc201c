//! # c4cam — a compiler for CAM-based in-memory accelerators
//!
//! Rust reproduction of *"C4CAM: A Compiler for CAM-based In-memory
//! Accelerators"* (ASPLOS 2024): an end-to-end flow from TorchScript-like
//! input through a multi-level IR (torch → cim → cam) onto a simulated,
//! hierarchical CAM accelerator with calibrated energy/latency models.
//!
//! This umbrella crate re-exports the workspace and provides
//! [`driver`] — the high-level API shared by the examples, integration
//! tests and the benchmark harness.
//!
//! ```text
//! TorchScript ─frontend→ torch IR ─torch-to-cim→ cim ─fuse→ similarity
//!    ─cam-map→ cam + scf loop nest ─runtime→ CAM simulator (+ stats)
//! ```
//!
//! See `docs/ARCHITECTURE.md` for the system inventory and the
//! paper-artifact cross-reference, and `README.md` for how to reproduce
//! every table and figure.

#![warn(missing_docs)]

pub use c4cam_arch as arch;
pub use c4cam_camsim as camsim;
pub use c4cam_core as compiler;
pub use c4cam_datasets as datasets;
pub use c4cam_engine as engine;
pub use c4cam_frontend as frontend;
pub use c4cam_hal as hal;
pub use c4cam_ir as ir;
pub use c4cam_runtime as runtime;
pub use c4cam_telemetry as telemetry;
pub use c4cam_tensor as tensor;
pub use c4cam_workloads as workloads;

pub mod accuracy;
pub mod benchgate;
pub mod cli;
pub mod driver;
pub mod service;
pub mod sweep;
