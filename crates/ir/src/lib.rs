//! # c4cam-ir — minimal multi-level IR infrastructure
//!
//! A from-scratch, arena-based reimplementation of the slice of MLIR that
//! the C4CAM compiler ("C4CAM: A Compiler for CAM-based In-memory
//! Accelerators", ASPLOS 2024) relies on:
//!
//! * a [`Module`] arena owning operations, blocks, regions and SSA values,
//! * interned structural [`types`] and attribute dictionaries ([`attr`]),
//! * an insertion-point [`builder::OpBuilder`],
//! * a textual [`print`](mod@print)er and [`parse`]r (MLIR generic form, round-trips),
//! * [`verify`]: structural + dialect-registered op verification,
//! * [`pass`]: pass manager with per-pass timing and optional
//!   verify-after-each.
//!
//! Dialects themselves (torch, cim, cam, scf, ...) live in `c4cam-core`;
//! this crate is dialect-agnostic.
//!
//! ## Example
//!
//! ```
//! use c4cam_ir::{Module, builder::{build_func, OpBuilder}, print::print_module};
//!
//! let mut m = Module::new();
//! let f32t = m.f32_ty();
//! let t = m.tensor_ty(&[10, 8192], f32t);
//! let (_func, entry) = build_func(&mut m, "forward", &[t], &[t]);
//! let arg = m.block(entry).args[0];
//! let mut b = OpBuilder::at_end(&mut m, entry);
//! let tr = b.op("torch.transpose", &[arg], &[t], vec![("dim0", (-2i64).into())]);
//! let res = m.result(tr, 0);
//! let mut b = OpBuilder::at_end(&mut m, entry);
//! b.op("func.return", &[res], &[], vec![]);
//! let text = print_module(&m);
//! assert!(text.contains("torch.transpose"));
//! let reparsed = c4cam_ir::parse::parse_module(&text).unwrap();
//! assert_eq!(print_module(&reparsed), text);
//! ```

#![warn(missing_docs)]

pub mod attr;
pub mod builder;
pub mod module;
pub mod parse;
pub mod pass;
pub mod print;
pub mod types;
pub mod verify;

pub use attr::{Attribute, DenseData};
pub use module::{BlockId, Module, OpData, OpId, ValueData, ValueDef, ValueId};
pub use types::{CamLevel, Type, TypeKind, DYNAMIC_DIM};
