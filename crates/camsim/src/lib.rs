//! # c4cam-camsim — CAM accelerator simulator
//!
//! Functional + performance/energy simulator for hierarchical CAM
//! accelerators, standing in for the (unreleased) simulation
//! infrastructure of the paper's §IV-A2: it "models the architecture and
//! performs functional simulation of the functions called by C4CAM",
//! extended with "performance and energy estimation" and "fine-grain
//! control of the hierarchy".
//!
//! Four layers:
//!
//! * [`cell`]: TCAM/MCAM/ACAM cell match semantics (incl. don't-care),
//! * [`subarray`]: an `R × C` array slice supporting exact / best /
//!   threshold search under Hamming or Euclidean metrics, with selective
//!   row activation (selective precharge, paper \[27\]). Its contents
//!   *are* packed *match planes* (`u8` level and care planes, plus
//!   `u64` value/care bit-planes for TCAM rows) that rows are
//!   programmed straight into; `XOR → AND → popcount` word kernels
//!   search them, bit-identical to the retained per-cell oracle
//!   ([`Subarray::search_naive`]), which decodes rows back to cells,
//! * [`ledger`]: everything the simulator *charges* — allocation
//!   against the bank→mat→array→subarray budgets, *timing scopes*
//!   (parallel = max, sequential = sum — the compiler encodes its
//!   mapping policy as loop structure and the ledger measures it), and
//!   energy accounting through [`c4cam_arch::tech::TechnologyModel`] —
//!   as a function of counts, never of contents, so a schedule can be
//!   priced without a machine,
//! * [`machine`]: the subarrays of one accelerator, functional dispatch
//!   to them, and an embedded ledger charged with what each operation
//!   read off its subarray — or, on a machine built
//!   [`CamMachine::functional`], charged with nothing but allocation,
//!   for runs whose cost was priced from their schedule.
//!
//! ## Example
//!
//! ```
//! use c4cam_camsim::{CamMachine, SearchSpec};
//! use c4cam_arch::{ArchSpec, MatchKind, Metric};
//!
//! # fn main() -> Result<(), c4cam_camsim::SimError> {
//! let spec = ArchSpec::default();
//! let mut m = CamMachine::new(&spec);
//! let bank = m.alloc_bank()?;
//! let mat = m.alloc_mat(bank)?;
//! let array = m.alloc_array(mat)?;
//! let sub = m.alloc_subarray(array)?;
//! m.write_rows(sub, 0, &[vec![1.0, 0.0, 1.0, 0.0]])?;
//! let result = m.search(sub, &[1.0, 0.0, 1.0, 1.0],
//!     SearchSpec::new(MatchKind::Best, Metric::Hamming))?;
//! assert_eq!(result.best_rows(), vec![0]);
//! assert!(m.stats().latency_ns > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod ledger;
pub mod machine;
pub mod stats;
pub mod subarray;

pub use c4cam_faults::{CellFault, FaultConfig, FaultModel, Resilience, SubarrayFaults};
pub use cell::CamCell;
pub use ledger::{Allocations, CostLedger, Floorplan, TripCharges};
pub use machine::{
    ArrayId, BankId, CamMachine, MatId, SearchPath, SearchSpec, SimError, SubarrayId,
};
pub use stats::ExecStats;
pub use subarray::{
    resolve_tier, KernelTier, MergeInto, QueryWindows, RowSelection, SearchResult, SearchScratch,
    Subarray,
};
