//! Resident service mode for the C4CAM toolchain.
//!
//! `c4cam serve` keeps a process alive between requests so the
//! expensive phases — dataset load, placement, compilation — are paid
//! once per plan key instead of once per invocation. The crate
//! provides:
//!
//! - a line-delimited JSON protocol over TCP ([`protocol`]),
//! - a keyed, size-bounded LRU cache of compiled plans ([`cache`]),
//! - an admission controller that coalesces concurrent classify
//!   requests into one batched device run ([`admission`]),
//! - the server loop with graceful shutdown ([`serve`](mod@serve)),
//! - and an open/closed-loop load generator ([`loadgen`](mod@loadgen)).
//!
//! The crate deliberately does not depend on the compiler pipeline:
//! callers implement [`PlanSource`] and [`BatchRunner`] to bridge to
//! whatever builds and executes plans (the root `c4cam` crate wires
//! these to `CompiledExperiment`). The server only ever speaks in
//! query-pool row indices and per-row predictions/classes, so it needs
//! no tensor or ISA types.

#![warn(missing_docs)]

use crate::protocol::PlanKey;
use std::sync::Arc;

pub mod admission;
pub mod cache;
pub mod json;
pub mod loadgen;
pub mod protocol;
pub mod serve;

pub use admission::{Admission, AdmissionConfig, AdmitError, BatchSlice, BatchTicket};
pub use cache::{CacheStats, PlanCache};
pub use loadgen::{loadgen, probe_info, send_shutdown, LoadMode, LoadgenConfig, LoadgenReport};
pub use protocol::{
    classify_response, error_response, parse_request, ClassifyReply, Cmd, ErrorCode, KeyOverride,
    Request,
};
pub use serve::{serve, ServeConfig, ServeReport, MAX_CONNECTIONS};

/// Results of executing one batch of query-pool rows.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsOutcome {
    /// Predicted stored-row index per query row, in request order.
    pub predictions: Vec<usize>,
    /// Predicted class label per query row, in request order.
    pub classes: Vec<usize>,
    /// Modeled device latency per query, nanoseconds.
    pub sim_latency_ns_per_query: f64,
    /// Modeled device energy per query, picojoules.
    pub sim_energy_pj_per_query: f64,
}

/// An executable compiled plan that classifies query-pool rows.
///
/// Implementations must be safe to call from multiple threads at once
/// (the admission dispatcher and the cache share one instance).
pub trait BatchRunner: Send + Sync {
    /// Maximum rows one `run_rows` call accepts (the batch size the
    /// plan was compiled for; smaller batches are padded internally).
    fn capacity(&self) -> usize;
    /// Number of addressable rows in the query pool.
    fn pool_size(&self) -> usize;
    /// Execute the plan on the given query-pool rows.
    ///
    /// # Errors
    /// Device/backend execution failures, described for the client.
    fn run_rows(&self, rows: &[usize]) -> Result<RowsOutcome, String>;
}

/// Compiles plans for the server's cache.
pub trait PlanSource: Send + Sync + 'static {
    /// The key requests resolve to when they override nothing.
    fn default_key(&self) -> PlanKey;
    /// Build a runner for `key`, running the full Parse/Place/Compile
    /// pipeline.
    ///
    /// # Errors
    /// Unknown backends, invalid arch parameters, compile failures.
    fn compile(&self, key: &PlanKey) -> Result<Arc<dyn BatchRunner>, String>;
}
