//! The JSON value type and parser, under the path `c4cam_server::json`
//! that `benchmark/` and the integration tests import; the code lives
//! in [`c4cam_telemetry::json`].

pub use c4cam_telemetry::json::{Json, JsonError};
