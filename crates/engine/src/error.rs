//! Engine failures, with the offending op attached.

use c4cam_ir::OpId;
use std::error::Error;
use std::fmt;

/// Tape compilation or execution failure.
///
/// Like [`c4cam_runtime::ExecError`], the error carries the failing
/// op's [`OpId`] and name whenever the failure can be traced to one IR
/// operation, so diagnostics point at the module instead of being
/// message-only strings.
#[derive(Debug, Clone)]
pub struct EngineError {
    /// Description of the failure.
    pub message: String,
    /// The operation that failed, when known.
    pub op: Option<OpId>,
    /// Name of the failing operation (e.g. `"cam.search"`), when known.
    pub op_name: Option<String>,
}

impl EngineError {
    pub(crate) fn new(message: impl Into<String>) -> EngineError {
        EngineError {
            message: message.into(),
            op: None,
            op_name: None,
        }
    }

    /// Attach op context if none is recorded yet (the innermost failing
    /// op wins as errors propagate outward).
    #[must_use]
    pub fn with_op(mut self, op: OpId, name: &str) -> EngineError {
        if self.op.is_none() {
            self.op = Some(op);
            self.op_name = Some(name.to_string());
        }
        self
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine error: {}", self.message)?;
        if let (Some(op), Some(name)) = (self.op, self.op_name.as_deref()) {
            write!(f, " (in '{name}' at op {})", op.index())?;
        }
        Ok(())
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_op_context_when_present() {
        let e = EngineError::new("boom");
        assert_eq!(e.to_string(), "engine error: boom");

        let mut m = c4cam_ir::Module::new();
        let _ = m.create_op("cam.alloc", &[], &[], vec![], 0);
        let inner = m.create_op("cam.search", &[], &[], vec![], 0);
        let outer = m.create_op("cam.merge", &[], &[], vec![], 0);
        let e = e.with_op(inner, "cam.search").with_op(outer, "cam.merge");
        assert_eq!(
            e.to_string(),
            "engine error: boom (in 'cam.search' at op 1)",
            "the innermost op wins"
        );
    }
}
