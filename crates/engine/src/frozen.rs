//! `Send`-able snapshots of the VM slot file.
//!
//! Runtime [`Value`]s hold buffers as `Rc<RefCell<Tensor>>`, which
//! cannot cross threads. A [`Frozen`] value is the same payload with
//! buffers flattened to tensors (sharing their storage, which copies
//! on write); worker shards thaw a snapshot into a private slot file
//! (each buffer becomes a fresh, unshared `Rc`), run, and freeze again
//! for the merge step.

use c4cam_runtime::{Handle, Value};
use c4cam_tensor::Tensor;

/// One slot's payload, detached from any shared state.
#[derive(Debug, Clone)]
pub(crate) enum Frozen {
    /// Immutable tensor.
    Tensor(Tensor),
    /// Buffer contents (identity is re-established on thaw).
    Buffer(Tensor),
    /// `index` integer.
    Index(i64),
    /// Fixed-width integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Float scalar.
    Float(f64),
    /// CAM hierarchy handle.
    Handle(Handle),
    /// Host-path device token.
    Token(i64),
}

pub(crate) fn freeze(v: &Value) -> Frozen {
    match v {
        Value::Tensor(t) => Frozen::Tensor(t.clone()),
        Value::Buffer(b) => Frozen::Buffer(b.borrow().clone()),
        Value::Index(v) => Frozen::Index(*v),
        Value::Int(v) => Frozen::Int(*v),
        Value::Bool(v) => Frozen::Bool(*v),
        Value::Float(v) => Frozen::Float(*v),
        Value::Handle(h) => Frozen::Handle(*h),
        Value::DeviceToken(t) => Frozen::Token(*t),
    }
}

pub(crate) fn thaw(f: &Frozen) -> Value {
    match f {
        Frozen::Tensor(t) => Value::Tensor(t.clone()),
        Frozen::Buffer(t) => Value::buffer_from(t.clone()),
        Frozen::Index(v) => Value::Index(*v),
        Frozen::Int(v) => Value::Int(*v),
        Frozen::Bool(v) => Value::Bool(*v),
        Frozen::Float(v) => Value::Float(*v),
        Frozen::Handle(h) => Value::Handle(*h),
        Frozen::Token(t) => Value::DeviceToken(*t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_thaw_round_trips_buffers_without_sharing() {
        let original = Value::buffer_from(Tensor::from_slice(&[1.0, 2.0]));
        let frozen = freeze(&original);
        let thawed = thaw(&frozen);
        if let Value::Buffer(b) = &thawed {
            b.borrow_mut().data_mut()[0] = 9.0;
        }
        // The original buffer is untouched: thaw created a fresh Rc.
        assert_eq!(original.snapshot_tensor().unwrap().data(), &[1.0, 2.0]);
        assert_eq!(thawed.snapshot_tensor().unwrap().data(), &[9.0, 2.0]);
    }

    #[test]
    fn frozen_values_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Frozen>();
    }
}
