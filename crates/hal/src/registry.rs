//! Name-keyed backend registry.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::backends::{TapeBackend, WalkBackend};
use crate::{Backend, HalError};

/// A name → [`Backend`] map. Iteration is in name order, so listings
/// and the conformance suite are deterministic.
pub struct BackendRegistry {
    backends: BTreeMap<&'static str, Box<dyn Backend>>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> BackendRegistry {
        BackendRegistry {
            backends: BTreeMap::new(),
        }
    }

    /// The standard registry: `walk`, `tape`.
    pub fn standard() -> BackendRegistry {
        let mut r = BackendRegistry::new();
        r.register(Box::new(WalkBackend));
        r.register(Box::new(TapeBackend));
        r
    }

    /// The process-wide standard registry (built once, shared).
    pub fn global() -> &'static BackendRegistry {
        static GLOBAL: OnceLock<BackendRegistry> = OnceLock::new();
        GLOBAL.get_or_init(BackendRegistry::standard)
    }

    /// Add (or replace) a backend under its [`Backend::name`] key.
    pub fn register(&mut self, backend: Box<dyn Backend>) {
        self.backends.insert(backend.name(), backend);
    }

    /// Look up a backend by name.
    ///
    /// # Errors
    /// Unknown names fail with a message listing every registered
    /// backend, so CLI users see what *is* available.
    pub fn get(&self, name: &str) -> Result<&dyn Backend, HalError> {
        self.backends.get(name).map(Box::as_ref).ok_or_else(|| {
            HalError::new(format!(
                "unknown engine '{name}' (registered backends: {})",
                self.names().join(", ")
            ))
        })
    }

    /// All registered backends, in name order.
    pub fn all(&self) -> impl Iterator<Item = &dyn Backend> {
        self.backends.values().map(Box::as_ref)
    }

    /// Registered names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.backends.keys().copied().collect()
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        BackendRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_lists_every_backend_in_name_order() {
        let r = BackendRegistry::standard();
        assert_eq!(r.names(), vec!["tape", "walk"]);
        assert_eq!(r.all().count(), 2);
    }

    #[test]
    fn lookup_resolves_names_and_reports_unknowns() {
        let r = BackendRegistry::standard();
        assert_eq!(r.get("tape").unwrap().name(), "tape");
        // `simd` and `trace` are retired names: they fail like any unknown one, never alias.
        for name in ["cuda", "simd", "trace"] {
            let err = r.get(name).err().expect("unknown name must fail");
            let want = format!("unknown engine '{name}' (registered backends: tape, walk)");
            assert!(err.message.contains(&want), "{err}");
        }
    }

    #[test]
    fn thread_support_is_as_documented() {
        let r = BackendRegistry::global();
        assert!(!r.get("walk").unwrap().supports_threads());
        assert!(r.get("tape").unwrap().supports_threads());
    }

    #[test]
    fn every_backend_has_a_description() {
        for b in BackendRegistry::global().all() {
            assert!(!b.description().is_empty(), "{}", b.name());
        }
    }
}
