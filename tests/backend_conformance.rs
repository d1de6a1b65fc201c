//! Cross-backend differential conformance suite: every backend
//! registered in the [`BackendRegistry`] must reproduce the walker
//! oracle's predictions bit-exactly over the full workload ×
//! bits-per-cell grid, statistics and phase snapshots included.
//!
//! The suite iterates the registry, so adding a backend extends the
//! coverage without editing a single test here — a new backend either
//! conforms or these tests name it in the failure message.

use c4cam::arch::Optimization;
use c4cam::driver::{build_arch, Experiment, RunOutcome};
use c4cam::hal::{BackendRegistry, FaultConfig};
use c4cam::telemetry::clock::ManualClock;
use c4cam::telemetry::{cat, CollectingRecorder, Event, Telemetry};
use c4cam::workloads::{DtreeWorkload, HdcWorkload, KnnWorkload, Workload};
use std::sync::Arc;

/// The conformance workloads: one per compiled kernel family (HDC
/// nearest-prototype, kNN nearest-sample, decision-tree path match),
/// sized to exercise multi-subarray placements without being slow.
fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(HdcWorkload {
            classes: 5,
            dims: 96,
            queries: 6,
            flip_rate: 0.1,
            seed: 7,
        }),
        Box::new(KnnWorkload {
            patterns: 40,
            dims: 64,
            queries: 5,
            k: 3,
            noise: 0.2,
            seed: 11,
        }),
        Box::new(DtreeWorkload::new(10, 4, 4, 6, 2024)),
    ]
}

const BITS: [u32; 3] = [1, 2, 4];

fn run(workload: &dyn Workload, backend: &str, bits: u32) -> RunOutcome {
    let spec = build_arch((32, 32), (2, 2, 4), Optimization::Base, bits).unwrap();
    Experiment::new(workload)
        .arch(spec)
        .backend(backend)
        .run()
        .unwrap()
}

#[test]
fn every_backend_matches_the_walk_oracle_over_the_grid() {
    let registry = BackendRegistry::global();
    for workload in workloads() {
        for bits in BITS {
            let oracle = run(workload.as_ref(), "walk", bits);
            for backend in registry.all() {
                let name = backend.name();
                let outcome = run(workload.as_ref(), name, bits);
                assert_eq!(
                    outcome.predictions,
                    oracle.predictions,
                    "{name} diverged from walk on {}/{bits}b",
                    workload.name()
                );
                assert_eq!(outcome.labels, oracle.labels, "{name}");
                assert_eq!(outcome.queries, oracle.queries, "{name}");
                assert_eq!(
                    outcome.total,
                    oracle.total,
                    "{name} total stats diverged on {}/{bits}b",
                    workload.name()
                );
                assert_eq!(outcome.setup, oracle.setup, "{name}");
                assert_eq!(outcome.query_phase, oracle.query_phase, "{name}");
            }
        }
    }
}

#[test]
fn stats_contract_invariants_hold_for_every_backend() {
    // A run that stored rows and searched them reports nonzero work
    // and positive latency/energy.
    let registry = BackendRegistry::global();
    for workload in workloads() {
        for backend in registry.all() {
            let name = backend.name();
            let outcome = run(workload.as_ref(), name, 1);
            assert!(outcome.total.search_ops > 0, "{name}: no searches");
            assert!(
                outcome.total.searched_words > 0,
                "{name}: zero searched_words"
            );
            assert!(outcome.total.write_ops > 0, "{name}: no writes");
            assert!(outcome.total.latency_ns > 0.0, "{name}: zero latency");
            assert!(outcome.total.total_energy_fj() > 0.0, "{name}: zero energy");
            assert!(
                outcome.query_phase.latency_ns > 0.0,
                "{name}: empty query phase"
            );
        }
    }
}

#[test]
fn latency_is_monotone_in_the_query_count_for_every_backend() {
    // More queries = strictly more query-phase work, whatever the cost
    // model: the stats contract requires latency monotonicity.
    let registry = BackendRegistry::global();
    let mk = |queries| HdcWorkload {
        classes: 5,
        dims: 96,
        queries,
        flip_rate: 0.1,
        seed: 7,
    };
    let (few, many) = (mk(2), mk(8));
    for backend in registry.all() {
        let name = backend.name();
        let small = run(&few, name, 1);
        let large = run(&many, name, 1);
        assert!(
            large.query_phase.latency_ns > small.query_phase.latency_ns,
            "{name}: latency not monotone in queries ({} vs {})",
            small.query_phase.latency_ns,
            large.query_phase.latency_ns
        );
        assert!(
            large.total.search_ops > small.total.search_ops,
            "{name}: search_ops not monotone"
        );
    }
}

#[test]
fn telemetry_recording_never_perturbs_outputs_or_stats() {
    // The recorder is an observer: with a live recorder attached,
    // every backend must reproduce the telemetry-off run bit-exactly
    // — outputs, labels, and all three stats blocks — while actually
    // recording the Execute phase and its backend span.
    let workload = HdcWorkload {
        classes: 5,
        dims: 96,
        queries: 6,
        flip_rate: 0.1,
        seed: 7,
    };
    for backend in BackendRegistry::global().all() {
        let name = backend.name();
        let plain = run(&workload, name, 2);
        let recorder = Arc::new(CollectingRecorder::with_clock(Box::new(ManualClock::new(
            1_000,
        ))));
        let spec = build_arch((32, 32), (2, 2, 4), Optimization::Base, 2).unwrap();
        let traced = Experiment::new(&workload)
            .arch(spec)
            .backend(name)
            .telemetry(Telemetry::new(Arc::clone(&recorder) as _))
            .run()
            .unwrap();
        assert_eq!(traced.predictions, plain.predictions, "{name}");
        assert_eq!(traced.labels, plain.labels, "{name}");
        assert_eq!(traced.total, plain.total, "{name} total stats");
        assert_eq!(traced.setup, plain.setup, "{name} setup stats");
        assert_eq!(traced.query_phase, plain.query_phase, "{name} query stats");
        let events = recorder.events();
        let spans: Vec<_> = events.iter().filter_map(Event::as_span).collect();
        assert!(
            spans
                .iter()
                .any(|s| s.cat == cat::PHASE && s.name == "Execute"),
            "{name}: no Execute phase span recorded"
        );
        assert!(
            spans
                .iter()
                .any(|s| s.cat == cat::BACKEND && s.name == format!("backend:{name}")),
            "{name}: no backend span recorded"
        );
    }
}

#[test]
fn sharded_runs_record_worker_lane_spans_without_perturbing_outputs() {
    // Worker shards record their spans on lanes 1..=threads; the
    // sharded result must still match the telemetry-off sequential run.
    let workload = HdcWorkload {
        classes: 5,
        dims: 96,
        queries: 8,
        flip_rate: 0.1,
        seed: 7,
    };
    let plain = run(&workload, "tape", 1);
    let recorder = Arc::new(CollectingRecorder::new());
    let spec = build_arch((32, 32), (2, 2, 4), Optimization::Base, 1).unwrap();
    let traced = Experiment::new(&workload)
        .arch(spec)
        .backend("tape")
        .threads(4)
        .telemetry(Telemetry::new(Arc::clone(&recorder) as _))
        .run()
        .unwrap();
    assert_eq!(traced.predictions, plain.predictions);
    assert_eq!(traced.total.search_ops, plain.total.search_ops);
    let events = recorder.events();
    let shard_spans: Vec<_> = events
        .iter()
        .filter_map(Event::as_span)
        .filter(|s| s.cat == cat::SHARD)
        .collect();
    assert!(!shard_spans.is_empty(), "no shard spans recorded");
    for s in &shard_spans {
        assert!(s.tid >= 1, "shard span on the main lane: {}", s.name);
        assert!(s.name.starts_with("shard-"), "{}", s.name);
    }
}

#[test]
fn fault_rate_zero_is_bit_identical_to_the_oracle_on_every_backend() {
    // The fault-injection acceptance bar: installing the fault
    // hooks at rate 0 must not perturb a single output bit or a
    // single stats field, on any registered backend.
    let registry = BackendRegistry::global();
    for workload in workloads() {
        for bits in [1, 2] {
            let oracle = run(workload.as_ref(), "walk", bits);
            for backend in registry.all() {
                let name = backend.name();
                let spec = build_arch((32, 32), (2, 2, 4), Optimization::Base, bits).unwrap();
                let outcome = Experiment::new(workload.as_ref())
                    .arch(spec)
                    .backend(name)
                    .faults(FaultConfig::with_rate(0.0, 7))
                    .run()
                    .unwrap();
                assert_eq!(
                    outcome.predictions,
                    oracle.predictions,
                    "{name} perturbed outputs at fault rate 0 on {}/{bits}b",
                    workload.name()
                );
                assert_eq!(outcome.total, oracle.total, "{name} total stats");
                assert_eq!(outcome.setup, oracle.setup, "{name} setup stats");
                assert_eq!(
                    outcome.query_phase, oracle.query_phase,
                    "{name} query stats"
                );
            }
        }
    }
}

#[test]
fn seeded_fault_injection_is_deterministic_across_backends_and_threads() {
    // Property (hand-rolled over a seed × rate grid, no external
    // proptest dependency): for any seed and rate, the fault sites,
    // fault events, and outputs are a pure function of (model, seed,
    // geometry) — identical across every backend, across repeated
    // runs, and across thread counts.
    let workload = HdcWorkload {
        classes: 5,
        dims: 96,
        queries: 6,
        flip_rate: 0.1,
        seed: 7,
    };
    for seed in [1u64, 9, 42] {
        for rate in [0.01, 0.05] {
            let mut faults = FaultConfig::with_rate(rate, seed);
            faults.resilience.spare_rows = 2;
            let run_with = |engine: &str, threads: usize| {
                let spec = build_arch((32, 32), (2, 2, 4), Optimization::Base, 2).unwrap();
                Experiment::new(&workload)
                    .arch(spec)
                    .backend(engine)
                    .threads(threads)
                    .faults(faults.clone())
                    .run()
                    .unwrap()
            };
            let reference = run_with("walk", 1);
            let again = run_with("walk", 1);
            assert_eq!(reference.predictions, again.predictions, "seed {seed}");
            assert_eq!(reference.total, again.total, "seed {seed} not reproducible");
            for (engine, threads) in [("tape", 1), ("tape", 4)] {
                let outcome = run_with(engine, threads);
                assert_eq!(
                    outcome.predictions, reference.predictions,
                    "{engine}/{threads} diverged at seed {seed} rate {rate}"
                );
                assert_eq!(
                    (
                        outcome.total.fault_cells,
                        outcome.total.fault_transients,
                        outcome.total.rows_remapped
                    ),
                    (
                        reference.total.fault_cells,
                        reference.total.fault_transients,
                        reference.total.rows_remapped
                    ),
                    "{engine}/{threads} fault events diverged at seed {seed} rate {rate}"
                );
            }
        }
    }
}

#[test]
fn threaded_backends_reproduce_sequential_outputs() {
    // supports_threads is a promise: sharded execution must keep the
    // outputs bit-identical and the operation counts exact.
    let registry = BackendRegistry::global();
    let workload = HdcWorkload {
        classes: 5,
        dims: 96,
        queries: 8,
        flip_rate: 0.1,
        seed: 7,
    };
    let spec = build_arch((32, 32), (2, 2, 4), Optimization::Base, 2).unwrap();
    for backend in registry.all() {
        let name = backend.name();
        if !backend.supports_threads() {
            // Single-threaded backends must refuse, not silently run.
            let err = Experiment::new(&workload)
                .arch(spec.clone())
                .backend(name)
                .threads(4)
                .run()
                .unwrap_err();
            assert!(err.to_string().contains(name), "{err}");
            continue;
        }
        let sequential = Experiment::new(&workload)
            .arch(spec.clone())
            .backend(name)
            .run()
            .unwrap();
        let sharded = Experiment::new(&workload)
            .arch(spec.clone())
            .backend(name)
            .threads(4)
            .run()
            .unwrap();
        assert_eq!(sharded.predictions, sequential.predictions, "{name}");
        assert_eq!(
            sharded.total.search_ops, sequential.total.search_ops,
            "{name}"
        );
        assert_eq!(
            sharded.total.searched_words, sequential.total.searched_words,
            "{name}"
        );
    }
}
