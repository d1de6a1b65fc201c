//! Property-based tests (proptest) on the core invariants:
//! printer/parser round-trips, simulator-vs-reference search semantics,
//! partition/mapping equivalence, cost-model monotonicity, and the two
//! facts the sweep's static costing rests on: answers do not depend on
//! the mapping, and the ledger's charges order as the hardware's would.

use c4cam::arch::tech::{Level, TechnologyModel};
use c4cam::arch::{ArchSpec, MatchKind, Metric, Optimization};
use c4cam::camsim::{CamMachine, CostLedger, RowSelection, SearchSpec};
use c4cam::compiler::mapping::{place, MappingProblem};
use c4cam::ir::builder::{build_func, OpBuilder};
use c4cam::ir::parse::parse_module;
use c4cam::ir::print::print_module;
use c4cam::ir::{Attribute, Module};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// IR printer/parser round-trip
// ---------------------------------------------------------------------

fn arb_attr() -> impl Strategy<Value = Attribute> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Attribute::Int),
        (-1e9f64..1e9).prop_map(Attribute::Float),
        any::<bool>().prop_map(Attribute::Bool),
        "[a-z][a-z0-9_]{0,8}".prop_map(Attribute::Str),
        Just(Attribute::Unit),
        proptest::collection::vec(-100f32..100.0, 0..6)
            .prop_map(|v| Attribute::dense_f32(vec![v.len() as i64], v)),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Attribute::Array)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn printed_modules_reparse_identically(
        attrs in proptest::collection::vec(("[a-z][a-z0-9]{0,6}", arb_attr()), 0..5),
        shape in proptest::collection::vec(1i64..64, 1..3),
        nops in 1usize..6,
    ) {
        let mut m = Module::new();
        let f32t = m.f32_ty();
        let ty = m.tensor_ty(&shape, f32t);
        let (_, entry) = build_func(&mut m, "f", &[ty], &[ty]);
        let mut value = m.block(entry).args[0];
        for i in 0..nops {
            let mut b = OpBuilder::at_end(&mut m, entry);
            let op = if i == 0 {
                let attr_vec: Vec<(&str, Attribute)> = attrs
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect();
                b.op("test.attrs", &[value], &[ty], attr_vec)
            } else {
                b.op("test.chain", &[value, value], &[ty], vec![])
            };
            value = m.result(op, 0);
        }
        let mut b = OpBuilder::at_end(&mut m, entry);
        b.op("func.return", &[value], &[], vec![]);

        let text = print_module(&m);
        let reparsed = parse_module(&text).expect("reparse");
        prop_assert_eq!(print_module(&reparsed), text);
    }

    // -----------------------------------------------------------------
    // Simulator search semantics vs a direct reference scan
    // -----------------------------------------------------------------

    #[test]
    fn exact_search_equals_reference_scan(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..2, 8), 1..12),
        query in proptest::collection::vec(0u8..2, 8),
    ) {
        let spec = ArchSpec::builder().subarray(16, 8).build().unwrap();
        let mut machine = CamMachine::new(&spec);
        let sub = machine.alloc_chain().unwrap();
        let data: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| r.iter().map(|&b| f32::from(b)).collect())
            .collect();
        machine.write_rows(sub, 0, &data).unwrap();
        let q: Vec<f32> = query.iter().map(|&b| f32::from(b)).collect();
        let result = machine
            .search(sub, &q, SearchSpec::new(MatchKind::Exact, Metric::Hamming))
            .unwrap();
        let expected: Vec<usize> = data
            .iter()
            .enumerate()
            .filter(|(_, r)| r.as_slice() == q.as_slice())
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(result.matching_rows(), expected);
    }

    #[test]
    fn best_match_is_argmin_of_hamming(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..2, 12), 2..10),
        query in proptest::collection::vec(0u8..2, 12),
    ) {
        let spec = ArchSpec::builder().subarray(16, 12).build().unwrap();
        let mut machine = CamMachine::new(&spec);
        let sub = machine.alloc_chain().unwrap();
        let data: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| r.iter().map(|&b| f32::from(b)).collect())
            .collect();
        machine.write_rows(sub, 0, &data).unwrap();
        let q: Vec<f32> = query.iter().map(|&b| f32::from(b)).collect();
        let result = machine
            .search(sub, &q, SearchSpec::new(MatchKind::Best, Metric::Hamming))
            .unwrap();
        let dist = |r: &Vec<f32>| r.iter().zip(&q).filter(|(a, b)| a != b).count();
        let min = data.iter().map(dist).min().unwrap();
        let expected: Vec<usize> = data
            .iter()
            .enumerate()
            .filter(|(_, r)| dist(r) == min)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(result.best_rows(), expected);
    }

    #[test]
    fn selective_window_equals_restricted_scan(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..2, 8), 4..12),
        query in proptest::collection::vec(0u8..2, 8),
        start in 0usize..8,
        len in 1usize..6,
    ) {
        let spec = ArchSpec::builder().subarray(16, 8).build().unwrap();
        let mut machine = CamMachine::new(&spec);
        let sub = machine.alloc_chain().unwrap();
        let data: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| r.iter().map(|&b| f32::from(b)).collect())
            .collect();
        machine.write_rows(sub, 0, &data).unwrap();
        let q: Vec<f32> = query.iter().map(|&b| f32::from(b)).collect();
        let result = machine
            .search(
                sub,
                &q,
                SearchSpec::new(MatchKind::Threshold, Metric::Hamming)
                    .with_threshold(2.0)
                    .with_selection(RowSelection::Window { start, len }),
            )
            .unwrap();
        let window_end = (start + len).min(data.len());
        let expected: Vec<usize> = (start.min(data.len())..window_end)
            .filter(|&i| {
                data[i].iter().zip(&q).filter(|(a, b)| a != b).count() <= 2
            })
            .collect();
        prop_assert_eq!(result.matching_rows(), expected);
    }

    // -----------------------------------------------------------------
    // Mapping invariants
    // -----------------------------------------------------------------

    #[test]
    fn placement_covers_all_tiles(
        stored in 1usize..600,
        dims in 1usize..4000,
        n in prop_oneof![Just(16usize), Just(32), Just(64), Just(128)],
        opt in prop_oneof![
            Just(Optimization::Base),
            Just(Optimization::Power),
            Just(Optimization::Density),
            Just(Optimization::PowerDensity),
        ],
    ) {
        let spec = ArchSpec::builder()
            .subarray(n, n)
            .hierarchy(4, 4, 8)
            .optimization(opt)
            .build()
            .unwrap();
        let p = place(&spec, &MappingProblem {
            stored_rows: stored,
            feature_dims: dims,
            queries: 1,
        }).unwrap();
        // Capacity: physical subarrays × batches cover all logical tiles.
        prop_assert!(p.physical_subarrays * p.batches_per_subarray >= p.logical_tiles);
        // No overshoot by more than one batch's worth.
        prop_assert!((p.physical_subarrays - 1) * p.batches_per_subarray < p.logical_tiles);
        // Rows fit the subarray.
        prop_assert!(p.rows_used <= n);
        prop_assert!(p.rows_used * p.batches_per_subarray <= n);
        // Banks provide enough subarray slots.
        prop_assert!(p.banks * spec.subarrays_per_bank() >= p.physical_subarrays);
        // Padded rows cover the stored set.
        prop_assert!(p.padded_rows >= stored);
    }

    #[test]
    fn search_latency_monotonic_in_columns(
        c1 in 16usize..256,
        c2 in 16usize..256,
    ) {
        let tech = c4cam::arch::tech::TechnologyModel::fefet_45nm();
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(tech.search_latency_ns(lo, 1) <= tech.search_latency_ns(hi, 1));
    }

    // -----------------------------------------------------------------
    // End-to-end: random geometry, device == host reference
    //
    // Contract (see docs/ARCHITECTURE.md and the `cam_map` docs): the device
    // executes dot similarity as a symbol-match count — the Hamming
    // complement — exactly as the FeFET CAM hardware of [22] does. That
    // ranking equals true dot-product ranking iff the stored rows are
    // norm-balanced (the HDC setting: random hypervectors are balanced
    // by construction). So:
    //   * for balanced stored rows, device == torch-level host output;
    //   * for arbitrary rows, device == the min-Hamming reference.
    // -----------------------------------------------------------------

    #[test]
    fn device_matches_host_for_random_geometries(
        classes in 2usize..8,
        dims_factor in 1usize..12,
        nq in 1usize..4,
        n in prop_oneof![Just(16usize), Just(32)],
        opt in prop_oneof![
            Just(Optimization::Base),
            Just(Optimization::Power),
            Just(Optimization::Density),
        ],
        seed in 0u64..1000,
    ) {
        use c4cam::compiler::dialects::torch;
        use c4cam::compiler::pipeline::C4camPipeline;
        use c4cam::ir::Module;
        use c4cam::runtime::{Executor, Value};
        use c4cam::tensor::Tensor;

        let dims = dims_factor * 17; // deliberately non-divisible sizes
        let ones = dims / 2 + 1;
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, nq as i64, classes as i64, dims as i64, 1, true);

        // Deterministic xorshift.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Balanced stored rows: exactly `ones` ones each (random HVs are
        // balanced; this makes match-count ranking ≡ dot ranking).
        let mut stored = Vec::with_capacity(classes * dims);
        for _ in 0..classes {
            let mut row = vec![0.0f32; dims];
            let mut placed = 0usize;
            while placed < ones {
                let pos = (next() as usize) % dims;
                if row[pos] == 0.0 {
                    row[pos] = 1.0;
                    placed += 1;
                }
            }
            stored.extend(row);
        }
        let stored = Tensor::from_vec(vec![classes, dims], stored).unwrap();
        let queries =
            Tensor::from_vec(vec![nq, dims], (0..nq * dims).map(|_| (next() & 1) as f32).collect())
                .unwrap();
        let args = [Value::Tensor(queries.clone()), Value::Tensor(stored.clone())];

        let golden = Executor::new(&m).run("forward", &args).unwrap();

        let spec = ArchSpec::builder()
            .subarray(n, n)
            .hierarchy(2, 2, 4)
            .optimization(opt)
            .build()
            .unwrap();
        let compiled = C4camPipeline::new(spec.clone()).compile(m).unwrap();
        let mut machine = CamMachine::new(&spec);
        let out = Executor::with_machine(&compiled.module, &mut machine)
            .run("forward", &args)
            .unwrap();
        let device_idx = out[1].as_tensor().unwrap().data().to_vec();
        prop_assert_eq!(&device_idx, golden[1].as_tensor().unwrap().data());

        // Independent min-Hamming reference (holds for ANY data).
        for (q, &idx) in device_idx.iter().enumerate() {
            let qrow = queries.row(q).unwrap();
            let best = (0..classes)
                .map(|c| Tensor::hamming_distance(qrow, stored.row(c).unwrap()).unwrap())
                .enumerate()
                .min_by_key(|&(i, d)| (d, i))
                .map(|(i, _)| i)
                .unwrap();
            prop_assert_eq!(idx as usize, best);
        }

        // Accounting sanity: the device did real work and time advanced.
        let stats = machine.stats();
        prop_assert!(stats.search_ops > 0);
        prop_assert!(stats.latency_ns > 0.0);
        prop_assert!(stats.total_energy_fj() > 0.0);
    }

    #[test]
    fn device_matches_hamming_reference_for_unbalanced_rows(
        classes in 2usize..6,
        dims_factor in 1usize..8,
        seed in 0u64..500,
    ) {
        use c4cam::compiler::dialects::torch;
        use c4cam::compiler::pipeline::C4camPipeline;
        use c4cam::ir::Module;
        use c4cam::runtime::{Executor, Value};
        use c4cam::tensor::Tensor;

        let dims = dims_factor * 13;
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 1, classes as i64, dims as i64, 1, true);
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next_bit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 1) as f32
        };
        // Unbalanced random rows: dot and Hamming rankings may differ;
        // the device contract is min-Hamming.
        let stored = Tensor::from_vec(
            vec![classes, dims],
            (0..classes * dims).map(|_| next_bit()).collect(),
        )
        .unwrap();
        let queries =
            Tensor::from_vec(vec![1, dims], (0..dims).map(|_| next_bit()).collect()).unwrap();
        let args = [Value::Tensor(queries.clone()), Value::Tensor(stored.clone())];

        let spec = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .build()
            .unwrap();
        let compiled = C4camPipeline::new(spec.clone()).compile(m).unwrap();
        let mut machine = CamMachine::new(&spec);
        let out = Executor::with_machine(&compiled.module, &mut machine)
            .run("forward", &args)
            .unwrap();
        let device_idx = out[1].as_tensor().unwrap().data()[0] as usize;
        let qrow = queries.row(0).unwrap();
        let best = (0..classes)
            .map(|c| Tensor::hamming_distance(qrow, stored.row(c).unwrap()).unwrap())
            .enumerate()
            .min_by_key(|&(i, d)| (d, i))
            .map(|(i, _)| i)
            .unwrap();
        prop_assert_eq!(device_idx, best);
    }

    #[test]
    fn arch_spec_text_round_trips(
        rows in 1usize..512,
        cols in 1usize..512,
        mats in 1usize..8,
        arrays in 1usize..8,
        subs in 1usize..16,
        banks in proptest::option::of(1usize..64),
        bits in 1u32..5,
    ) {
        // The full multi-bit range 1..=4 (the paper's multi-bit HDC
        // variants); TCAM caps at 2 bits per cell, so wider cells
        // require the MCAM kind — which must itself round-trip.
        let mut builder = ArchSpec::builder()
            .subarray(rows, cols)
            .hierarchy(mats, arrays, subs)
            .bits_per_cell(bits);
        if bits > 2 {
            builder = builder.cam_kind(c4cam::arch::CamKind::Mcam);
        }
        if let Some(b) = banks {
            builder = builder.banks(b);
        }
        let spec = builder.build().unwrap();
        prop_assert_eq!(spec.bits_per_cell, bits);
        let text = spec.to_text();
        let reparsed = c4cam::arch::parse_spec(&text).unwrap();
        prop_assert_eq!(spec, reparsed);
    }
}

// ---------------------------------------------------------------------
// What the sweep's static costing rests on
// ---------------------------------------------------------------------

/// Random level data at the architecture's cell width, as a dot
/// (HDC-style) or Euclidean (kNN-style) top-1 retrieval. Few dims and a
/// small alphabet make exact score ties the common case.
struct Synthetic {
    knn: bool,
    rows: usize,
    dims: usize,
    queries: usize,
    seed: u64,
}

impl c4cam::workloads::Workload for Synthetic {
    fn name(&self) -> &'static str {
        "synthetic"
    }
    fn query_count(&self) -> usize {
        self.queries
    }
    fn stored_rows(&self) -> usize {
        self.rows
    }
    fn dims(&self) -> usize {
        self.dims
    }
    fn build_module(&self, _spec: &ArchSpec) -> c4cam::workloads::WorkloadModule {
        use c4cam::compiler::dialects::{cim, torch};
        use c4cam::workloads::{ArgOrder, WorkloadModule};
        let (rows, dims, nq) = (self.rows as i64, self.dims as i64, self.queries as i64);
        let mut module = Module::new();
        if self.knn {
            cim::build_similarity_kernel(&mut module, "knn", "eucl", rows, dims, nq, 1, false);
            return WorkloadModule {
                module,
                func: "knn",
                arg_order: ArgOrder::StoredThenQueries,
            };
        }
        torch::build_hdc_dot_with(&mut module, nq, rows, dims, 1, true);
        WorkloadModule {
            module,
            func: "forward",
            arg_order: ArgOrder::QueriesThenStored,
        }
    }
    fn inputs(&self, spec: &ArchSpec) -> c4cam::workloads::WorkloadInputs {
        use c4cam::tensor::Tensor;
        let mut state = self.seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mask = (1u64 << spec.bits_per_cell) - 1;
        let mut levels = |rows: usize| {
            let data = (0..rows * self.dims).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) & mask) as f32
            });
            Tensor::from_vec(vec![rows, self.dims], data.collect()).unwrap()
        };
        c4cam::workloads::WorkloadInputs {
            stored: levels(self.rows),
            queries: levels(self.queries),
            labels: vec![0; self.queries],
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The device's reductions are exact-integer sums, so how the
    /// mapping tiles them cannot change a score — nor, the accumulator
    /// being in stored-row order under every mapping, which of two tied
    /// rows wins. This is what lets one executed grid point answer for
    /// every geometry and optimisation of its cell width.
    #[test]
    fn top_1_predictions_do_not_depend_on_the_mapping(
        knn in any::<bool>(),
        bits in 1u32..4,
        rows in 2usize..40,
        dims in prop_oneof![3usize..9, 20usize..90],
        queries in 1usize..5,
        seed in 0u64..1000,
    ) {
        use c4cam::driver::{build_arch, Experiment};
        let workload = Synthetic { knn, rows, dims, queries, seed };
        let mut reference: Option<Vec<usize>> = None;
        for n in [16usize, 32, 64] {
            for opt in [
                Optimization::Base,
                Optimization::Power,
                Optimization::Density,
                Optimization::PowerDensity,
            ] {
                let spec = build_arch((n, n), (2, 2, 4), opt, bits).unwrap();
                let out = Experiment::new(&workload).arch(spec).run().unwrap();
                let want = reference.get_or_insert_with(|| out.predictions.clone());
                prop_assert_eq!(&out.predictions, want, "{}x{} {:?}", n, n, opt);
            }
        }
    }

    /// ROADMAP N4 on the ledger: a search never gets cheaper with more
    /// active rows, wider subarrays or wider cells.
    #[test]
    fn search_energy_is_monotone_in_rows_columns_and_bits(
        active in (0usize..256, 0usize..256),
        cols in (1usize..512, 1usize..512),
        bits in (1u32..5, 1u32..5),
        share in 0.0f64..1.0,
    ) {
        let energy = |active: usize, cols: usize, bits: u32| {
            let spec = ArchSpec::builder()
                .subarray(256, cols)
                .cam_kind(c4cam::arch::CamKind::Mcam)
                .bits_per_cell(bits)
                .build()
                .unwrap();
            let mut ledger = CostLedger::new(&spec, TechnologyModel::fefet_45nm());
            let search = SearchSpec::new(MatchKind::Best, Metric::Hamming)
                .with_broadcast_share(share);
            ledger.search(active, 0, &search, 1);
            ledger.stats().total_energy_fj()
        };
        let sorted = |(a, b): (_, _)| if a <= b { (a, b) } else { (b, a) };
        let ((a_lo, a_hi), (c_lo, c_hi)) = (sorted(active), sorted(cols));
        let (b_lo, b_hi) = if bits.0 <= bits.1 { bits } else { (bits.1, bits.0) };
        prop_assert!(energy(a_lo, c_lo, b_lo) <= energy(a_hi, c_lo, b_lo));
        prop_assert!(energy(a_lo, c_lo, b_lo) <= energy(a_lo, c_hi, b_lo));
        prop_assert!(energy(a_lo, c_lo, b_lo) <= energy(a_lo, c_lo, b_hi));
    }

    /// Concurrency changes time, not work: the same charges under a
    /// parallel scope are never slower than under a sequential one, and
    /// cost the same energy to the bit.
    #[test]
    fn a_parallel_scope_is_never_slower_than_a_sequential_one(
        charges in proptest::collection::vec((0u8..3, 0usize..64), 1..12),
    ) {
        let fold = |parallel: bool| {
            let mut ledger = CostLedger::new(&ArchSpec::default(), TechnologyModel::fefet_45nm());
            if parallel {
                ledger.push_parallel();
            } else {
                ledger.push_sequential();
            }
            for &(kind, n) in &charges {
                ledger.push_sequential();
                match kind {
                    0 => ledger.write(n),
                    1 => ledger.search(
                        n,
                        n as u64,
                        &SearchSpec::new(MatchKind::Best, Metric::Hamming),
                        1,
                    ),
                    _ => ledger.merge(Level::Array, n),
                }
                ledger.pop_scope();
            }
            ledger.pop_scope();
            ledger.stats()
        };
        let (par, seq) = (fold(true), fold(false));
        prop_assert!(par.latency_ns <= seq.latency_ns);
        let dynamic = |s: &c4cam::camsim::ExecStats| {
            [s.cell_energy_fj, s.periph_energy_fj, s.merge_energy_fj, s.write_energy_fj]
                .map(f64::to_bits)
        };
        prop_assert_eq!(dynamic(&par), dynamic(&seq));
    }
}
