//! The paper's figures, asserted in `cargo test`.
//!
//! Each test recomputes a published result through the same calls its
//! `crates/bench` harness makes, so a change to the mapping or the cost
//! model that bends a reproduced figure fails `cargo test`, not only a
//! `harness = false` bench.

use c4cam::arch::Optimization;
use c4cam::camsim::ExecStats;
use c4cam::compiler::mapping::{place, MappingProblem};
use c4cam::driver::{paper_arch, Experiment, RunOutcome};
use c4cam::workloads::HdcWorkload;
use c4cam_bench::{Fig8, Fig9Iso, GpuComparison, Table2Knn, TechDse, TECH_DSE_SIZES};

/// **Table I**: subarrays used to implement HDC (10 classes × 8192
/// dims) on square `N × N` subarrays, with the standard placement
/// (`cam-based`) and with selective-search packing (`cam-density`).
/// The counts are the paper's integers, exactly.
#[test]
fn table1_subarray_counts_are_the_papers() {
    let hdc = MappingProblem {
        stored_rows: 10,
        feature_dims: 8192,
        queries: 1,
    };
    let sizes = [16, 32, 64, 128, 256];
    for (opt, paper) in [
        (Optimization::Base, [512, 256, 128, 64, 32]),
        (Optimization::Density, [512, 86, 22, 6, 2]),
    ] {
        let counts: Vec<usize> = sizes
            .iter()
            .map(|&n| {
                place(&paper_arch(n, opt, 1), &hdc)
                    .unwrap()
                    .physical_subarrays
            })
            .collect();
        assert_eq!(counts, paper, "Table I, {opt}");
    }
}

/// **Figure 8**: the §IV-C1 trends of energy, latency and power over
/// subarray size and optimisation, each within the band the
/// `fig8_dse` bench asserts, computed by the function it prints from.
/// Measured against the paper:
/// - cam-power's latency penalty: 3.97× at 32×32 (paper 2×) and 6.56×
///   at 256×256 (paper 4.86×);
/// - cam-density's latency blow-up at 256×256: 20.75× (paper ≈ 23×);
/// - cam-density's energy: below base at 32 and 64, above it at 256.
#[test]
fn fig8_trends_are_the_papers() {
    let fig8 = Fig8::compute();
    let failed: Vec<String> = fig8
        .trends()
        .iter()
        .filter(|t| !t.holds())
        .map(ToString::to_string)
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    let penalty = |n| fig8.ratio(Optimization::Power, n, ExecStats::latency_ms);
    let blowup = fig8.ratio(Optimization::Density, 256, ExecStats::latency_ms);
    let rounded = |x: f64| (x * 100.0).round() / 100.0;
    assert_eq!(
        [penalty(32), penalty(256), blowup].map(rounded),
        [3.97, 6.56, 20.75]
    );
}

/// **Table II**: kNN on the Pneumonia geometry, cam-based against
/// cam-power, through the calls the `table2_knn` bench prints from.
/// What holds: cam-power draws less power than cam-based at every size
/// (and pays EDP for it), its power falls monotonically — 1.42, 0.99,
/// 0.93, 0.62, 0.37 W (paper: 25.23 → 0.19 W) — and EDP falls steeply
/// from 16×16 to 128×128. The known deviations, each an expected-fail
/// trend with its reason:
/// - cam-based EDP spans 126× over the sizes (paper ≈ 15×);
/// - cam-based power is non-monotone: 1.44, 1.22, 2.20, 2.85, 2.29 W
///   (paper: falls 44 → 0.86 W);
/// - absolute power: 1.44 W against 44 W for cam-based at 16×16, and
///   0.37 W against 0.19 W for cam-power at 256×256.
///
/// A deviation that starts to hold fails here too: its entry is then
/// stale and comes out of the list.
#[test]
fn table2_knn_trends_are_the_papers() {
    use Optimization::{Base, Power};
    let table = Table2Knn::compute();
    let trends = table.trends();
    let unexpected: Vec<String> = trends
        .iter()
        .filter(|t| !t.as_expected())
        .map(ToString::to_string)
        .collect();
    assert!(unexpected.is_empty(), "{}", unexpected.join("\n"));
    assert_eq!(trends.iter().filter(|t| t.deviation.is_some()).count(), 4);
    let watts =
        |opt| [16, 32, 64, 128, 256].map(|n| (table.power_w(opt, n) * 100.0).round() / 100.0);
    assert_eq!(watts(Power), [1.42, 0.99, 0.93, 0.62, 0.37]);
    assert_eq!(watts(Base), [1.44, 1.22, 2.2, 2.85, 2.29]);
    let range = table.edp_nj_s(Base, 16) / table.edp_nj_s(Base, 128);
    assert_eq!(range.round(), 126.0);
}

/// Fig. 8 prices one query because the query phase is one trip
/// replayed: the paper's 10 000 queries scale it, ratio for ratio.
#[test]
fn fig8_per_query_figures_scale_to_the_test_set() {
    let fig8 = Fig8::compute();
    let hdc = HdcWorkload::paper(1);
    for (opt, n) in [(Optimization::Base, 256), (Optimization::Power, 256)] {
        let compiled = Experiment::new(&hdc)
            .arch(paper_arch(n, opt, 1))
            .compile()
            .unwrap();
        let full = compiled.cost(10_000).unwrap().query_phase();
        let one = fig8.query(opt, n);
        for metric in [ExecStats::latency_ms, ExecStats::energy_uj] {
            let scaled = metric(one) * 10_000.0;
            let close = (metric(&full) - scaled).abs() <= 1e-9 * scaled;
            assert!(close, "{opt:?} {n}: {} vs {scaled}", metric(&full));
        }
    }
}

/// **Figure 9**: the §IV-C2 iso-capacity trends, each within the band
/// the `fig9_iso` bench asserts, computed by the function it prints
/// from. Measured against the paper:
/// - iso-base latency of the 10 000 queries rises from 45.8 µs at 16×16
///   through 54.3, 69.4 and 96.6 to 148.8 µs at 256×256 (paper: 58 →
///   150 µs), 3.25× (paper ≈ 2.6×; band [1.5, 6));
/// - iso-base energy, max over min across N: 1.75 (paper: nearly
///   constant; band below 2.2);
/// - iso-density+power power over iso-base: 0.027, 0.030 and 0.045 at
///   16, 32 and 64 (paper: density cuts power significantly; band below
///   0.8).
#[test]
fn fig9_iso_trends_are_the_papers() {
    let fig9 = Fig9Iso::compute();
    let failed: Vec<String> = fig9
        .trends()
        .iter()
        .filter(|t| !t.holds())
        .map(ToString::to_string)
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    let us = |n| (fig9.query_phase(Optimization::Base, n).latency_ms() * 1e4).round() / 10.0;
    assert_eq!(
        [16, 32, 64, 128, 256].map(us),
        [45.8, 54.3, 69.4, 96.6, 148.8]
    );
}

/// **§IV-B GPU comparison**: HDC at MNIST scale on the CAM system
/// against the analytic RTX-6000-class GPU model, over the 10 000-query
/// test set, through the calls the `gpu_comparison` bench prints from.
/// Measured:
/// - execution-time improvement 50.4× (paper: 48×; asserted above 40×);
/// - energy improvement 49.2× (paper: 46.8×; asserted above 40×);
/// - energy over time improvement 0.98 (paper: energy tracks time;
///   band 0.8–1.2);
/// - 0.00 % from the hand-optimized design's improvement (paper: within
///   5 %): the compiler's mapping of this setting is the manual one.
#[test]
fn gpu_comparison_trends_are_the_papers() {
    let cmp = GpuComparison::compute();
    let failed: Vec<String> = cmp
        .trends()
        .iter()
        .filter(|t| !t.holds())
        .map(ToString::to_string)
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    let tenth = |x: f64| (x * 10.0).round() / 10.0;
    let compiled = &cmp.compiled;
    assert_eq!(tenth(compiled.latency_improvement()), 50.4);
    assert_eq!(tenth(compiled.energy_improvement()), 49.2);
    assert_eq!((cmp.deviation_from_manual_pct() * 100.0).round(), 0.0);
}

/// **Technology retargetability** (abstract): "CAM arrays exhibit
/// varying latencies and power profiles" by technology, and the
/// framework shows what that does to one application. The identical
/// HDC program on a CMOS TCAM at 16 nm and the paper's 2FeFET CAM at
/// 45 nm, through the calls the `technology_dse` bench prints from.
/// Measured, CMOS over FeFET at 16, 32, 64 and 128:
/// - the same answers (the abstract: the application does not change);
/// - latency per query 0.61, 0.58, 0.54, 0.51 (the abstract: CMOS is
///   faster);
/// - energy per query 1.93, 2.14, 2.32, 2.43 (the abstract: FeFET is
///   more energy-efficient; asserted above 1.5).
#[test]
fn technology_study_trends_are_the_abstracts() {
    let study = TechDse::compute();
    let failed: Vec<String> = study
        .trends()
        .iter()
        .filter(|t| !t.holds())
        .map(ToString::to_string)
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    let rounded = |x: f64| (x * 100.0).round() / 100.0;
    let ratios = |metric| TECH_DSE_SIZES.map(|n| rounded(study.cmos_over_fefet(n, metric)));
    assert_eq!(
        ratios(RunOutcome::latency_per_query_ns),
        [0.61, 0.58, 0.54, 0.51]
    );
    assert_eq!(
        ratios(RunOutcome::energy_per_query_pj),
        [1.93, 2.14, 2.32, 2.43]
    );
}
