//! **Table II** — EDP and power for KNN execution on the
//! Pneumonia-scale dataset (5216 stored patterns), for `cam-based` and
//! `cam-power` across square subarray sizes.
//!
//! Shape requirements: EDP decreases steeply with subarray size (the
//! paper's 16×16 → 256×256 factor is ~15×); `cam-power` draws less
//! power at every size — declining monotonically with size, as in the
//! paper's cam-power row — while paying a higher EDP; absolute power is
//! orders of magnitude above the HDC case (the dataset needs hundreds
//! of banks).
//!
//! **Documented deviation** (see README.md): the paper's
//! *cam-based* power column also declines monotonically (44 W →
//! 0.86 W); our rate-based power model is non-monotonic for the base
//! configuration because per-query latency collapses faster than energy
//! as subarrays grow.

use c4cam::arch::Optimization;
use c4cam::driver::{paper_arch, Experiment};
use c4cam::workloads::KnnWorkload;
use c4cam_bench::section;

fn main() {
    // The paper's Pneumonia geometry: 5216 stored patterns × 4096
    // features.
    let patterns = 5216usize;
    let dims = 4096usize;
    let queries = 1usize;
    let sizes = [16usize, 32, 64, 128, 256];

    section(&format!(
        "Table II: EDP and power for KNN ({patterns} patterns x {dims} features)"
    ));
    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>12} {:>10}",
        "config", "subarray", "EDP nJ*s/query", "power W", "latency us", "banks"
    );

    let workload = KnnWorkload {
        patterns,
        dims,
        queries,
        k: 5,
        noise: 0.2,
        seed: 7,
    };
    let mut table: Vec<(&str, usize, f64, f64)> = Vec::new();
    for (name, opt) in [
        ("cam-based", Optimization::Base),
        ("cam-power", Optimization::Power),
    ] {
        for &n in &sizes {
            // Priced from the compiled schedule; the 83k-subarray
            // machine of the 16x16 row is never built.
            let compiled = Experiment::new(&workload)
                .arch(paper_arch(n, opt, 1))
                .compile()
                .expect("knn compile");
            let cost = compiled.cost(1).expect("the tape backend prices");
            let per_query = cost.query_phase();
            let edp = per_query.edp_nj_s();
            let power = per_query.power_w();
            println!(
                "{:<12} {:>10} {:>14.4e} {:>14.3} {:>12.3} {:>10}",
                name,
                format!("{n}x{n}"),
                edp,
                power,
                per_query.latency_us(),
                compiled.placement().banks
            );
            table.push((name, n, edp, power));
        }
        println!();
    }

    // Shape assertions.
    let get = |name: &str, n: usize| {
        *table
            .iter()
            .find(|r| r.0 == name && r.1 == n)
            .expect("row present")
    };
    // EDP falls steeply from 16×16 to 128×128 for both configurations
    // (the paper's full-range factor is ~15×).
    for name in ["cam-based", "cam-power"] {
        for w in [16usize, 32, 64].windows(2) {
            assert!(
                get(name, w[1]).2 < get(name, w[0]).2,
                "{name}: EDP must decrease from {} to {}",
                w[0],
                w[1]
            );
        }
        let drop = get(name, 16).2 / get(name, 128).2;
        assert!(
            drop > 4.0,
            "{name}: EDP should fall steeply 16->128 (got {drop:.1}x)"
        );
    }
    for &n in &sizes {
        let base = get("cam-based", n);
        let power = get("cam-power", n);
        assert!(power.3 < base.3, "cam-power must reduce power at {n}x{n}");
        assert!(
            power.2 > base.2,
            "cam-power pays EDP for its power savings at {n}x{n}"
        );
    }
    // cam-power's power declines monotonically with subarray size (the
    // paper's row: 25.23 -> 0.19 W).
    for w in sizes.windows(2) {
        assert!(
            get("cam-power", w[1]).3 < get("cam-power", w[0]).3,
            "cam-power power must decline with subarray size"
        );
    }
    // Magnitudes: watts-scale at 16×16 (HDC draws milliwatts on the
    // same technology — the dataset needs ~650 banks).
    let p16 = get("cam-based", 16).3;
    assert!(
        p16 > 0.5,
        "16x16 KNN power should be watts-scale (got {p16:.3} W)"
    );
    println!(
        "shape checks passed: EDP falls steeply; cam-power cuts power monotonically, pays EDP"
    );
}
