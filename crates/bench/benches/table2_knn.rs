//! **Table II** — EDP and power for KNN execution on the
//! Pneumonia-scale dataset (5216 stored patterns), for `cam-based` and
//! `cam-power` across square subarray sizes.
//!
//! Shape requirements (asserted here and in `tests/paper_figures.rs`,
//! both through [`Table2Knn::trends`]): EDP decreases steeply with
//! subarray size; `cam-power` draws less power at every size —
//! declining monotonically with size, as in the paper's cam-power row —
//! while paying a higher EDP; absolute power is orders of magnitude
//! above the HDC case (the dataset needs hundreds of banks).
//!
//! **Documented deviations**, each an expected-fail trend with its
//! reason: the paper's *cam-based* power column also declines
//! monotonically (44 W → 0.86 W) while ours rises from 32×32 to
//! 128×128; our EDP range is ~126× against the paper's ~15×; and the
//! absolute watts are not the paper's.

use c4cam::sweep::DEFAULT_SUBARRAY_SIZES;
use c4cam_bench::{section, Table2Knn, TABLE2_CONFIGS};

fn main() {
    let table = Table2Knn::compute();

    section("Table II: EDP and power for KNN (5216 patterns x 4096 features)");
    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>12} {:>10}",
        "config", "subarray", "EDP nJ*s/query", "power W", "latency us", "banks"
    );
    for (name, opt) in TABLE2_CONFIGS {
        for n in DEFAULT_SUBARRAY_SIZES {
            let point = table.point(opt, n);
            println!(
                "{:<12} {:>10} {:>14.4e} {:>14.3} {:>12.3} {:>10}",
                name,
                format!("{n}x{n}"),
                point.query_phase.edp_nj_s(),
                point.query_phase.power_w(),
                point.query_phase.latency_us(),
                point.placement.banks
            );
        }
        println!();
    }

    let unexpected: Vec<String> = table
        .trends()
        .iter()
        .filter(|t| !t.as_expected())
        .map(ToString::to_string)
        .collect();
    assert!(unexpected.is_empty(), "{}", unexpected.join("\n"));
    println!(
        "shape checks passed: EDP falls steeply; cam-power cuts power monotonically, pays EDP"
    );
}
