//! Structural (FileCheck-style) tests: the IR after each stage must
//! exhibit the structures the paper's listings show (Fig. 4b, 5a, 5c,
//! 5d, 6).

use c4cam::arch::{ArchSpec, Optimization};
use c4cam::compiler::dialects::torch;
use c4cam::compiler::pipeline::{C4camPipeline, PipelineOptions, Target};
use c4cam::ir::print::print_module;
use c4cam::ir::Module;

fn snapshots(opt: Optimization, target: Target) -> Vec<(String, String)> {
    let mut m = Module::new();
    torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
    let spec = ArchSpec::builder()
        .subarray(32, 32)
        .hierarchy(4, 4, 8)
        .optimization(opt)
        .build()
        .unwrap();
    C4camPipeline::new(spec)
        .with_options(PipelineOptions {
            keep_snapshots: true,
            target,
        })
        .compile(m)
        .unwrap()
        .snapshots
}

fn stage<'a>(snaps: &'a [(String, String)], name: &str) -> &'a str {
    &snaps
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing stage {name}"))
        .1
}

#[test]
fn torch_stage_matches_fig4b() {
    let snaps = snapshots(Optimization::Base, Target::CamDevice);
    let text = stage(&snaps, "torch");
    // Fig. 4b: transpose → mm → topk over tensor<10x8192>-style types.
    assert!(text.contains("torch.transpose"));
    assert!(text.contains("torch.matmul"));
    assert!(text.contains("torch.topk"));
    assert!(text.contains("tensor<10x1024xf32>"));
    assert!(
        text.contains("tensor<1024x10xf32>"),
        "transposed weight type"
    );
}

#[test]
fn cim_stage_matches_fig5a() {
    let snaps = snapshots(Optimization::Base, Target::CamDevice);
    let text = stage(&snaps, "torch-to-cim");
    // Fig. 5a: one acquire/execute/release triple per op.
    assert_eq!(text.matches("cim.acquire").count(), 3);
    assert_eq!(text.matches("\"cim.execute\"").count(), 3);
    assert_eq!(text.matches("cim.release").count(), 3);
    assert!(text.contains("cim.transpose"));
    assert!(text.contains("cim.matmul"));
    assert!(text.contains("cim.topk"));
    assert!(!text.contains("torch."), "torch fully converted");
}

#[test]
fn fused_stage_matches_fig5c() {
    let snaps = snapshots(Optimization::Base, Target::CamDevice);
    let text = stage(&snaps, "cim-fuse-ops");
    // Fig. 5c: a single execute holding cim.similarity.
    assert_eq!(text.matches("\"cim.execute\"").count(), 1);
    assert!(text.contains("cim.similarity"));
    assert!(text.contains("metric = \"dot\""));
    assert!(!text.contains("cim.matmul"), "ops rewritten away");
}

#[test]
fn partitioned_stage_matches_fig5d() {
    let snaps = snapshots(Optimization::Base, Target::HostLoops);
    let text = stage(&snaps, "cim-partition");
    // Fig. 5d: an scf.for over tiles with slice extraction and merges.
    assert!(text.contains("\"scf.for\""));
    assert!(text.contains("tensor.extract_slice"));
    assert!(text.contains("cim.similarity_scores"));
    assert!(text.contains("cim.merge_partial"));
    assert!(text.contains("cim.reduce"));
    assert!(text.contains("tensor<10x32xf32>"), "subarray-sized slices");
}

#[test]
fn mapped_stage_matches_fig6() {
    let snaps = snapshots(Optimization::Base, Target::CamDevice);
    let text = stage(&snaps, "cam-map");
    // Fig. 6: nested parallel loops with per-level allocation and the
    // write/search/read/merge sequence on !cam handles.
    for needle in [
        "\"scf.parallel\"",
        "cam.alloc_bank",
        "cam.alloc_mat",
        "cam.alloc_array",
        "cam.alloc_subarray",
        "!cam.bank_id",
        "!cam.mat_id",
        "!cam.array_id",
        "!cam.subarray_id",
        "cam.write_value",
        "cam.search",
        "cam.read",
        "cam.merge_partial_subarray",
        "cam.reduce",
    ] {
        assert!(text.contains(needle), "missing {needle}");
    }
    // Base config: everything parallel — 4 levels × 2 nests.
    assert_eq!(text.matches("\"scf.parallel\"").count(), 8);
    assert!(text.contains("kind = \"best\""));
    assert!(text.contains("metric = \"dot\""));
}

#[test]
fn power_config_serializes_innermost_loop() {
    let snaps = snapshots(Optimization::Power, Target::CamDevice);
    let text = stage(&snaps, "cam-map");
    assert_eq!(
        text.matches("\"scf.parallel\"").count(),
        6,
        "subarray loops become scf.for under cam-power"
    );
}

#[test]
fn density_config_emits_selective_search_with_batches() {
    let snaps = snapshots(Optimization::Density, Target::CamDevice);
    let text = stage(&snaps, "cam-map");
    assert!(text.contains("selective = true"));
    assert!(text.contains("broadcast_share"));
}

#[test]
fn all_stages_round_trip_through_the_parser() {
    for target in [Target::CamDevice, Target::HostLoops] {
        for (name, text) in snapshots(Optimization::Base, target) {
            let reparsed = c4cam::ir::parse::parse_module(&text)
                .unwrap_or_else(|e| panic!("stage {name} failed to reparse: {e}"));
            assert_eq!(
                print_module(&reparsed),
                text,
                "stage {name} not stable under round-trip"
            );
        }
    }
}
