//! Golden tape dumps: the disassembly of one small mapped two-query HDC
//! module is pinned byte-exact as the specialised schedule — the query
//! body partially evaluated into scope ops and fused searches — and,
//! after an edit the pass cannot prove, as the loop nest the module
//! spelled. A change to the tape passes, the ISA's textual form or the
//! mapping shows up here as a reviewable diff.
//!
//! Regenerate the fixtures after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test tape_golden
//! ```

mod common;

use c4cam::arch::Optimization;
use c4cam::compiler::dialects::torch;
use c4cam::compiler::pipeline::C4camPipeline;
use c4cam::driver::build_arch;
use c4cam::engine::{Tape, Unspecialised};
use c4cam::ir::Module;
use std::path::{Path, PathBuf};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Two queries of 4 classes x 64 dimensions on 16 x 16 subarrays: four
/// column chunks in a (2, 2, 4) hierarchy, so twelve of its sixteen
/// slots are empty.
fn hdc_tape(looped: bool) -> Tape {
    let mut m = Module::new();
    torch::build_hdc_dot(&mut m, 2, 4, 64, 1);
    let spec = build_arch((16, 16), (2, 2, 4), Optimization::Base, 1).unwrap();
    let mut lowered = C4camPipeline::new(spec).compile(m).unwrap();
    if looped {
        common::keep_query_loops(&mut lowered.module, "forward");
    }
    Tape::compile(&lowered.module, "forward").unwrap()
}

fn assert_matches_golden(tape: &Tape, name: &str) {
    let text = tape.to_string();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path(name), &text).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path(name))
        .expect("committed golden tape (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        text, golden,
        "tape disassembly drifted from tests/golden/{name}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn two_query_hdc_tape_is_the_specialised_schedule() {
    let tape = hdc_tape(false);
    assert_eq!(tape.specialised(), Ok(()));
    assert_matches_golden(&tape, "hdc_2q.tape");
}

#[test]
fn looped_hdc_tape_keeps_the_loops_the_module_spelled() {
    let tape = hdc_tape(true);
    assert_eq!(tape.specialised(), Err(Unspecialised::IvEscapes));
    assert_matches_golden(&tape, "hdc_looped.tape");
}
