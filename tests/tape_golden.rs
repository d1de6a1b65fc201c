//! Golden tape dumps: the disassembly of one small mapped HDC module is
//! pinned byte-exact at two queries — the query body partially
//! evaluated into scope ops and fused searches — and at one query,
//! where it stays the loop nest the module spelled and keeps its
//! shard-loop candidates. A change to the tape passes, the ISA's
//! textual form or the mapping shows up here as a reviewable diff.
//!
//! Regenerate the fixtures after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test tape_golden
//! ```

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

/// 4 classes x 64 dimensions on 16 x 16 subarrays: four column chunks
/// in a (2, 2, 4) hierarchy, so twelve of its sixteen slots are empty.
fn hdc_tape(queries: i64) -> Tape {
    let mut m = Module::new();
    torch::build_hdc_dot(&mut m, queries, 4, 64, 1);
    let spec = build_arch((16, 16), (2, 2, 4), Optimization::Base, 1).unwrap();
    let lowered = C4camPipeline::new(spec).compile(m).unwrap();
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
    let tape = hdc_tape(2);
    assert_eq!(tape.specialised(), Ok(()));
    assert_matches_golden(&tape, "hdc_2q.tape");
}

#[test]
fn one_query_hdc_tape_keeps_its_loops_and_shard_candidates() {
    let tape = hdc_tape(1);
    assert_eq!(tape.specialised(), Err(Unspecialised::FewQueries));
    assert!(!tape.shard_loops().is_empty());
    assert_matches_golden(&tape, "hdc_1q.tape");
}
