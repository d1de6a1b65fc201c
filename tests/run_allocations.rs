//! A steady-state run reads its inputs and does not copy them.
//!
//! This binary installs a counting global allocator (bytes requested,
//! counted per thread, so the harness's own threads do not show) and
//! holds one `CompiledExperiment::run()` of the `knn-scan` geometry —
//! 1024 × 4096 stored patterns at 2 bits per cell — to less than one
//! stored tensor of allocation. A run that clones the stored tensor
//! (into its arguments, the VM's slots, or the golden model's views)
//! allocates 16 MB per clone.
//!
//! It also counts allocation calls, and holds a steady run of the
//! `hdc-dispatch` geometry to as many at 4 096 queries as at 1 024:
//! nothing a run does per query or per search allocates.

use c4cam::driver::{build_arch, paper_arch, Experiment};
use c4cam::workloads::{HdcWorkload, KnnWorkload};
use c4cam_arch::Optimization;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) `f` makes.
fn allocations_by(f: impl FnOnce()) -> usize {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

#[test]
fn a_steady_hdc_run_allocates_as_often_at_any_query_count() {
    let spec = build_arch((16, 16), (2, 2, 4), Optimization::Base, 1).expect("valid");
    let calls = [1024, 4096].map(|queries| {
        let workload = HdcWorkload {
            classes: 8,
            dims: 256,
            queries,
            flip_rate: 0.1,
            seed: 7,
        };
        let compiled = Experiment::new(&workload)
            .arch(spec.clone())
            .backend("tape")
            .threads(1)
            .compile()
            .expect("hdc compiles");
        compiled.run().expect("first run");
        allocations_by(|| {
            compiled.run().expect("steady run");
        })
    });
    assert_eq!(
        calls[0], calls[1],
        "allocation calls at 1024 and 4096 queries"
    );
}

#[test]
fn a_steady_knn_run_allocates_less_than_its_stored_tensor() {
    let workload = KnnWorkload {
        patterns: 1024,
        dims: 4096,
        queries: 4,
        k: 5,
        noise: 0.2,
        seed: 1,
    };
    let compiled = Experiment::new(&workload)
        .arch(paper_arch(128, Optimization::Base, 2))
        .backend("tape")
        .threads(1)
        .compile()
        .expect("knn compiles");
    let stored_bytes = 1024 * 4096 * std::mem::size_of::<f32>();
    // The first run warms what a plan keeps between runs.
    let first = compiled.run().expect("first run");
    let mut second = None;
    let bytes = allocated_by(|| second = Some(compiled.run().expect("steady run")));
    assert_eq!(second.expect("ran").predictions, first.predictions);
    assert!(
        bytes < stored_bytes,
        "a steady run allocated {bytes} B, the stored tensor is {stored_bytes} B"
    );
}
