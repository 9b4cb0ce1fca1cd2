//! Allocation-regression smoke for the interned execution core.
//!
//! One fuzz exec used to clone the full enabled-action set, a per-class
//! filter vector, and the full successor list on **every step** — tens of
//! allocations per step, hundreds of thousands per exec. The scratch-
//! buffer runner removed the buffers; stepping in place
//! (`Automaton::step_in_place`) removed the successor list and the
//! by-value rebuild of every component state. What remains is the
//! unavoidable residue: the one clone of the recorded frontier state,
//! the station state that moves, channel and execution `Vec` growth, and
//! the report's output vectors. This test pins that residue with a
//! counting global allocator so a future change that quietly
//! reintroduces per-step cloning fails loudly here rather than as a
//! silent throughput loss in the benches.
//!
//! The ceiling is ~1.5× current measurements so it only trips on
//! asymptotic regressions, not allocator or libstd noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dl_fuzz::{ExecConfig, Gene, Genome};

/// Counts every allocation (and growth reallocation) made on an *armed*
/// thread; frees are not interesting for a regression bound. Arming is
/// per thread, so allocations of sibling tests running concurrently in
/// this binary never land in a measurement.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the thread-locals may already be gone while a thread
    // tears down.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with counting armed on the calling thread; returns its result
/// and the number of allocations it made on this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get))
}

fn allocs_for_one_exec(target_name: &str, genome: &Genome, cfg: &ExecConfig) -> (u64, usize) {
    let t = dl_fuzz::target(target_name).expect("known target");
    // Warm up once so lazily-initialized runtime state (thread-locals,
    // hasher seeds) is excluded from the measurement.
    let _ = (t.run)(genome, cfg);
    let (outcome, allocs) = counting(|| (t.run)(genome, cfg));
    (allocs, outcome.steps)
}

#[test]
fn fuzz_exec_allocations_stay_bounded() {
    // A busy but realistic genome: several messages, a crash, lossy
    // duplicating media — enough work to reach the 800-step default
    // budget's neighborhood on the chattier protocols.
    let genome = Genome {
        seed: 0xFEED_F00D,
        genes: vec![
            Gene::Send,
            Gene::Send,
            Gene::Send,
            Gene::Send,
            Gene::Steps(120),
            Gene::Crash(dl_core::action::Station::T),
            Gene::Send,
            Gene::Send,
            Gene::Send,
            Gene::Steps(200),
        ],
    };
    let cfg = ExecConfig::default();

    // Measured with in-place stepping down to the stations (debug and
    // release alike): abp 361 allocations over 74 steps; go-back-8 2_948
    // and selective-repeat-4 2_979 over the full 800-step budget —
    // 3.7–4.9 per step. Ceilings sit under 10 % above. Stations that
    // rebuilt their state by value made 420, 3_548 and 3_594; the
    // clone-and-pick runner before that, 720, 9_667 and 9_722.
    for (name, ceiling) in [
        ("abp", 395u64),
        ("go-back-8", 3_240),
        ("selective-repeat-4", 3_270),
    ] {
        let (allocs, steps) = allocs_for_one_exec(name, &genome, &cfg);
        eprintln!("{name}: {allocs} allocations over {steps} steps");
        assert!(
            steps > 50,
            "{name}: exec too short ({steps} steps) to be meaningful"
        );
        assert!(
            allocs < ceiling,
            "{name}: {allocs} allocations in one exec ({steps} steps) — \
             above the pinned ceiling {ceiling}; did per-step cloning sneak \
             back into the runner?"
        );
        // Also bound the per-step rate: the clone-based executor sat at
        // dozens per step, the in-place core at about four.
        let per_step = allocs as f64 / steps as f64;
        assert!(
            per_step < 5.3,
            "{name}: {per_step:.1} allocations per step ({allocs}/{steps})"
        );
    }
}
