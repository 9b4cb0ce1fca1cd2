//! Allocation-ceiling smoke for the explorer's expansion loop.
//!
//! Workers expand every edge in place: one scratch copy of the parent is
//! stepped by `step_in_place`, probed against the store and the
//! preallocated `LayerFilter` as a borrowed state (the packed backend
//! encodes into one reused buffer), and put back by `restore`. An owned
//! representation is built only for a state the filter publishes or
//! overflows. This test pins that steady state with a counting global
//! allocator, on both storage backends, so a change that quietly
//! reintroduces per-edge cloning (or per-candidate boxing on the packed
//! path) fails loudly here rather than as a silent throughput loss in
//! `explore/deep`.
//!
//! Measured on the current engine (debug and release alike, E9 at
//! channel capacity 2, 594 states / 3042 edges, one worker): plain
//! 15,569 allocations (~26 per state, ~5.1 per edge), packed 16,265
//! (~5.3 per edge). What remains per edge is mostly the ABP stations'
//! own steps, which build the station's successor by value, and the
//! observer's set nodes; per state, the admitted representation, the
//! frontier state's scratch copy and, on the packed backend, its decode.
//! The ceilings and the per-edge bound (8.0) are ~1.5× those
//! measurements, so only asymptotic regressions trip them, not
//! allocator or libstd noise: an expansion that builds each composed
//! successor by value and boxes each packed candidate measures 8.5
//! (plain) and 12.7 (packed) per edge here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dl_channels::{LossMode, LossyFifoChannel};
use dl_core::action::{Dir, DlAction, Msg};
use dl_core::observer::{ObserverState, WdlObserver};
use dl_explore::ParallelExplorer;
use ioa::composition::Compose2;
use ioa::Automaton;

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

type Sys = Compose2<
    Compose2<dl_protocols::AbpTransmitter, dl_protocols::AbpReceiver>,
    Compose2<Compose2<LossyFifoChannel, LossyFifoChannel>, WdlObserver>,
>;

type SysState = <Sys as Automaton>::State;

/// E9 at channel capacity 2 — the published model one notch smaller, so
/// a debug-build measurement stays fast while still exercising real
/// heap-carrying states (channel `VecDeque`s, observer sets).
fn small_e9() -> Sys {
    let p = dl_protocols::abp::protocol();
    Compose2::new(
        Compose2::new(p.transmitter, p.receiver),
        Compose2::new(
            Compose2::new(
                LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, 2),
                LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 2),
            ),
            WdlObserver,
        ),
    )
}

fn observer_of(s: &SysState) -> &ObserverState {
    &s.right.right
}

fn inputs(s: &SysState) -> Vec<DlAction> {
    let obs = observer_of(s);
    (0..2u64)
        .map(Msg)
        .find(|m| !obs.sent.contains(m))
        .map(DlAction::SendMsg)
        .into_iter()
        .collect()
}

fn woken_start(sys: &Sys) -> SysState {
    let s0 = sys.start_states().remove(0);
    let s1 = sys.step_first(&s0, &DlAction::Wake(Dir::TR)).unwrap();
    sys.step_first(&s1, &DlAction::Wake(Dir::RT)).unwrap()
}

/// Runs one full single-worker exploration and returns its allocation
/// count plus the (states, edges) it visited, with a warm-up run first
/// so lazily-initialized runtime state is excluded.
fn allocs_for_one_run(packed: bool) -> (u64, usize, u64) {
    let sys = small_e9();
    let start = woken_start(&sys);
    let explore = |start: SysState| {
        let e = ParallelExplorer::new(&sys, inputs, 100_000, 10_000).threads(1);
        if packed {
            e.packed()
                .check_invariant_from(vec![start], |s| observer_of(s).is_safe())
        } else {
            e.check_invariant_from(vec![start], |s| observer_of(s).is_safe())
        }
    };
    let _ = explore(start.clone());
    let (report, allocs) = counting(|| explore(start));
    assert!(report.holds(), "ABP must be safe crash-free");
    (allocs, report.states_visited, report.edges_expanded())
}

#[test]
fn visited_set_allocations_stay_bounded() {
    for (name, packed, ceiling) in [("plain", false, 23_500u64), ("packed", true, 24_500u64)] {
        let (allocs, states, edges) = allocs_for_one_run(packed);
        eprintln!("{name}: {allocs} allocations over {states} states / {edges} edges");
        assert_eq!(states, 594, "{name}: capacity-2 E9 state count moved");
        assert!(
            allocs < ceiling,
            "{name}: {allocs} allocations in one exploration ({states} states, \
             {edges} edges) — above the pinned ceiling {ceiling}; did per-edge \
             cloning sneak back into the visited set?"
        );
        // Also bound the per-edge rate: an expansion that clones the
        // composed successor or boxes every candidate sits above 8.
        let per_edge = allocs as f64 / edges as f64;
        assert!(
            per_edge < 8.0,
            "{name}: {per_edge:.1} allocations per expanded edge ({allocs}/{edges})"
        );
    }
}
