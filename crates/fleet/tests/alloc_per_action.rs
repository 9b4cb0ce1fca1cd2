//! Allocation pins for lean fleet sessions.
//!
//! A lean session keeps one composed state and steps it in place: the
//! runner hands the one chosen successor to `Automaton::step_in_place`,
//! and every component mutates its own state in place. On the classic fleet
//! below (seed 13, 180 monitored classic-nine sessions, 20,573 actions)
//! that is 12,674 allocations, 0.62 per action: a station or channel
//! queue growing, the monitor's tables growing with fresh packet values.
//! When the protocol stations still rebuilt their state by value on each
//! step it was 28,713 (1.40 per action), and the clone-based stepping
//! path before that made 142,815, 6.94 per action.
//!
//! Stabilizing sessions (seed 14, 200 fully corrupted sessions, 22,118
//! actions) make 3,917 allocations, 0.18 per action, suffix monitor
//! included. When they recorded their execution for a teardown rescan it
//! was 76,634.
//!
//! The pins count only the stepping loop (`advance_batch`), not session
//! construction or teardown, with a counting global allocator armed on
//! the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dl_fleet::{build_session, session_config, FleetSpec, ProtocolKind};

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

/// Steps every session of `spec` to its end through the fleet's own
/// `build_session`/`advance_batch`; returns `(allocations, actions)` of
/// the stepping loop alone.
fn stepping_allocations(spec: &FleetSpec) -> (u64, u64) {
    let (mut allocs, mut actions) = (0u64, 0u64);
    for id in 0..spec.sessions {
        let cfg = session_config(spec, id);
        let mut session = build_session(&cfg, spec);
        let (taken, n) = counting(|| session.advance_batch(usize::MAX));
        assert!(session.is_done());
        actions += taken as u64;
        allocs += n;
    }
    assert!(
        actions > 10_000,
        "fleet too small to be meaningful: {actions} actions"
    );
    (allocs, actions)
}

#[test]
fn lean_session_allocations_per_action_stay_bounded() {
    // The default fleet: classic-nine mix, monitors on, crashes and
    // faults at their default densities; 180 sessions = 20 per protocol.
    let spec = FleetSpec {
        seed: 13,
        sessions: 180,
        ..FleetSpec::default()
    };
    let (allocs, actions) = stepping_allocations(&spec);
    let per_action = allocs as f64 / actions as f64;
    eprintln!("lean fleet sessions: {allocs} allocations over {actions} actions ({per_action:.2} per action)");
    assert!(
        per_action < CEILING,
        "{per_action:.2} allocations per action ({allocs}/{actions}) — above the pinned \
         ceiling {CEILING}; is the runner rebuilding the composed state again?"
    );
}

#[test]
fn stabilizing_session_allocations_stay_bounded() {
    // Fully corrupted stabilizing sessions: the suffix monitor observes
    // every behavior action as the session steps.
    let spec = FleetSpec {
        seed: 14,
        sessions: 200,
        protocols: vec![ProtocolKind::Stabilizing],
        corruption_per256: 255,
        ..FleetSpec::default()
    };
    let (allocs, actions) = stepping_allocations(&spec);
    eprintln!("stabilizing sessions: {allocs} allocations over {actions} actions");
    assert!(
        allocs < STABILIZING_CEILING,
        "{allocs} allocations over {actions} stabilizing actions — above the pinned \
         ceiling {STABILIZING_CEILING}"
    );
}

/// Under 10 % above the measured 0.62 (see the module docs).
const CEILING: f64 = 0.67;

/// Under 10 % above the measured 3,917 (see the module docs).
const STABILIZING_CEILING: u64 = 4_300;
