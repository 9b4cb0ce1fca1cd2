//! `SessionStep::resident_bytes` checked against a counting allocator.
//!
//! The estimate is documented as a lower bound: it counts the session
//! struct, the session's own flat buffers and a per-entry charge for the
//! metrics maps, and leaves out the heap owned by the composed state
//! (protocol queues, channel buffers) and the metrics' B-tree nodes.
//! This test pins that description on one lean session of each classic
//! protocol (fleet seed 13, default faults, monitors off and on): the
//! estimates never exceed the bytes the session holds, and what they
//! leave out stays a bounded remainder.
//!
//! Measured: 4.4–4.8 kB held against a 3.4–3.8 kB `resident_bytes`, a
//! remainder of 936–1040 bytes. Dropping the session's parts one by one
//! splits it into ≈320–430 bytes of composed-state buffers (emptied
//! queues keep their capacity) and ≈680 bytes of `Metrics` heap, of
//! which the estimate charges only the live entries. The stations step
//! their queues in place, so those keep their capacity too: that is
//! 70–90 bytes more than when each step cloned the station state, whose
//! clones were sized to their contents. With the monitor on, its
//! `monitor_bytes` estimate is added and the remainder is 936–1220 bytes.
//!
//! "Held" is the live heap (allocated minus freed bytes) that building
//! and running the session leaves behind on the measuring thread. The
//! session is boxed so its struct is part of that heap, like the
//! `size_of::<Self>()` term of the estimate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dl_channels::FaultyChannel;
use dl_core::action::{Dir, DlAction};
use dl_core::protocol::DataLinkProtocol;
use dl_fleet::{fleet_policy, session_config, FleetSpec, ProtocolKind};
use dl_protocols::{
    abp, fragmenting, nonvolatile, parity, quirky, selective_repeat, sliding_window, stenning,
};
use dl_sim::{link_system, Runner, SessionStep};
use ioa::automaton::Automaton;

/// Tracks live bytes (allocations minus deallocations) made on an
/// *armed* thread, so sibling tests never land in a measurement.
struct LiveBytes;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with`: the thread-locals may already be gone while a thread
    // tears down.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|n| n.set(n.get() + delta));
    }
}

fn size(n: usize) -> i64 {
    i64::try_from(n).expect("allocation size fits i64")
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(size(layout.size()));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-size(layout.size()));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(size(new_size) - size(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(size(layout.size()));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Runs `f` with tracking armed on the calling thread; returns its result
/// and the live bytes it left behind.
fn live_after<T>(f: impl FnOnce() -> T) -> (T, i64) {
    LIVE.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LIVE.with(Cell::get))
}

/// Builds and runs session `id` the way the fleet builds a lean session;
/// returns the bytes it holds and its two estimates (core, monitor). The
/// system is built first, apart: its own heap is configuration, not
/// session state.
fn measure<T, R>(protocol: DataLinkProtocol<T, R>, spec: &FleetSpec, id: u64) -> (i64, i64, i64)
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let cfg = session_config(spec, id);
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        FaultyChannel::new(Dir::TR, cfg.faults[0]),
        FaultyChannel::new(Dir::RT, cfg.faults[1]),
    );
    let (session, held) = live_after(|| {
        let mut runner = Runner::new(cfg.seed, spec.max_steps);
        if spec.monitor {
            runner = runner.with_online_conformance(fleet_policy());
        }
        let mut session = Box::new(SessionStep::lean(runner, system, cfg.script.clone()));
        session.run_to_end();
        session
    });
    let estimate = |bytes: u64| i64::try_from(bytes).expect("estimate fits i64");
    (
        held,
        estimate(session.resident_bytes()),
        estimate(session.monitor_bytes()),
    )
}

#[test]
fn resident_bytes_is_a_lower_bound_with_a_bounded_remainder() {
    for monitor in [false, true] {
        let spec = FleetSpec {
            seed: 13,
            monitor,
            ..FleetSpec::default()
        };
        for id in 0..ProtocolKind::CLASSIC.len() as u64 {
            let kind = session_config(&spec, id).protocol;
            let (held, resident, monitor_bytes) = match kind {
                ProtocolKind::Abp => measure(abp::protocol(), &spec, id),
                ProtocolKind::GoBack2 => measure(sliding_window::protocol(2), &spec, id),
                ProtocolKind::GoBack8 => measure(sliding_window::protocol(8), &spec, id),
                ProtocolKind::SelectiveRepeat4 => measure(selective_repeat::protocol(4), &spec, id),
                ProtocolKind::Fragmenting => measure(fragmenting::protocol(), &spec, id),
                ProtocolKind::Parity => measure(parity::protocol(), &spec, id),
                ProtocolKind::Stenning => measure(stenning::protocol(), &spec, id),
                ProtocolKind::Nonvolatile => measure(nonvolatile::protocol(), &spec, id),
                ProtocolKind::Quirky => measure(quirky::protocol(), &spec, id),
                ProtocolKind::Stabilizing => unreachable!("not in the classic mix"),
            };
            let uncounted = held - resident - monitor_bytes;
            eprintln!(
                "{kind:?} (monitor {monitor}): held {held}, resident_bytes {resident}, \
                 monitor_bytes {monitor_bytes}, uncounted {uncounted}"
            );
            assert!(
                uncounted > 0,
                "{kind:?}: the estimates ({resident} + {monitor_bytes}) claim more than the \
                 {held} bytes the session holds"
            );
            assert!(
                uncounted < UNCOUNTED_CEILING,
                "{kind:?}: {uncounted} of {held} held bytes are missing from the estimates \
                 ({resident} + {monitor_bytes}); at most 1132 were when this was pinned"
            );
        }
    }
}

/// About 1.4× the largest measured remainder (1220 bytes, see the module
/// docs).
const UNCOUNTED_CEILING: i64 = 1700;
