//! `explore-deep`: the E15 system (ABP over capacity-bounded lossy FIFO
//! channels plus the WDL observer) on the packed backend at two threads.
//!
//! The untraced pass is `dl_bench::ledger_runs::explore_deep_n`, the
//! workload function behind the `explore/deep` ledger run. The traced
//! pass builds the same system with every component in a [`Timed`]
//! wrapper and must reproduce every count the untraced pass reports.

use std::time::SystemTime;

use dl_bench::ledger_runs::explore_deep_n;
use dl_channels::{LossMode, LossyFifoChannel};
use dl_core::action::{Dir, DlAction, Msg};
use dl_core::observer::{ObserverState, WdlObserver};
use dl_explore::ParallelExplorer;
use dl_obs::RunLedger;
use ioa::{Automaton, Compose2};

use crate::report::{self, median, Checks, Metrics};
use crate::timed::{self, Event, Layer, Timed};
use crate::Run;

/// Worker threads for both passes.
pub const THREADS: usize = 2;
const MAX_STATES: usize = 16_000_000;
const MAX_DEPTH: usize = 100_000;

/// One point of the E15 family with its pinned answers.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Channel capacity.
    pub cap: usize,
    /// Message alphabet size.
    pub msgs: u64,
    /// Reachable states.
    pub states: u64,
    /// Transitions enumerated.
    pub edges: u64,
    /// BFS layers expanded.
    pub layers: u64,
}

/// The measured point: about 3 s per verdict at two threads.
pub const FULL: Point = Point {
    cap: 5,
    msgs: 12,
    states: 348_147,
    edges: 2_348_891,
    layers: 96,
};

/// The smoke-test point (the E9 model).
pub const SMOKE: Point = Point {
    cap: 3,
    msgs: 2,
    states: 1_178,
    edges: 6_267,
    layers: 28,
};

type TracedSys = Timed<
    Compose2<
        Compose2<Timed<dl_protocols::AbpTransmitter>, Timed<dl_protocols::AbpReceiver>>,
        Compose2<Compose2<Timed<LossyFifoChannel>, Timed<LossyFifoChannel>>, Timed<WdlObserver>>,
    >,
>;
type State = <TracedSys as Automaton>::State;

/// The E15 system with each component charged to its layer.
fn traced_system(cap: usize) -> TracedSys {
    let p = dl_protocols::abp::protocol();
    let channel = |dir| {
        Timed::new(
            LossyFifoChannel::with_capacity(dir, LossMode::Nondet, cap),
            Layer::Channel,
        )
    };
    Timed::new(
        Compose2::new(
            Compose2::new(
                Timed::new(p.transmitter, Layer::Protocol),
                Timed::new(p.receiver, Layer::Protocol),
            ),
            Compose2::new(
                Compose2::new(channel(Dir::TR), channel(Dir::RT)),
                Timed::new(WdlObserver, Layer::Observer),
            ),
        ),
        Layer::Compose,
    )
}

fn observer(s: &State) -> &ObserverState {
    &s.right.right
}

/// The start state with both media woken, as `explore_deep_n` builds it.
fn woken(sys: &TracedSys) -> State {
    let s0 = sys.start_states().remove(0);
    let s1 = sys
        .step_first(&s0, &DlAction::Wake(Dir::TR))
        .expect("wake t is an input");
    sys.step_first(&s1, &DlAction::Wake(Dir::RT))
        .expect("wake r is an input")
}

/// The untraced verdict, checked against the pins.
fn untraced(point: Point, checks: &mut Checks) -> (f64, RunLedger) {
    let (secs, ledger) = report::time(|| {
        std::panic::catch_unwind(|| explore_deep_n(point.cap, point.msgs, 0, THREADS, 0))
    });
    let ledger = ledger.unwrap_or_else(|_| {
        checks.expect("explore_deep_n completed", false, true);
        RunLedger::new("explore", "deep")
    });
    let c = |k: &str| ledger.counters.get(k).copied().unwrap_or(u64::MAX);
    checks.expect("holds", c("violation") == 0 && c("truncated") == 0, true);
    checks.expect("states", c("states"), point.states);
    checks.expect("edges", c("edges"), point.edges);
    checks.expect("layers", c("layers"), point.layers);
    (secs, ledger)
}

/// Per-layer figures of one traced verdict.
struct Traced {
    wall_s: f64,
    cpu_s: f64,
    totals: timed::Totals,
    barrier_s: f64,
}

/// One traced verdict; every count must equal the untraced ledger's.
fn traced(point: Point, untraced: &RunLedger, checks: &mut Checks) -> Traced {
    let sys = traced_system(point.cap);
    let start = woken(&sys);
    let msgs = point.msgs;
    let inputs = move |s: &State| {
        timed::timed(Layer::Observer, Event::Expansion, || {
            let obs = observer(s);
            (0..msgs)
                .map(Msg)
                .find(|m| !obs.sent.contains(m))
                .map(DlAction::SendMsg)
                .into_iter()
                .collect()
        })
    };
    let explorer = ParallelExplorer::new(&sys, inputs, MAX_STATES, MAX_DEPTH)
        .threads(THREADS)
        .packed();
    timed::reset();
    let cpu0 = report::process_cpu_s();
    let (wall_s, rep) = report::time(|| {
        explorer.check_invariant_from(vec![start], |s| {
            timed::timed(Layer::Observer, Event::Other, || observer(s).is_safe())
        })
    });
    let cpu_s = report::process_cpu_s() - cpu0;
    let totals = timed::take_totals();
    let ledger = rep.to_ledger("deep");
    for key in [
        "states",
        "edges",
        "dedup_hits",
        "layers",
        "truncated",
        "violation",
        "arena_bytes",
        "quiescent_states",
    ] {
        checks.expect(
            &format!("traced {key} equals untraced"),
            ledger.counters.get(key),
            untraced.counters.get(key),
        );
    }
    Traced {
        wall_s,
        cpu_s,
        totals,
        barrier_s: rep.barrier_nanos as f64 * 1e-9,
    }
}

/// One end-to-end verdict (in a fresh process): the wall clock at the
/// engine call, the verdict seconds and the answers, for comparison
/// across processes.
pub fn verdict(point: Point, checks: &mut Checks) -> (SystemTime, f64, String) {
    let at = SystemTime::now();
    let (secs, ledger) = untraced(point, checks);
    let c = |k: &str| ledger.counters.get(k).copied().unwrap_or(0);
    let answers = format!(
        "states={} edges={} layers={} dedup={} violation={} truncated={}",
        c("states"),
        c("edges"),
        c("layers"),
        c("dedup_hits"),
        c("violation"),
        c("truncated")
    );
    (at, secs, answers)
}

/// The traced run: alternating untraced and traced verdicts for
/// `run.seconds`, reported as per-layer medians.
pub fn traced_run(run: &Run, point: Point, checks: &mut Checks) -> Metrics {
    let mut m = Metrics::default();
    let mut plain = Vec::new();
    let mut runs = Vec::new();
    let mut last = RunLedger::new("explore", "deep");
    report::repeat(run.seconds, || {
        let (secs, ledger) = untraced(point, checks);
        plain.push(secs);
        runs.push(traced(point, &ledger, checks));
        last = ledger;
    });
    let med = |f: &dyn Fn(&Traced) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let t = |l: Layer| move |r: &Traced| r.totals.secs(l);
    let attributed = |r: &Traced| {
        r.totals.system_nanos() as f64 * 1e-9 + r.totals.admit_nanos as f64 * 1e-9 + r.barrier_s
    };
    let c = |k: &str| last.counters.get(k).copied().unwrap_or(0) as f64;
    let calls = |l: Layer| runs[0].totals.calls(l) as f64;

    m.push("protocols.transition_s", med(&t(Layer::Protocol)), "s");
    m.push(
        "protocols.transition_calls",
        calls(Layer::Protocol),
        "count",
    );
    m.push("channels.step_s", med(&t(Layer::Channel)), "s");
    m.push("channels.step_calls", calls(Layer::Channel), "count");
    m.push("ioa.compose_s", med(&t(Layer::Compose)), "s");
    m.push("core.observer_s", med(&t(Layer::Observer)), "s");
    m.push("explore.barrier_s", med(&|r| r.barrier_s), "s");
    m.push(
        "explore.admit_s",
        med(&|r| r.totals.admit_nanos as f64 * 1e-9),
        "s",
    );
    m.push("explore.states", c("states"), "count");
    m.push("explore.edges", c("edges"), "count");
    m.push(
        "explore.dedup_ratio",
        c("dedup_hits") / c("edges").max(1.0),
        "ratio",
    );
    m.push("explore.arena_bytes", c("arena_bytes"), "bytes");
    m.push(
        "trace.overhead_ratio",
        med(&|r| r.wall_s) / median(&plain),
        "ratio",
    );
    m.push(
        "trace.unattributed_share",
        med(&|r| 1.0 - attributed(r) / r.cpu_s.max(1e-9)),
        "ratio",
    );
    m
}
