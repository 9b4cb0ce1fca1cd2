//! Soak tests: the full protocol zoo under the canned fault scenarios,
//! with specification checks *and* liveness patience monitors on every
//! run.

use datalink::channels::{LossMode, LossyFifoChannel};
use datalink::core::action::{Dir, DlAction};
use datalink::core::spec::datalink::DlModule;
use datalink::core::spec::liveness::{dl8_monitor, pl6_monitor};
use datalink::ioa::schedule_module::{ScheduleModule, TraceKind};
use datalink::ioa::Automaton;
use datalink::sim::{link_system, Metrics, Runner, Scenario, Script};

/// Exercises one protocol under the crash-free soak suite across several
/// loss modes and seeds.
fn soak<T, R>(make: impl Fn() -> (T, R), name: &str)
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    for scenario in Scenario::soak_suite() {
        for (mode, seed) in [
            (LossMode::None, 1u64),
            (LossMode::EveryNth(3), 2),
            (LossMode::Nondet, 3),
        ] {
            let (tx, rx) = make();
            let sys = link_system(
                tx,
                rx,
                LossyFifoChannel::new(Dir::TR, mode),
                LossyFifoChannel::new(Dir::RT, mode),
            );
            let mut runner = Runner::new(seed, 3_000_000);
            let report = runner.run(&sys, &scenario.script());
            let label = format!("{name} / {scenario:?} / {mode:?}");
            assert!(report.quiescent, "{label}: did not quiesce");
            assert_eq!(
                report.metrics.msgs_received,
                scenario.total_msgs(),
                "{label}: lost messages"
            );
            let v = DlModule::full().check(&report.behavior, TraceKind::Complete);
            assert!(v.is_allowed(), "{label}: {v}");
            // Patience monitors on the final trace: generous patience so a
            // correct-but-chatty protocol never trips them.
            let patience = report.metrics.steps as usize + 1;
            assert!(
                dl8_monitor(&report.behavior, patience).is_none(),
                "{label}: DL8 monitor tripped"
            );
            let sched = report.schedule();
            for dir in Dir::BOTH {
                // With ≤50% loss and FIFO channels, 200 consecutive
                // undelivered sends would indicate a livelock.
                assert!(
                    pl6_monitor(&sched, dir, 200).is_none(),
                    "{label}: PL6 monitor tripped on {dir}"
                );
            }
        }
    }
}

#[test]
fn soak_abp() {
    soak(
        || {
            let p = datalink::protocols::abp::protocol();
            (p.transmitter, p.receiver)
        },
        "abp",
    );
}

#[test]
fn soak_go_back_n() {
    for w in [2, 5] {
        soak(
            || {
                let p = datalink::protocols::sliding_window::protocol(w);
                (p.transmitter, p.receiver)
            },
            &format!("go-back-{w}"),
        );
    }
}

#[test]
fn soak_selective_repeat() {
    for w in [2, 4] {
        soak(
            || {
                let p = datalink::protocols::selective_repeat::protocol(w);
                (p.transmitter, p.receiver)
            },
            &format!("selective-repeat-{w}"),
        );
    }
}

#[test]
fn soak_fragmenting() {
    soak(
        || {
            let p = datalink::protocols::fragmenting::protocol();
            (p.transmitter, p.receiver)
        },
        "fragmenting",
    );
}

#[test]
fn soak_parity() {
    soak(
        || {
            let p = datalink::protocols::parity::protocol();
            (p.transmitter, p.receiver)
        },
        "parity",
    );
}

#[test]
fn soak_stenning() {
    soak(
        || {
            let p = datalink::protocols::stenning::protocol();
            (p.transmitter, p.receiver)
        },
        "stenning",
    );
}

#[test]
fn soak_nonvolatile() {
    soak(
        || {
            let p = datalink::protocols::nonvolatile::protocol();
            (p.transmitter, p.receiver)
        },
        "nonvolatile",
    );
}

#[test]
fn nonvolatile_survives_the_crash_storm_scenario() {
    // The only protocol for which the CrashStorm scenario must be safe.
    let scenario = Scenario::CrashStorm {
        burst: 3,
        crashes: 5,
    };
    for seed in 0..4 {
        let p = datalink::protocols::nonvolatile::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::new(Dir::TR, LossMode::EveryNth(4)),
            LossyFifoChannel::new(Dir::RT, LossMode::EveryNth(4)),
        );
        let mut runner = Runner::new(seed, 3_000_000);
        let report = runner.run(&sys, &scenario.script());
        assert!(report.quiescent);
        assert_eq!(report.metrics.msgs_received, scenario.total_msgs());
        let v = DlModule::weak().check(&report.behavior, TraceKind::Prefix);
        assert!(v.is_allowed(), "seed {seed}: {v}");
    }

    // EXPERIMENTS E8: storms of 0/2/8/32 alternating station crashes, 4
    // messages per burst, every fifth packet lost, seed 3 — every
    // message sent is delivered, and the step counts are pinned.
    for (crashes, msgs, steps) in [(0, 4, 43), (2, 12, 127), (8, 36, 381), (32, 132, 1_399)] {
        let scenario = Scenario::CrashStorm { burst: 4, crashes };
        let p = datalink::protocols::nonvolatile::protocol();
        let (metrics, behavior) = run_over(
            p.transmitter,
            p.receiver,
            LossMode::EveryNth(5),
            &scenario.script(),
            3,
        );
        assert_eq!(
            (metrics.msgs_sent, metrics.msgs_received),
            (msgs, msgs),
            "{crashes} crashes"
        );
        assert_eq!(metrics.steps, steps, "{crashes} crashes");
        let v = DlModule::weak().check(&behavior, TraceKind::Prefix);
        assert!(v.is_allowed(), "{crashes} crashes: {v}");
    }
}

#[test]
fn latency_grows_with_loss() {
    // Sanity for the latency metric: a lossier link raises mean latency.
    let run = |mode: LossMode| {
        let p = datalink::protocols::abp::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::new(Dir::TR, mode),
            LossyFifoChannel::new(Dir::RT, mode),
        );
        let mut runner = Runner::new(9, 3_000_000);
        let report = runner.run(&sys, &Scenario::SteadyStream { msgs: 20 }.script());
        report.metrics.mean_latency().expect("messages delivered")
    };
    let clean = run(LossMode::None);
    let lossy = run(LossMode::Nondet);
    assert!(
        lossy > clean,
        "expected higher latency under loss: {lossy} vs {clean}"
    );
}

/// Runs `tx`/`rx` over a symmetric pair of lossy FIFO channels under
/// `script`, asserts the run quiesced, and returns its metrics and
/// behavior.
fn run_over<T, R>(
    tx: T,
    rx: R,
    mode: LossMode,
    script: &Script,
    seed: u64,
) -> (Metrics, Vec<DlAction>)
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let sys = link_system(
        tx,
        rx,
        LossyFifoChannel::new(Dir::TR, mode),
        LossyFifoChannel::new(Dir::RT, mode),
    );
    let report = Runner::new(seed, 3_000_000).run(&sys, script);
    assert!(report.quiescent, "run did not quiesce");
    (report.metrics, report.behavior)
}

/// EXPERIMENTS E2: sliding-window(4) behaviors over perfect channels
/// have exactly `2n + 2` events and satisfy full `DL`.
#[test]
fn e2_sliding_window_behaviors_satisfy_dl() {
    for (n, events) in [(10u64, 22usize), (100, 202), (1_000, 2_002)] {
        let p = datalink::protocols::sliding_window::protocol(4);
        let (_, behavior) = run_over(
            p.transmitter,
            p.receiver,
            LossMode::None,
            &Script::deliver_n(n),
            3,
        );
        assert_eq!(behavior.len(), events, "{n} messages");
        let v = DlModule::full().check(&behavior, TraceKind::Complete);
        assert!(v.is_allowed(), "{n} messages: {v}");
    }
}

/// One row of EXPERIMENTS E3: data packets sent to deliver 20 messages
/// (seed 7) over lossless, `EveryNth(4)` and `Nondet` channels — the
/// published overhead times 20. Every cell delivers every message and
/// satisfies full `DL`.
fn e3_row<T, R>(make: impl Fn() -> (T, R), name: &str, data_packets: [u64; 3])
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let modes = [LossMode::None, LossMode::EveryNth(4), LossMode::Nondet];
    for (mode, want) in modes.into_iter().zip(data_packets) {
        let (tx, rx) = make();
        let (metrics, behavior) = run_over(tx, rx, mode, &Script::deliver_n(20), 7);
        let label = format!("{name} / {mode:?}");
        assert_eq!(metrics.msgs_received, 20, "{label}: lost messages");
        assert_eq!(metrics.pkts_sent[0], want, "{label}: data packets");
        let v = DlModule::full().check(&behavior, TraceKind::Complete);
        assert!(v.is_allowed(), "{label}: {v}");
    }
}

#[test]
fn e3_arq_overhead_table() {
    use datalink::protocols::{abp, selective_repeat, sliding_window, stenning};
    e3_row(
        || {
            let p = abp::protocol();
            (p.transmitter, p.receiver)
        },
        "abp",
        [40, 52, 101],
    );
    for (w, packets) in [(2, [37, 66, 73]), (4, [51, 114, 137]), (8, [99, 146, 198])] {
        e3_row(
            || {
                let p = sliding_window::protocol(w);
                (p.transmitter, p.receiver)
            },
            &format!("go-back-{w}"),
            packets,
        );
    }
    for (w, packets) in [(2, [35, 36, 75]), (4, [27, 34, 48])] {
        e3_row(
            || {
                let p = selective_repeat::protocol(w);
                (p.transmitter, p.receiver)
            },
            &format!("selective-repeat-{w}"),
            packets,
        );
    }
    e3_row(
        || {
            let p = stenning::protocol();
            (p.transmitter, p.receiver)
        },
        "stenning",
        [40, 52, 101],
    );
}
