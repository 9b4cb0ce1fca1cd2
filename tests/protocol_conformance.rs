//! Integration tests: the positive side of the paper. In crash-free runs
//! over FIFO channels, every ARQ protocol in the zoo provides correct data
//! link service (`DL`), and over reordering channels Stenning's protocol
//! still does while the bounded-header protocols fail — setting the stage
//! the impossibility theorems formalize.

use proptest::prelude::*;

use datalink::channels::{LossMode, LossyFifoChannel, ReorderChannel};
use datalink::core::action::{Dir, DlAction};
use datalink::core::protocol::DataLinkProtocol;
use datalink::core::spec::datalink::DlModule;
use datalink::core::spec::physical::PlModule;
use datalink::ioa::schedule_module::{ScheduleModule, TraceKind};
use datalink::ioa::Automaton;
use datalink::sim::{link_system, Runner, Script};

fn loss_strategy() -> impl Strategy<Value = LossMode> {
    prop_oneof![
        Just(LossMode::None),
        Just(LossMode::Nondet),
        (2u64..6).prop_map(LossMode::EveryNth),
    ]
}

/// Delivers `n` messages over two FIFO channels losing per `mode`, and
/// checks the behavior against DL and the schedule against PL-FIFO.
fn dl_conformance_over_fifo<T, R>(
    p: DataLinkProtocol<T, R>,
    seed: u64,
    n: u64,
    mode: LossMode,
) -> Result<(), TestCaseError>
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let sys = link_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::new(Dir::TR, mode),
        LossyFifoChannel::new(Dir::RT, mode),
    );
    let mut runner = Runner::new(seed, 2_000_000);
    let report = runner.run(&sys, &Script::deliver_n(n));
    prop_assert!(report.quiescent, "did not quiesce");
    prop_assert_eq!(report.metrics.msgs_received, n);
    // The behavior satisfies the full DL spec...
    let v = DlModule::full().check(&report.behavior, TraceKind::Complete);
    prop_assert!(v.is_allowed(), "{}", v);
    // ...and the schedule satisfies both physical specs.
    let sched = report.schedule();
    for dir in Dir::BOTH {
        let v = PlModule::pl_fifo(dir).check(&sched, TraceKind::Complete);
        prop_assert!(v.is_allowed(), "PL-FIFO^{}: {}", dir, v);
    }
    Ok(())
}

macro_rules! dl_conformance_over_fifo {
    ($name:ident, $make:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn $name(
                seed in any::<u64>(),
                n in 1u64..20,
                mode in loss_strategy(),
            ) {
                dl_conformance_over_fifo($make, seed, n, mode)?;
            }
        }
    };
}

/// A case proptest once shrank to and persisted (seed 33324099, n 6,
/// every 4th packet lost), replayed through every protocol above.
#[test]
fn recorded_every_4th_loss_case_conforms() {
    use datalink::protocols as p;
    let (seed, n, mode) = (33_324_099, 6, LossMode::EveryNth(4));
    dl_conformance_over_fifo(p::abp::protocol(), seed, n, mode).unwrap();
    dl_conformance_over_fifo(p::sliding_window::protocol(2), seed, n, mode).unwrap();
    dl_conformance_over_fifo(p::sliding_window::protocol(5), seed, n, mode).unwrap();
    dl_conformance_over_fifo(p::selective_repeat::protocol(3), seed, n, mode).unwrap();
    dl_conformance_over_fifo(p::fragmenting::protocol(), seed, n, mode).unwrap();
    dl_conformance_over_fifo(p::parity::protocol(), seed, n, mode).unwrap();
    dl_conformance_over_fifo(p::stenning::protocol(), seed, n, mode).unwrap();
    dl_conformance_over_fifo(p::nonvolatile::protocol(), seed, n, mode).unwrap();
}

dl_conformance_over_fifo!(
    abp_provides_dl_service,
    datalink::protocols::abp::protocol()
);
dl_conformance_over_fifo!(
    sliding_window_2_provides_dl_service,
    datalink::protocols::sliding_window::protocol(2)
);
dl_conformance_over_fifo!(
    sliding_window_5_provides_dl_service,
    datalink::protocols::sliding_window::protocol(5)
);
dl_conformance_over_fifo!(
    selective_repeat_3_provides_dl_service,
    datalink::protocols::selective_repeat::protocol(3)
);
dl_conformance_over_fifo!(
    fragmenting_provides_dl_service,
    datalink::protocols::fragmenting::protocol()
);
dl_conformance_over_fifo!(
    parity_provides_dl_service,
    datalink::protocols::parity::protocol()
);
dl_conformance_over_fifo!(
    stenning_provides_dl_service,
    datalink::protocols::stenning::protocol()
);
dl_conformance_over_fifo!(
    nonvolatile_provides_dl_service,
    datalink::protocols::nonvolatile::protocol()
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stenning's protocol stays correct over a *reordering* channel —
    /// the positive complement of Theorem 8.5.
    #[test]
    fn stenning_survives_reordering(seed in any::<u64>(), n in 1u64..15) {
        let p = datalink::protocols::stenning::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            ReorderChannel::lossless(Dir::TR),
            ReorderChannel::lossless(Dir::RT),
        );
        let mut runner = Runner::new(seed, 2_000_000);
        let report = runner.run(&sys, &Script::deliver_n(n));
        prop_assert!(report.quiescent);
        prop_assert_eq!(report.metrics.msgs_received, n);
        let v = DlModule::full().check(&report.behavior, TraceKind::Complete);
        prop_assert!(v.is_allowed(), "{}", v);
    }

    /// The non-volatile protocol keeps WDL safety under random crash
    /// schedules — the boundary of Theorem 7.5.
    #[test]
    fn nonvolatile_safe_under_random_crashes(
        seed in any::<u64>(),
        plan in prop::collection::vec((1u64..4, any::<bool>()), 1..5),
    ) {
        use datalink::core::action::Station;
        let p = datalink::protocols::nonvolatile::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::perfect(Dir::TR),
            LossyFifoChannel::perfect(Dir::RT),
        );
        let mut script = Script::new().wake_both();
        let mut next = 0u64;
        for (n, crash_rx) in &plan {
            script = script.send_msgs(next, *n).settle();
            next += n;
            let station = if *crash_rx { Station::R } else { Station::T };
            script = script.crash_and_rewake(station);
        }
        script = script.send_msgs(next, 2).settle();
        let mut runner = Runner::new(seed, 2_000_000);
        let report = runner.run(&sys, &script);
        prop_assert!(report.quiescent);
        let v = DlModule::weak().check(&report.behavior, TraceKind::Prefix);
        prop_assert!(v.is_allowed(), "{}", v);
        // Everything sent before an idle crash was already delivered, and
        // everything after is too: total delivery equals total sends.
        prop_assert_eq!(report.metrics.msgs_received, report.metrics.msgs_sent);
    }

    /// In contrast, ABP loses WDL liveness (or worse) under mid-stream
    /// transmitter crashes for *some* interleavings — the behavior the
    /// crash theorem guarantees an adversary can always force.
    #[test]
    fn abp_is_not_always_safe_under_crashes(seed in 0u64..8) {
        use datalink::core::action::Station;
        let p = datalink::protocols::abp::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::perfect(Dir::TR),
            LossyFifoChannel::perfect(Dir::RT),
        );
        // Crash the transmitter right after delivery but before the ack
        // returns, then send a new message: it gets the stale bit.
        let script = Script::new()
            .wake_both()
            .send_msgs(0, 1)
            .local(3)
            .crash_and_rewake(Station::T)
            .send_msgs(1, 1)
            .settle();
        let mut runner = Runner::new(seed, 1_000_000);
        let report = runner.run(&sys, &script);
        let v = DlModule::weak().check(&report.behavior, TraceKind::Complete);
        // This specific adversarial interleaving defeats ABP regardless of
        // the scheduling seed.
        prop_assert!(!v.is_allowed(), "expected a WDL violation, got {}", v);
    }
}

/// ARQ recovers from burst losses (consecutive drops, the radio-link
/// failure mode) just as it does from uniform loss.
#[test]
fn arq_survives_burst_loss() {
    use datalink::channels::BurstLossChannel;
    for w in [1u64, 3] {
        let p = datalink::protocols::sliding_window::protocol(w);
        let sys = link_system(
            p.transmitter,
            p.receiver,
            BurstLossChannel::new(Dir::TR, 3, 2),
            BurstLossChannel::new(Dir::RT, 4, 1),
        );
        let mut runner = Runner::new(17, 3_000_000);
        let report = runner.run(&sys, &Script::deliver_n(15));
        assert!(report.quiescent, "window {w} did not quiesce");
        assert_eq!(report.metrics.msgs_received, 15);
        let v = DlModule::full().check(&report.behavior, TraceKind::Complete);
        assert!(v.is_allowed(), "window {w}: {v}");
    }
}

/// FIFO order (DL6) and no-gaps (DL7) hold across link failures when the
/// medium fails and recovers between bursts.
#[test]
fn sliding_window_across_link_outage() {
    let p = datalink::protocols::sliding_window::protocol(3);
    let sys = link_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::perfect(Dir::TR),
        LossyFifoChannel::perfect(Dir::RT),
    );
    let script = Script::new()
        .wake_both()
        .send_msgs(0, 5)
        .settle()
        .inject(DlAction::Fail(Dir::TR))
        .inject(DlAction::Fail(Dir::RT))
        .inject(DlAction::Wake(Dir::TR))
        .inject(DlAction::Wake(Dir::RT))
        .send_msgs(5, 5)
        .settle();
    let mut runner = Runner::new(11, 2_000_000);
    let report = runner.run(&sys, &script);
    assert!(report.quiescent);
    assert_eq!(report.metrics.msgs_received, 10);
    let v = DlModule::full().check(&report.behavior, TraceKind::Complete);
    assert!(v.is_allowed(), "{v}");
}

/// Messages submitted while the medium is down survive the outage (the
/// transmitter queues them; DL2's hypothesis is still met because the
/// environment sends only inside working intervals).
#[test]
fn messages_survive_outage_in_transmitter_queue() {
    let p = datalink::protocols::abp::protocol();
    let sys = link_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::perfect(Dir::TR),
        LossyFifoChannel::perfect(Dir::RT),
    );
    let script = Script::new()
        .wake_both()
        .send_msgs(0, 2)
        .inject(DlAction::Fail(Dir::TR)) // outage before anything flies
        .inject(DlAction::Wake(Dir::TR))
        .settle();
    let mut runner = Runner::new(5, 1_000_000);
    let report = runner.run(&sys, &script);
    assert!(report.quiescent);
    assert_eq!(report.metrics.msgs_received, 2);
}
