//! Property tests for the layer specifications: structural laws the
//! checkers must satisfy regardless of protocol behavior.

use proptest::prelude::*;

use dl_core::action::{Dir, DlAction, Msg, Packet, Station};
use dl_core::equivalence::{actions_equivalent, packets_equivalent, MsgRenaming};
use dl_core::spec::datalink::DlModule;
use dl_core::spec::physical::PlModule;
use dl_core::spec::wellformed::MediumTimeline;
use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict};

/// Arbitrary data-link actions over small alphabets.
fn action_strategy() -> impl Strategy<Value = DlAction> {
    let msg = (0u64..4).prop_map(Msg);
    let pkt = (0u64..3, 0u64..4, any::<bool>()).prop_map(|(seq, m, data)| {
        if data {
            Packet::data(seq, Msg(m)).with_uid(seq * 10 + m)
        } else {
            Packet::ack(seq).with_uid(100 + seq)
        }
    });
    prop_oneof![
        msg.clone().prop_map(DlAction::SendMsg),
        msg.prop_map(DlAction::ReceiveMsg),
        (prop_oneof![Just(Dir::TR), Just(Dir::RT)], pkt.clone())
            .prop_map(|(d, p)| DlAction::SendPkt(d, p)),
        (prop_oneof![Just(Dir::TR), Just(Dir::RT)], pkt)
            .prop_map(|(d, p)| DlAction::ReceivePkt(d, p)),
        prop_oneof![Just(Dir::TR), Just(Dir::RT)].prop_map(DlAction::Wake),
        prop_oneof![Just(Dir::TR), Just(Dir::RT)].prop_map(DlAction::Fail),
        prop_oneof![Just(Station::T), Just(Station::R)].prop_map(DlAction::Crash),
    ]
}

fn trace_strategy() -> impl Strategy<Value = Vec<DlAction>> {
    prop::collection::vec(action_strategy(), 0..24)
}

proptest! {
    /// Safety verdicts are *prefix-monotone*: once a prefix is Violated,
    /// every extension is Violated too (on Prefix kind, where only safety
    /// is judged).
    #[test]
    fn dl_safety_is_prefix_monotone(trace in trace_strategy(), cut in any::<prop::sample::Index>()) {
        let cut = cut.index(trace.len() + 1);
        let prefix = &trace[..cut];
        for module in [DlModule::weak(), DlModule::full()] {
            if matches!(module.check(prefix, TraceKind::Prefix), Verdict::Violated(_)) {
                let full = module.check(&trace, TraceKind::Prefix);
                prop_assert!(
                    !matches!(full, Verdict::Satisfied),
                    "violated prefix but satisfied extension: {:?}", full
                );
            }
        }
    }

    /// Same for the physical modules.
    #[test]
    fn pl_safety_is_prefix_monotone(trace in trace_strategy(), cut in any::<prop::sample::Index>()) {
        let cut = cut.index(trace.len() + 1);
        let prefix = &trace[..cut];
        for module in [PlModule::pl(Dir::TR), PlModule::pl_fifo(Dir::TR)] {
            if matches!(module.check(prefix, TraceKind::Prefix), Verdict::Violated(_)) {
                let full = module.check(&trace, TraceKind::Prefix);
                prop_assert!(!matches!(full, Verdict::Satisfied));
            }
        }
    }

    /// The weak module allows everything the full module allows
    /// (scheds(DL) ⊆ scheds(WDL), §4).
    #[test]
    fn wdl_is_weaker_than_dl(trace in trace_strategy(), complete in any::<bool>()) {
        let kind = if complete { TraceKind::Complete } else { TraceKind::Prefix };
        if DlModule::full().check(&trace, kind).is_allowed() {
            prop_assert!(DlModule::weak().check(&trace, kind).is_allowed());
        }
    }

    /// PL allows everything PL-FIFO allows.
    #[test]
    fn pl_is_weaker_than_pl_fifo(trace in trace_strategy()) {
        pl_is_weaker_than_pl_fifo_on(&trace)?;
    }

    /// Verdicts only depend on the module's own actions: appending actions
    /// of the *other* direction never changes a PL verdict.
    #[test]
    fn pl_ignores_other_direction(trace in trace_strategy()) {
        pl_ignores_other_direction_on(&trace)?;
    }

    /// Well-formedness scanning agrees with a simple reference
    /// implementation driven by a three-state machine.
    #[test]
    fn wellformedness_reference(trace in trace_strategy()) {
        wellformedness_reference_on(&trace)?;
    }

    /// Action equivalence is reflexive and symmetric on random actions,
    /// and respects packet-class structure.
    #[test]
    fn equivalence_laws(a in action_strategy(), b in action_strategy()) {
        prop_assert!(actions_equivalent(&a, &a));
        prop_assert_eq!(actions_equivalent(&a, &b), actions_equivalent(&b, &a));
    }

    /// Renaming preserves equivalence: a ≡ ρ(a) for every action and
    /// renaming (all messages are equivalent).
    #[test]
    fn renaming_stays_in_class(a in action_strategy(), from in 0u64..4, to in 100u64..104) {
        let mut rho = MsgRenaming::identity();
        rho.insert(Msg(from), Msg(to)).unwrap();
        let b = rho.apply_action(&a);
        prop_assert!(actions_equivalent(&a, &b));
        // And packet classes are preserved exactly.
        if let (Some(p), Some(q)) = (a.packet(), b.packet()) {
            prop_assert!(packets_equivalent(p, q));
        }
    }

    /// Inverse renamings cancel.
    #[test]
    fn inverse_renaming_cancels(a in action_strategy()) {
        let mut rho = MsgRenaming::identity();
        rho.insert(Msg(0), Msg(100)).unwrap();
        rho.insert(Msg(1), Msg(0)).unwrap();
        let back = rho.inverse().apply_action(&rho.apply_action(&a));
        prop_assert_eq!(back, a);
    }
}

fn pl_is_weaker_than_pl_fifo_on(trace: &[DlAction]) -> Result<(), TestCaseError> {
    if PlModule::pl_fifo(Dir::TR)
        .check(trace, TraceKind::Complete)
        .is_allowed()
    {
        prop_assert!(PlModule::pl(Dir::TR)
            .check(trace, TraceKind::Complete)
            .is_allowed());
    }
    Ok(())
}

fn pl_ignores_other_direction_on(trace: &[DlAction]) -> Result<(), TestCaseError> {
    let filtered: Vec<DlAction> = trace
        .iter()
        .filter(|a| match a {
            DlAction::SendPkt(d, _) | DlAction::ReceivePkt(d, _) => *d == Dir::TR,
            DlAction::Wake(d) | DlAction::Fail(d) => *d == Dir::TR,
            DlAction::Crash(x) => *x == Station::T,
            _ => false,
        })
        .copied()
        .collect();
    let a = PlModule::pl(Dir::TR).check(trace, TraceKind::Complete);
    let b = PlModule::pl(Dir::TR).check(&filtered, TraceKind::Complete);
    // Event indices shift under filtering; the verdict kind and the
    // violated property must agree.
    let kind = |v: &Verdict| match v {
        Verdict::Satisfied => ("satisfied", ""),
        Verdict::Vacuous(x) => ("vacuous", x.property),
        Verdict::Violated(x) => ("violated", x.property),
    };
    prop_assert_eq!(kind(&a), kind(&b));
    Ok(())
}

fn wellformedness_reference_on(trace: &[DlAction]) -> Result<(), TestCaseError> {
    let tl = MediumTimeline::scan(trace, Dir::TR);
    // Reference: walk with "medium up" flag, crash resets it.
    let mut up = false;
    let mut ok = true;
    for a in trace {
        match a {
            DlAction::Wake(Dir::TR) => {
                if up {
                    ok = false;
                    break;
                }
                up = true;
            }
            DlAction::Fail(Dir::TR) => {
                if !up {
                    ok = false;
                    break;
                }
                up = false;
            }
            DlAction::Crash(Station::T) => up = false,
            _ => {}
        }
    }
    prop_assert_eq!(tl.is_well_formed(), ok);
    Ok(())
}

/// A trace proptest once shrank to and persisted without naming the
/// property it broke: an ack received on `r → t`, then the same packet
/// sent on `t → r`. Replayed through each trace property it could have
/// come from.
#[test]
fn recorded_ack_echo_trace_passes_the_trace_properties() {
    let ack = Packet::ack(0).with_uid(100);
    let trace = [
        DlAction::ReceivePkt(Dir::RT, ack),
        DlAction::SendPkt(Dir::TR, ack),
    ];
    pl_is_weaker_than_pl_fifo_on(&trace).unwrap();
    pl_ignores_other_direction_on(&trace).unwrap();
    wellformedness_reference_on(&trace).unwrap();
}
