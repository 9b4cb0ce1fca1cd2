//! Differential audit of the allocation-free transition APIs.
//!
//! The interned execution core relies on three callback-based trait
//! methods — `try_for_each_successor`, `for_each_enabled_local`, and the
//! derived `is_enabled`/`step_first`/`has_enabled_local` — agreeing
//! **exactly** (same elements, same order) with the legacy Vec-returning
//! `successors`/`enabled_local` they shadow. Executors pick successors by
//! position, so even a reordering would silently change schedules.
//!
//! The session runner and the explorer step through `step_in_place`
//! instead, so the same walk also pins its contract: picking index `i`
//! yields exactly `successors()[i]`, `choose` sees the successor count
//! once, and a disabled or declined step leaves the state untouched —
//! plus the explorer's `restore` contract: restoring after any of those
//! steps gives back the state stepped from.
//!
//! This suite walks the full composed `link_system` (Hide ∘ Compose2 ∘
//! protocol stations ∘ channels) for every protocol of the zoo and checks
//! the agreement at every visited state, over every locally controlled
//! action and a dense sample of environment inputs — on the composed
//! system and on each of its four leaves.

use std::ops::ControlFlow;

use datalink::channels::{CorruptChannel, CorruptSpec, FaultSpec, FaultyChannel};
use datalink::core::action::{Dir, DlAction, Msg, Station};
use datalink::core::protocol::action_sample;
use datalink::ioa::{ActionClass, Automaton, TaskId};
use datalink::sim::{link_system, LinkSystem};

/// Deterministic splitmix64 step for the walk's choices.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Asserts the `step_in_place` and `restore` contracts for `(s, a)`
/// against the legacy successor list `legacy`.
fn check_step_in_place<A>(auto: &A, s: &A::State, a: &A::Action, legacy: &[A::State])
where
    A: Automaton,
{
    for (i, want) in legacy.iter().enumerate() {
        let mut t = s.clone();
        let mut asked = Vec::new();
        let stepped = auto.step_in_place(&mut t, a, &mut |n| {
            asked.push(n);
            Some(i)
        });
        assert!(stepped, "step_in_place refused enabled {a:?}");
        assert_eq!(
            asked,
            vec![legacy.len()],
            "choose must see n once for {a:?}"
        );
        assert_eq!(&t, want, "step_in_place pick {i} differs for {a:?}");
        auto.restore(&mut t, s, a);
        assert_eq!(&t, s, "restore after pick {i} missed for {a:?}");
    }
    // Declining, or a disabled action, leaves the state untouched.
    let mut t = s.clone();
    let mut asked = 0;
    let stepped = auto.step_in_place(&mut t, a, &mut |_| {
        asked += 1;
        None
    });
    assert!(!stepped, "a declined step must report false for {a:?}");
    assert_eq!(
        asked,
        usize::from(!legacy.is_empty()),
        "choose calls for {a:?}"
    );
    assert_eq!(
        &t, s,
        "a declined or disabled step mutated the state for {a:?}"
    );
    auto.restore(&mut t, s, a);
    assert_eq!(&t, s, "restore after a declined step moved {a:?}");
}

/// Asserts every callback-based API agrees with its Vec-based twin at
/// state `s`, for each action in `actions`.
fn check_state<A>(auto: &A, s: &A::State, actions: &[A::Action])
where
    A: Automaton,
    A::State: Clone + PartialEq + std::fmt::Debug,
    A::Action: Clone + PartialEq + std::fmt::Debug,
{
    // enabled_local == collect(for_each_enabled_local), same order.
    let legacy_enabled = auto.enabled_local(s);
    let mut cb_enabled = Vec::new();
    let flow = auto.for_each_enabled_local(s, &mut |a| {
        cb_enabled.push(a);
        ControlFlow::Continue(())
    });
    assert_eq!(flow, ControlFlow::Continue(()));
    assert_eq!(legacy_enabled, cb_enabled, "enabled_local order differs");
    assert_eq!(auto.has_enabled_local(s), !legacy_enabled.is_empty());

    for a in actions.iter().chain(legacy_enabled.iter()) {
        let legacy = auto.successors(s, a);
        let mut cb = Vec::new();
        let _ = auto.try_for_each_successor(s, a, &mut |t| {
            cb.push(t);
            ControlFlow::Continue(())
        });
        assert_eq!(legacy, cb, "successors order differs for {a:?}");
        let mut into = Vec::new();
        auto.successors_into(s, a, &mut into);
        assert_eq!(legacy, into, "successors_into differs for {a:?}");
        assert_eq!(
            auto.is_enabled(s, a),
            !legacy.is_empty(),
            "is_enabled differs for {a:?} at {s:?}"
        );
        assert_eq!(auto.step_first(s, a), legacy.first().cloned());
        check_step_in_place(auto, s, a, &legacy);
    }
}

/// The walk's input sample: the dense action sample plus fresh messages,
/// crashes and status changes.
fn input_sample() -> Vec<DlAction> {
    let mut inputs = action_sample();
    inputs.extend((0..4).map(|i| DlAction::SendMsg(Msg(i))));
    inputs.push(DlAction::Crash(Station::T));
    inputs.push(DlAction::Crash(Station::R));
    for d in [Dir::TR, Dir::RT] {
        inputs.push(DlAction::Wake(d));
        inputs.push(DlAction::Fail(d));
    }
    inputs
}

/// Walks the link system for `steps` transitions, checking consistency at
/// every state — on the composed system and on each leaf at its own
/// component state, over the same actions plus every action some leaf
/// offers (so each leaf also sees its peers' packets).
fn walk_and_check<T, R, C1, C2>(sys: &LinkSystem<T, R, C1, C2>, steps: usize, seed: u64)
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
    C1: Automaton<Action = DlAction>,
    C2: Automaton<Action = DlAction>,
{
    let inputs = input_sample();
    let (stations, channels) = (sys.inner().left(), sys.inner().right());

    let mut s = sys.start_states().remove(0);
    let mut rng = seed;
    for _ in 0..steps {
        check_state(sys, &s, &inputs);
        let mut offered = inputs.clone();
        offered.extend(sys.enabled_local(&s));
        check_state(stations.left(), &s.left.left, &offered);
        check_state(stations.right(), &s.left.right, &offered);
        check_state(channels.left(), &s.right.left, &offered);
        check_state(channels.right(), &s.right.right, &offered);

        // Advance: pick among enabled locals and enabled inputs.
        let mut candidates: Vec<DlAction> = sys.enabled_local(&s);
        candidates.extend(
            inputs
                .iter()
                .filter(|a| sys.in_signature(a) && sys.is_enabled(&s, a))
                .cloned(),
        );
        if candidates.is_empty() {
            break;
        }
        rng = mix(rng);
        let a = &candidates[(rng % candidates.len() as u64) as usize];
        let succs = sys.successors(&s, a);
        rng = mix(rng);
        s = succs[(rng % succs.len() as u64) as usize].clone();
    }
}

/// One faulty spec per direction so duplication and reorder windows (the
/// non-FIFO branches of `FaultyChannel`) are exercised too.
fn faulty_pair() -> (FaultyChannel, FaultyChannel) {
    let spec_tr = FaultSpec {
        loss: 48,
        dup: 64,
        reorder: 3,
        burst_good: 3,
        burst_bad: 2,
        salt: 11,
    };
    let spec_rt = FaultSpec {
        loss: 32,
        dup: 0,
        reorder: 2,
        burst_good: 0,
        burst_bad: 0,
        salt: 5,
    };
    (
        FaultyChannel::new(Dir::TR, spec_tr),
        FaultyChannel::new(Dir::RT, spec_rt),
    )
}

macro_rules! consistency_test {
    ($name:ident, $tx:expr, $rx:expr) => {
        #[test]
        fn $name() {
            for seed in [1u64, 99, 2026] {
                let (ch1, ch2) = faulty_pair();
                let sys = link_system($tx, $rx, ch1, ch2);
                walk_and_check(&sys, 160, seed);
                let perfect = link_system(
                    $tx,
                    $rx,
                    FaultyChannel::perfect(Dir::TR),
                    FaultyChannel::perfect(Dir::RT),
                );
                walk_and_check(&perfect, 160, seed);
            }
        }
    };
}

consistency_test!(
    abp_interned_apis_match_legacy,
    datalink::protocols::abp::protocol().transmitter,
    datalink::protocols::abp::protocol().receiver
);
consistency_test!(
    go_back_2_interned_apis_match_legacy,
    datalink::protocols::sliding_window::protocol(2).transmitter,
    datalink::protocols::sliding_window::protocol(2).receiver
);
consistency_test!(
    go_back_8_interned_apis_match_legacy,
    datalink::protocols::sliding_window::protocol(8).transmitter,
    datalink::protocols::sliding_window::protocol(8).receiver
);
consistency_test!(
    selective_repeat_4_interned_apis_match_legacy,
    datalink::protocols::selective_repeat::protocol(4).transmitter,
    datalink::protocols::selective_repeat::protocol(4).receiver
);
consistency_test!(
    fragmenting_interned_apis_match_legacy,
    datalink::protocols::fragmenting::protocol().transmitter,
    datalink::protocols::fragmenting::protocol().receiver
);
consistency_test!(
    parity_interned_apis_match_legacy,
    datalink::protocols::parity::protocol().transmitter,
    datalink::protocols::parity::protocol().receiver
);
consistency_test!(
    stenning_interned_apis_match_legacy,
    datalink::protocols::stenning::protocol().transmitter,
    datalink::protocols::stenning::protocol().receiver
);
consistency_test!(
    nonvolatile_interned_apis_match_legacy,
    datalink::protocols::nonvolatile::protocol().transmitter,
    datalink::protocols::nonvolatile::protocol().receiver
);
consistency_test!(
    quirky_interned_apis_match_legacy,
    datalink::protocols::quirky::protocol().transmitter,
    datalink::protocols::quirky::protocol().receiver
);
consistency_test!(
    stabilizing_interned_apis_match_legacy,
    datalink::protocols::stabilizing::protocol().transmitter,
    datalink::protocols::stabilizing::protocol().receiver
);

/// The stabilizing protocol over its own fault class: bounded non-FIFO
/// channels that start full of ghost packets.
#[test]
fn stabilizing_over_corrupt_channels_interned_apis_match_legacy() {
    for seed in [7u64, 64] {
        let p = datalink::protocols::stabilizing::protocol();
        let spec = CorruptSpec {
            capacity: 3,
            ghosts: 3,
            loss: 40,
            seed,
        };
        let sys = link_system(
            p.transmitter,
            p.receiver,
            CorruptChannel::new(Dir::TR, spec),
            CorruptChannel::new(Dir::RT, spec),
        );
        walk_and_check(&sys, 160, seed);
    }
}

/// A nondeterministic 2×3 product: `Compose2::step_in_place` asks the
/// outer `choose` once for `2·3` and splits its pick `p` as
/// `(p / 3, p % 3)` — pick `p = li·nr + ri` is `successors()[p]`.
#[test]
fn compose2_step_in_place_splits_the_pick_left_outer() {
    use datalink::ioa::composition::{Compose2, Pair};

    /// One shared input `Go` with `width` successors `0..width`.
    #[derive(Clone)]
    struct Fan(u8);
    impl Automaton for Fan {
        type Action = ();
        type State = u8;
        fn start_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn classify(&self, _a: &()) -> Option<ActionClass> {
            Some(ActionClass::Input)
        }
        fn successors(&self, _s: &u8, _a: &()) -> Vec<u8> {
            (0..self.0).collect()
        }
        fn enabled_local(&self, _s: &u8) -> Vec<()> {
            vec![]
        }
        fn task_of(&self, _a: &()) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    let product = Compose2::new(Fan(2), Fan(3));
    let legacy = product.successors(&Pair::new(0, 0), &());
    assert_eq!(legacy.len(), 6);
    for (p, want) in legacy.iter().enumerate() {
        let mut s = Pair::new(0, 0);
        let mut asked = Vec::new();
        assert!(product.step_in_place(&mut s, &(), &mut |n| {
            asked.push(n);
            Some(p)
        }));
        assert_eq!(asked, vec![6]);
        assert_eq!(&s, want);
        assert_eq!(s, Pair::new((p / 3) as u8, (p % 3) as u8));
    }
    check_step_in_place(&product, &Pair::new(1, 2), &(), &legacy);
}

/// The simulated channels (nondeterministic loss, reordering, burst) get
/// their own walk: they are the only automata with multi-successor
/// transitions besides composition cross-products. The WDL observer,
/// the explored systems' other in-place leaf, rides along on the same
/// walk with message inputs.
#[test]
fn simulated_channels_interned_apis_match_legacy() {
    use datalink::channels::{BurstLossChannel, LossMode, LossyFifoChannel, ReorderChannel};
    use datalink::core::action::Packet;
    use datalink::core::observer::WdlObserver;

    let mut inputs: Vec<DlAction> = Vec::new();
    for d in [Dir::TR, Dir::RT] {
        for n in 0..4 {
            let p = Packet::data(n, Msg(n)).with_uid(n + 10);
            inputs.push(DlAction::SendPkt(d, p));
            inputs.push(DlAction::ReceivePkt(d, p));
        }
        // Duplicate content with a distinct uid exercises the dedup scan.
        let dup = Packet::data(0, Msg(0)).with_uid(77);
        inputs.push(DlAction::SendPkt(d, dup));
        inputs.push(DlAction::ReceivePkt(d, dup));
        inputs.push(DlAction::Wake(d));
        inputs.push(DlAction::Fail(d));
    }
    inputs.push(DlAction::Crash(Station::T));
    inputs.push(DlAction::Crash(Station::R));
    for m in 0..3 {
        inputs.push(DlAction::SendMsg(Msg(m)));
        inputs.push(DlAction::ReceiveMsg(Msg(m)));
    }

    fn drive<A>(auto: &A, inputs: &[DlAction], seed: u64)
    where
        A: Automaton<Action = DlAction>,
        A::State: Clone + PartialEq + std::fmt::Debug,
    {
        let mut s = auto.start_states().remove(0);
        let mut rng = seed;
        for _ in 0..80 {
            check_state(auto, &s, inputs);
            let mut candidates: Vec<DlAction> = auto.enabled_local(&s);
            candidates.extend(inputs.iter().filter(|a| auto.is_enabled(&s, a)).cloned());
            if candidates.is_empty() {
                break;
            }
            rng = mix(rng);
            let a = &candidates[(rng % candidates.len() as u64) as usize];
            let succs = auto.successors(&s, a);
            rng = mix(rng);
            s = succs[(rng % succs.len() as u64) as usize].clone();
        }
    }

    for seed in [3u64, 41] {
        drive(
            &LossyFifoChannel::new(Dir::TR, LossMode::Nondet),
            &inputs,
            seed,
        );
        drive(
            &LossyFifoChannel::with_capacity(Dir::TR, LossMode::EveryNth(3), 2),
            &inputs,
            seed,
        );
        // The explored systems' channel: its full-queue drop branch
        // yields two equal successors.
        drive(
            &LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, 2),
            &inputs,
            seed,
        );
        drive(
            &ReorderChannel::new(Dir::RT, LossMode::Nondet),
            &inputs,
            seed,
        );
        drive(&BurstLossChannel::new(Dir::TR, 2, 2), &inputs, seed);
        drive(&WdlObserver, &inputs, seed);
    }
}
