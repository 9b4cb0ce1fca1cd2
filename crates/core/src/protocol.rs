//! Data link protocols: station automata, their signatures, and the
//! constraints of §5.
//!
//! A data link protocol is a pair `(Aᵗ, Aʳ)` of a *transmitting automaton*
//! and a *receiving automaton* with the external signatures of §5.1
//! (enforced here by [`transmitter_classify`] / [`receiver_classify`],
//! which concrete protocols delegate their `classify` to, and audited by
//! [`check_station_signature`]).
//!
//! The constraints used by the impossibility results are exposed as
//! capabilities:
//!
//! * **message-independence** (§5.3.1) — the [`MessageIndependent`] trait
//!   lets the engines rename the messages stored in a state, realizing the
//!   equivalence relation of [`crate::equivalence`];
//! * **crashing** (§5.3.2) — audited by [`check_crashing`]: a unique start
//!   state that every state steps to on `crash`;
//! * **bounded headers / k-boundedness** (§5.3.1, §8.1) — declared in
//!   [`ProtocolInfo`] and exercised by the header-impossibility engine.

use std::ops::ControlFlow;

use ioa::action::ActionClass;
use ioa::automaton::Automaton;

use crate::action::{Dir, DlAction, Station};
use crate::equivalence::MsgRenaming;

/// The §5.1 signature of a transmitting automaton for `(t, r)`.
///
/// Inputs: `send_msg^{t,r}`, `receive_pkt^{r,t}`, `wake^{t,r}`,
/// `fail^{t,r}`, `crash^{t,r}`. Outputs: `send_pkt^{t,r}`. Internal actions
/// are tagged with the station.
#[must_use]
pub fn transmitter_classify(a: &DlAction) -> Option<ActionClass> {
    match a {
        DlAction::SendMsg(_)
        | DlAction::ReceivePkt(Dir::RT, _)
        | DlAction::Wake(Dir::TR)
        | DlAction::Fail(Dir::TR)
        | DlAction::Crash(Station::T) => Some(ActionClass::Input),
        DlAction::SendPkt(Dir::TR, _) => Some(ActionClass::Output),
        DlAction::Internal(Station::T, _) => Some(ActionClass::Internal),
        _ => None,
    }
}

/// The §5.1 signature of a receiving automaton for `(t, r)`.
///
/// Inputs: `receive_pkt^{t,r}`, `wake^{r,t}`, `fail^{r,t}`, `crash^{r,t}`.
/// Outputs: `send_pkt^{r,t}`, `receive_msg^{t,r}`.
#[must_use]
pub fn receiver_classify(a: &DlAction) -> Option<ActionClass> {
    match a {
        DlAction::ReceivePkt(Dir::TR, _)
        | DlAction::Wake(Dir::RT)
        | DlAction::Fail(Dir::RT)
        | DlAction::Crash(Station::R) => Some(ActionClass::Input),
        DlAction::SendPkt(Dir::RT, _) | DlAction::ReceiveMsg(_) => Some(ActionClass::Output),
        DlAction::Internal(Station::R, _) => Some(ActionClass::Internal),
        _ => None,
    }
}

/// The canonical §5.1 classifier for the given station.
#[must_use]
pub fn station_classify(station: Station, a: &DlAction) -> Option<ActionClass> {
    match station {
        Station::T => transmitter_classify(a),
        Station::R => receiver_classify(a),
    }
}

/// The signature of a physical channel in direction `d` (§3, Figure 1).
///
/// Inputs: `send_pkt^{d}`, `wake^{d}`, `fail^{d}`, `crash` of the sending
/// station. Outputs: `receive_pkt^{d}`.
#[must_use]
pub fn channel_classify(dir: Dir, a: &DlAction) -> Option<ActionClass> {
    match a {
        DlAction::SendPkt(d, _) if *d == dir => Some(ActionClass::Input),
        DlAction::Wake(d) | DlAction::Fail(d) if *d == dir => Some(ActionClass::Input),
        DlAction::Crash(s) if *s == dir.sender() => Some(ActionClass::Input),
        DlAction::ReceivePkt(d, _) if *d == dir => Some(ActionClass::Output),
        _ => None,
    }
}

/// The station whose protocol automaton has this action in its §5.1
/// signature. Every data-link action belongs to exactly one station
/// (channels share `send_pkt`/`receive_pkt` with stations, but each such
/// action names the station that controls or consumes it).
#[must_use]
pub fn owning_station(a: &DlAction) -> Station {
    match a {
        DlAction::SendMsg(_)
        | DlAction::Wake(Dir::TR)
        | DlAction::Fail(Dir::TR)
        | DlAction::Crash(Station::T)
        | DlAction::SendPkt(Dir::TR, _)
        | DlAction::ReceivePkt(Dir::RT, _)
        | DlAction::Internal(Station::T, _) => Station::T,
        DlAction::ReceiveMsg(_)
        | DlAction::Wake(Dir::RT)
        | DlAction::Fail(Dir::RT)
        | DlAction::Crash(Station::R)
        | DlAction::SendPkt(Dir::RT, _)
        | DlAction::ReceivePkt(Dir::TR, _)
        | DlAction::Internal(Station::R, _) => Station::R,
    }
}

/// A protocol automaton residing at one station.
///
/// This marker carries the station name so generic machinery (the sim
/// harness, the proof engines) can select the right signature, crash
/// action, and channel directions.
pub trait StationAutomaton: Automaton<Action = DlAction> {
    /// The station this automaton runs at.
    fn station(&self) -> Station;
}

/// The transition logic of a deterministic station automaton: a finite
/// control with send and receive transitions (Pachl's communicating
/// finite-state machine), written once.
///
/// [`station_automaton!`](crate::station_automaton) derives
/// [`Automaton`] and [`StationAutomaton`] from these four items, under
/// the zoo conventions (`dl-protocols`):
///
/// * the signature is the §5.1 signature of [`STATION`](Self::STATION),
///   and so is the task partition — one task at the transmitter; at the
///   receiver, `receive_msg` is task 1 of 2;
/// * the unique start state is `corrupted_start(0)`;
/// * every input is enabled, and a locally-controlled action is enabled
///   iff [`for_each_local`](Self::for_each_local) offers it up to the
///   packet uid, which executors stamp and transitions ignore;
/// * the unique successor of an enabled action is [`apply`](Self::apply)
///   of it — in place for [`Automaton::step_in_place`], on a clone for
///   the by-value methods.
///
/// The trait extends the derived [`Automaton`] only to share its state
/// type; implementations never override `Automaton` by hand.
pub trait StationLogic: Automaton<Action = DlAction> {
    /// The station this automaton runs at.
    const STATION: Station;

    /// A **corrupted initial configuration** (the arXiv 1011.3632 fault
    /// class, generalized to the whole zoo): the start state with its
    /// protocol counters skewed by `seq`. `corrupted_start(0)` is the
    /// honest start state, so a zero skew is indistinguishable from no
    /// corruption at all.
    fn corrupted_start(&self, seq: u64) -> Self::State;

    /// Steps `state` in place by `action`. Only called for an action
    /// enabled in `state` (see the trait docs): the action is in this
    /// station's signature, so its direction and station fields need no
    /// matching, and a locally-controlled action's guard already held.
    fn apply(&self, state: &mut Self::State, action: &DlAction);

    /// Visits every enabled locally-controlled action in a fixed order,
    /// with [`Packet::UNSTAMPED`](crate::action::Packet::UNSTAMPED) uids,
    /// stopping early when `f` breaks.
    fn for_each_local(
        &self,
        state: &Self::State,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()>;
}

/// Writes [`Automaton`] and [`StationAutomaton`] for types implementing
/// [`StationLogic`], each given with its state type:
///
/// ```ignore
/// dl_core::station_automaton!(AbpTransmitter => AbpTxState, AbpReceiver => AbpRxState);
/// ```
///
/// A blanket impl is not possible: `Automaton` is foreign to this crate
/// (orphan rule), and in `ioa` it would collide with `impl Automaton for &A`.
#[macro_export]
macro_rules! station_automaton {
    ($($station:ty => $state:ty),+ $(,)?) => {
        $($crate::station_automaton!(@impl [] $station => $state);)+
    };
    (@impl [$($generics:tt)*] $station:ty => $state:ty) => {
        impl<$($generics)*> $crate::protocol::station_support::Automaton for $station {
            type Action = $crate::action::DlAction;
            type State = $state;

            fn start_states(&self) -> ::std::vec::Vec<$state> {
                ::std::vec![$crate::protocol::StationLogic::corrupted_start(self, 0)]
            }
            fn classify(
                &self,
                a: &$crate::action::DlAction,
            ) -> ::std::option::Option<$crate::protocol::station_support::ActionClass> {
                $crate::protocol::station_classify(
                    <Self as $crate::protocol::StationLogic>::STATION,
                    a,
                )
            }
            fn successors(
                &self,
                s: &$state,
                a: &$crate::action::DlAction,
            ) -> ::std::vec::Vec<$state> {
                $crate::protocol::station_support::step(self, s, a).into_iter().collect()
            }
            fn enabled_local(&self, s: &$state) -> ::std::vec::Vec<$crate::action::DlAction> {
                $crate::protocol::station_support::enabled_local(self, s)
            }
            fn task_of(
                &self,
                a: &$crate::action::DlAction,
            ) -> $crate::protocol::station_support::TaskId {
                $crate::protocol::station_support::task_of(
                    <Self as $crate::protocol::StationLogic>::STATION,
                    a,
                )
            }
            fn task_count(&self) -> usize {
                $crate::protocol::station_support::task_count(
                    <Self as $crate::protocol::StationLogic>::STATION,
                )
            }
            fn try_for_each_successor(
                &self,
                s: &$state,
                a: &$crate::action::DlAction,
                f: &mut dyn FnMut($state) -> ::std::ops::ControlFlow<()>,
            ) -> ::std::ops::ControlFlow<()> {
                match $crate::protocol::station_support::step(self, s, a) {
                    ::std::option::Option::Some(t) => f(t),
                    ::std::option::Option::None => ::std::ops::ControlFlow::Continue(()),
                }
            }
            fn step_first(
                &self,
                s: &$state,
                a: &$crate::action::DlAction,
            ) -> ::std::option::Option<$state> {
                $crate::protocol::station_support::step(self, s, a)
            }
            fn step_in_place(
                &self,
                s: &mut $state,
                a: &$crate::action::DlAction,
                choose: &mut dyn FnMut(usize) -> ::std::option::Option<usize>,
            ) -> bool {
                $crate::protocol::station_support::step_in_place(self, s, a, choose)
            }
            fn is_enabled(&self, s: &$state, a: &$crate::action::DlAction) -> bool {
                $crate::protocol::station_support::is_enabled(self, s, a)
            }
            fn for_each_enabled_local(
                &self,
                s: &$state,
                f: &mut dyn FnMut($crate::action::DlAction) -> ::std::ops::ControlFlow<()>,
            ) -> ::std::ops::ControlFlow<()> {
                $crate::protocol::StationLogic::for_each_local(self, s, f)
            }
        }

        impl<$($generics)*> $crate::protocol::StationAutomaton for $station {
            fn station(&self) -> $crate::action::Station {
                <Self as $crate::protocol::StationLogic>::STATION
            }
        }
    };
}

/// The generic bodies behind [`station_automaton!`](crate::station_automaton);
/// not an API of its own.
#[doc(hidden)]
pub mod station_support {
    use std::ops::ControlFlow;

    pub use ioa::action::ActionClass;
    pub use ioa::automaton::{Automaton, TaskId};

    use super::{station_classify, StationLogic};
    use crate::action::{DlAction, Packet, Station};

    /// Every input is enabled; a locally-controlled action is enabled iff
    /// [`StationLogic::for_each_local`] offers it up to the packet uid.
    pub fn is_enabled<L: StationLogic>(logic: &L, s: &L::State, a: &DlAction) -> bool {
        match station_classify(L::STATION, a) {
            None => false,
            Some(ActionClass::Input) => true,
            Some(_) => {
                let wanted = a.with_packet_uid(Packet::UNSTAMPED);
                logic
                    .for_each_local(s, &mut |e| {
                        if e.with_packet_uid(Packet::UNSTAMPED) == wanted {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    })
                    .is_break()
            }
        }
    }

    /// The unique successor of `(s, a)`, or `None` when `a` is disabled.
    pub fn step<L: StationLogic>(logic: &L, s: &L::State, a: &DlAction) -> Option<L::State> {
        is_enabled(logic, s, a).then(|| {
            let mut t = s.clone();
            logic.apply(&mut t, a);
            t
        })
    }

    /// [`Automaton::step_in_place`] without a clone: checks enabledness,
    /// asks `choose(1)`, then applies.
    pub fn step_in_place<L: StationLogic>(
        logic: &L,
        s: &mut L::State,
        a: &DlAction,
        choose: &mut dyn FnMut(usize) -> Option<usize>,
    ) -> bool {
        if !is_enabled(logic, s, a) || choose(1).is_none() {
            return false;
        }
        logic.apply(s, a);
        true
    }

    /// [`StationLogic::for_each_local`], collected.
    pub fn enabled_local<L: StationLogic>(logic: &L, s: &L::State) -> Vec<DlAction> {
        let mut out = Vec::new();
        let _ = logic.for_each_local(s, &mut |a| {
            out.push(a);
            ControlFlow::Continue(())
        });
        out
    }

    /// The transmitter has one task; at the receiver, `receive_msg` is
    /// task 1 and its `send_pkt` task 0.
    pub fn task_of(station: Station, a: &DlAction) -> TaskId {
        match (station, a) {
            (Station::R, DlAction::ReceiveMsg(_)) => TaskId(1),
            _ => TaskId(0),
        }
    }

    /// See [`task_of`].
    pub fn task_count(station: Station) -> usize {
        match station {
            Station::T => 1,
            Station::R => 2,
        }
    }
}

/// An adapter placing a station in a corrupted initial configuration:
/// identical to the inner station except that its unique start state is
/// [`StationLogic::corrupted_start`] of `seq`.
///
/// With `seq == 0` the adapter is behaviorally identical to the inner
/// automaton (see the `corrupted_start` contract), which is what lets the
/// fuzz targets wrap stations unconditionally without perturbing
/// corruption-free runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptedStart<A> {
    inner: A,
    seq: u64,
}

impl<A> CorruptedStart<A> {
    /// Wraps `inner` with its start state skewed by `seq`.
    pub fn new(inner: A, seq: u64) -> Self {
        CorruptedStart { inner, seq }
    }
}

/// Further skews add to the adapter's own, so `corrupted_start(0)` — the
/// derived start state — is the inner station's `corrupted_start(seq)`.
impl<L: StationLogic> StationLogic for CorruptedStart<L> {
    const STATION: Station = L::STATION;

    fn corrupted_start(&self, seq: u64) -> L::State {
        self.inner.corrupted_start(self.seq.wrapping_add(seq))
    }
    fn apply(&self, s: &mut L::State, a: &DlAction) {
        self.inner.apply(s, a);
    }
    fn for_each_local(
        &self,
        s: &L::State,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.inner.for_each_local(s, f)
    }
}

crate::station_automaton!(@impl [L: StationLogic] CorruptedStart<L> => L::State);

impl<L: StationLogic + MessageIndependent> MessageIndependent for CorruptedStart<L> {
    fn relabel_state(&self, state: &Self::State, renaming: &MsgRenaming) -> Self::State {
        self.inner.relabel_state(state, renaming)
    }
}

/// Message-independence (§5.3.1) as an executable capability: applying a
/// message renaming to a state substitutes every stored message and touches
/// nothing else.
///
/// Implementations must satisfy (and the workspace property-tests) the
/// paper's axioms in this concrete form: for every reachable state `s`,
/// renaming `ρ`, and action `a` enabled in `s`,
///
/// * `ρ(a)` is enabled in `ρ(s)` (axioms 2–4), and
/// * `ρ(step(s, a)) = step(ρ(s), ρ(a))` (axiom 5),
///
/// where `ρ(a)` is [`MsgRenaming::apply_action`].
pub trait MessageIndependent: Automaton<Action = DlAction> {
    /// Applies `renaming` to every message stored in `state`.
    fn relabel_state(&self, state: &Self::State, renaming: &MsgRenaming) -> Self::State;
}

/// Static metadata a protocol declares about itself; consumed by the proof
/// engines and the benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolInfo {
    /// Human-readable protocol name.
    pub name: &'static str,
    /// `true` if both automata are *crashing* (§5.3.2): a crash resets them
    /// to their unique start state. Protocols with non-volatile memory are
    /// not crashing.
    pub crashing: bool,
    /// Number of distinct packet headers the protocol can ever send, if
    /// finite ("bounded headers", §5.3.1). `None` for protocols like
    /// Stenning's whose header space is unbounded.
    pub header_bound: Option<u64>,
    /// The paper's §8.1 `k`: some execution transmits any single message
    /// using at most `k` `receive_pkt^{t,r}` events, if such a bound is
    /// known. Most practical protocols are 1-bounded.
    pub k_bound: Option<usize>,
    /// The §9 extension: the protocol may interpret *simple* message
    /// content (e.g. length) as long as messages fall into finitely many
    /// equivalence classes, each infinite. `None` means fully
    /// message-independent (every message equivalent); `Some(c)` means
    /// messages are equivalent iff congruent modulo `c`, and the proof
    /// engines must draw fresh messages from the reference message's
    /// class.
    pub msg_class_modulus: Option<u64>,
}

/// A data link protocol: the pair `(Aᵗ, Aʳ)` plus its declared metadata.
#[derive(Debug, Clone)]
pub struct DataLinkProtocol<T, R> {
    /// The transmitting automaton `Aᵗ`.
    pub transmitter: T,
    /// The receiving automaton `Aʳ`.
    pub receiver: R,
    /// Declared constraints/capabilities.
    pub info: ProtocolInfo,
}

impl<T, R> DataLinkProtocol<T, R>
where
    T: StationAutomaton,
    R: StationAutomaton,
{
    /// Pairs a transmitter and receiver.
    ///
    /// # Panics
    ///
    /// Panics if `transmitter` is not at [`Station::T`] or `receiver` not
    /// at [`Station::R`].
    pub fn new(transmitter: T, receiver: R, info: ProtocolInfo) -> Self {
        assert_eq!(
            transmitter.station(),
            Station::T,
            "transmitter must be at station t"
        );
        assert_eq!(
            receiver.station(),
            Station::R,
            "receiver must be at station r"
        );
        DataLinkProtocol {
            transmitter,
            receiver,
            info,
        }
    }
}

/// Audits that an automaton's signature matches the canonical §5.1
/// signature for its station, on the given sample of actions.
///
/// # Errors
///
/// Returns the first action whose classification disagrees, with both
/// classifications.
pub fn check_station_signature<M>(
    automaton: &M,
    sample: &[DlAction],
) -> Result<(), (DlAction, Option<ActionClass>, Option<ActionClass>)>
where
    M: StationAutomaton,
{
    let station = automaton.station();
    for a in sample {
        let got = automaton.classify(a);
        let want = station_classify(station, a);
        if got != want {
            return Err((*a, got, want));
        }
    }
    Ok(())
}

/// Audits the *crashing* property (§5.3.2) on a sample of states: the
/// automaton must have a unique start state, and `crash` from every sample
/// state must step exactly to it.
///
/// # Errors
///
/// Returns a description of the first discrepancy.
pub fn check_crashing<M>(automaton: &M, sample: &[M::State]) -> Result<(), String>
where
    M: StationAutomaton,
{
    let starts = automaton.start_states();
    if starts.len() != 1 {
        return Err(format!(
            "crashing requires a unique start state; found {}",
            starts.len()
        ));
    }
    let q0 = &starts[0];
    let crash = DlAction::Crash(automaton.station());
    for s in sample {
        let succs = automaton.successors(s, &crash);
        if succs.as_slice() != std::slice::from_ref(q0) {
            return Err(format!(
                "crash from state {s:?} yields {succs:?}, expected exactly the start state {q0:?}"
            ));
        }
    }
    Ok(())
}

/// A sample of data-link actions covering every constructor, for signature
/// audits and compatibility checks.
#[must_use]
pub fn action_sample() -> Vec<DlAction> {
    use crate::action::{Msg, Packet};
    let p = Packet::data(0, Msg(0));
    let q = Packet::ack(1);
    let mut v = Vec::new();
    v.push(DlAction::SendMsg(Msg(0)));
    v.push(DlAction::ReceiveMsg(Msg(0)));
    for d in Dir::BOTH {
        v.push(DlAction::SendPkt(d, p));
        v.push(DlAction::SendPkt(d, q));
        v.push(DlAction::ReceivePkt(d, p));
        v.push(DlAction::ReceivePkt(d, q));
        v.push(DlAction::Wake(d));
        v.push(DlAction::Fail(d));
    }
    v.push(DlAction::Crash(Station::T));
    v.push(DlAction::Crash(Station::R));
    v.push(DlAction::Internal(Station::T, 0));
    v.push(DlAction::Internal(Station::R, 0));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Msg, Packet};
    use ioa::automaton::TaskId;

    #[test]
    fn transmitter_signature_matches_paper() {
        use ActionClass::*;
        let p = Packet::data(0, Msg(0));
        assert_eq!(
            transmitter_classify(&DlAction::SendMsg(Msg(0))),
            Some(Input)
        );
        assert_eq!(
            transmitter_classify(&DlAction::ReceivePkt(Dir::RT, p)),
            Some(Input)
        );
        assert_eq!(transmitter_classify(&DlAction::Wake(Dir::TR)), Some(Input));
        assert_eq!(transmitter_classify(&DlAction::Fail(Dir::TR)), Some(Input));
        assert_eq!(
            transmitter_classify(&DlAction::Crash(Station::T)),
            Some(Input)
        );
        assert_eq!(
            transmitter_classify(&DlAction::SendPkt(Dir::TR, p)),
            Some(Output)
        );
        assert_eq!(
            transmitter_classify(&DlAction::Internal(Station::T, 3)),
            Some(Internal)
        );
        // Not in the signature:
        assert_eq!(transmitter_classify(&DlAction::ReceiveMsg(Msg(0))), None);
        assert_eq!(transmitter_classify(&DlAction::SendPkt(Dir::RT, p)), None);
        assert_eq!(
            transmitter_classify(&DlAction::ReceivePkt(Dir::TR, p)),
            None
        );
        assert_eq!(transmitter_classify(&DlAction::Wake(Dir::RT)), None);
        assert_eq!(transmitter_classify(&DlAction::Crash(Station::R)), None);
        assert_eq!(
            transmitter_classify(&DlAction::Internal(Station::R, 0)),
            None
        );
    }

    #[test]
    fn receiver_signature_matches_paper() {
        use ActionClass::*;
        let p = Packet::data(0, Msg(0));
        assert_eq!(
            receiver_classify(&DlAction::ReceivePkt(Dir::TR, p)),
            Some(Input)
        );
        assert_eq!(receiver_classify(&DlAction::Wake(Dir::RT)), Some(Input));
        assert_eq!(receiver_classify(&DlAction::Fail(Dir::RT)), Some(Input));
        assert_eq!(receiver_classify(&DlAction::Crash(Station::R)), Some(Input));
        assert_eq!(
            receiver_classify(&DlAction::SendPkt(Dir::RT, p)),
            Some(Output)
        );
        assert_eq!(
            receiver_classify(&DlAction::ReceiveMsg(Msg(0))),
            Some(Output)
        );
        assert_eq!(receiver_classify(&DlAction::SendMsg(Msg(0))), None);
        assert_eq!(receiver_classify(&DlAction::SendPkt(Dir::TR, p)), None);
        assert_eq!(receiver_classify(&DlAction::Crash(Station::T)), None);
    }

    #[test]
    fn channel_signature_matches_paper() {
        use ActionClass::*;
        let p = Packet::data(0, Msg(0));
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::SendPkt(Dir::TR, p)),
            Some(Input)
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::ReceivePkt(Dir::TR, p)),
            Some(Output)
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::Wake(Dir::TR)),
            Some(Input)
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::Fail(Dir::TR)),
            Some(Input)
        );
        // crash^{t,r} (the transmitting station) is an input of PL^{t,r}.
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::Crash(Station::T)),
            Some(Input)
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::Crash(Station::R)),
            None
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::SendPkt(Dir::RT, p)),
            None
        );
        assert_eq!(channel_classify(Dir::TR, &DlAction::SendMsg(Msg(0))), None);
        // And symmetrically for r→t.
        assert_eq!(
            channel_classify(Dir::RT, &DlAction::Crash(Station::R)),
            Some(Input)
        );
    }

    /// Trivial conforming stations used to exercise the audits and the
    /// derived impls: inputs count (crash resets), nothing is local.
    #[derive(Clone)]
    struct NullTransmitter;
    #[derive(Clone)]
    struct NullReceiver;

    impl StationLogic for NullTransmitter {
        const STATION: Station = Station::T;
        fn corrupted_start(&self, seq: u64) -> u8 {
            seq as u8
        }
        fn apply(&self, s: &mut u8, a: &DlAction) {
            *s = if *a == DlAction::Crash(Station::T) {
                0
            } else {
                s.wrapping_add(1)
            };
        }
        fn for_each_local(
            &self,
            _s: &u8,
            _f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            ControlFlow::Continue(())
        }
    }

    impl StationLogic for NullReceiver {
        const STATION: Station = Station::R;
        fn corrupted_start(&self, _seq: u64) -> u8 {
            0
        }
        fn apply(&self, s: &mut u8, a: &DlAction) {
            if *a == DlAction::Crash(Station::R) {
                *s = 0;
            }
        }
        fn for_each_local(
            &self,
            _s: &u8,
            _f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            ControlFlow::Continue(())
        }
    }

    crate::station_automaton!(NullTransmitter => u8, NullReceiver => u8);

    #[test]
    fn derived_impls_follow_the_station() {
        assert_eq!(NullTransmitter.station(), Station::T);
        assert_eq!(NullReceiver.station(), Station::R);
        assert_eq!(NullTransmitter.task_count(), 1);
        assert_eq!(NullReceiver.task_count(), 2);
        assert_eq!(
            NullReceiver.task_of(&DlAction::ReceiveMsg(Msg(0))),
            TaskId(1)
        );
        let send = DlAction::SendPkt(Dir::RT, Packet::ack(0));
        assert_eq!(NullReceiver.task_of(&send), TaskId(0));
        // Inputs are enabled; an unoffered local action is not.
        assert_eq!(
            NullTransmitter.step_first(&4, &DlAction::Wake(Dir::TR)),
            Some(5)
        );
        assert!(!NullReceiver.is_enabled(&0, &send));
        let mut s = 3;
        assert!(!NullReceiver.step_in_place(&mut s, &send, &mut |_| Some(0)));
        assert_eq!(s, 3);
        // The adapter's start is the inner station's skewed start.
        let skewed = CorruptedStart::new(NullTransmitter, 7);
        assert_eq!(skewed.start_states(), vec![7]);
        assert_eq!(skewed.station(), Station::T);
    }

    #[test]
    fn signature_audit_accepts_conforming_automaton() {
        assert!(check_station_signature(&NullTransmitter, &action_sample()).is_ok());
        assert!(check_station_signature(&NullReceiver, &action_sample()).is_ok());
    }

    #[test]
    fn crashing_audit() {
        assert!(check_crashing(&NullTransmitter, &[0, 1, 2, 255]).is_ok());
        assert!(check_crashing(&NullReceiver, &[0, 7]).is_ok());
    }

    #[test]
    fn protocol_pairing_validates_stations() {
        let info = ProtocolInfo {
            name: "null",
            crashing: true,
            header_bound: Some(0),
            k_bound: None,
            msg_class_modulus: None,
        };
        let p = DataLinkProtocol::new(NullTransmitter, NullReceiver, info);
        assert_eq!(p.info.name, "null");
    }

    #[test]
    #[should_panic(expected = "transmitter must be at station t")]
    fn protocol_pairing_rejects_swapped_stations() {
        let info = ProtocolInfo {
            name: "bad",
            crashing: true,
            header_bound: None,
            k_bound: None,
            msg_class_modulus: None,
        };
        let _ = DataLinkProtocol::new(NullReceiver, NullReceiver, info);
    }

    #[test]
    fn owning_station_partitions_the_universe() {
        for a in action_sample() {
            let x = owning_station(&a);
            // The owner's signature contains the action; the other
            // station's does not.
            assert!(station_classify(x, &a).is_some(), "{a}");
            assert!(station_classify(x.other(), &a).is_none(), "{a}");
        }
    }

    #[test]
    fn action_sample_covers_all_constructors() {
        let sample = action_sample();
        assert!(sample.iter().any(|a| matches!(a, DlAction::SendMsg(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::ReceiveMsg(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::SendPkt(..))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::ReceivePkt(..))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::Wake(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::Fail(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::Crash(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::Internal(..))));
    }
}
