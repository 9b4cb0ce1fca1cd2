//! Simulated physical channels: the repro substitution for real
//! transmission media.
//!
//! The paper's channels are specifications; real media lose packets
//! (PL-FIFO) and, for some media, reorder them (PL). These automata model
//! that behavior executably:
//!
//! * [`LossyFifoChannel`] — a FIFO queue that may drop packets at send
//!   time, either nondeterministically (each send has a *kept* and a
//!   *dropped* successor, resolved by the executor) or deterministically
//!   (every `n`-th packet dropped, keeping the automaton fully
//!   deterministic for benchmarks). Solves `PL-FIFO` — verified by the
//!   property tests in this crate and in `tests/`.
//! * [`ReorderChannel`] — a bag of in-flight packets, any of which may be
//!   delivered next, with optional loss. Solves `PL` but not `PL-FIFO`.
//!
//! Both ignore `wake`/`fail`/`crash` like the permissive channels; PL1 is
//! the environment's obligation.

use std::ops::ControlFlow;

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, TaskId};

use dl_core::action::{Dir, DlAction, Packet};
use dl_core::protocol::channel_classify;
use ioa::intern::PackedCodec;

/// Loss behavior of a simulated channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossMode {
    /// Never drop.
    None,
    /// Each send nondeterministically kept or dropped; the executor's
    /// successor choice resolves it (uniformly, ≈50% loss under the seeded
    /// fair executor).
    Nondet,
    /// Deterministically drop every `n`-th packet (1-based count). `n`
    /// must be ≥ 2; use [`LossMode::None`] for lossless.
    EveryNth(u64),
}

/// State shared by the simulated channels: packets in flight plus a send
/// counter (for deterministic loss).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FlightState {
    /// Packets currently in flight, in send order.
    pub in_flight: Vec<Packet>,
    /// Total `send_pkt` events seen.
    pub sends: u64,
}

impl PackedCodec for FlightState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.in_flight.encode(out);
        self.sends.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Self {
        FlightState {
            in_flight: Vec::<Packet>::decode(input),
            sends: u64::decode(input),
        }
    }
}

/// Which in-flight packet a `receive_pkt` may take.
#[derive(Clone, Copy)]
enum Delivery {
    /// Only the oldest one ([`LossyFifoChannel`]).
    Head,
    /// Any of them ([`ReorderChannel`]).
    Any,
}

/// Position of the packet a receive of `p` takes, if it is deliverable.
fn deliverable(s: &FlightState, p: &Packet, delivery: Delivery) -> Option<usize> {
    match delivery {
        Delivery::Head => (s.in_flight.first() == Some(p)).then_some(0),
        Delivery::Any => s.in_flight.iter().position(|q| q == p),
    }
}

/// The shape shared by the simulated channels: direction, loss mode,
/// optional capacity and delivery rule.
#[derive(Clone, Copy)]
struct Flight {
    dir: Dir,
    mode: LossMode,
    capacity: Option<usize>,
    delivery: Delivery,
}

impl Flight {
    /// The transition, in place — the one home of the simulated
    /// channels' keep/drop/capacity logic. Once `a` is known to be
    /// enabled, asks `choose` for the successor count (a send under
    /// [`LossMode::Nondet`] has two: `0` keeps the packet, `1` drops it)
    /// and applies the pick; returns `false` with `s` untouched when `a`
    /// is disabled or `choose` declines.
    fn apply(
        self,
        s: &mut FlightState,
        a: &DlAction,
        choose: &mut dyn FnMut(usize) -> Option<usize>,
    ) -> bool {
        match a {
            DlAction::SendPkt(d, p) if *d == self.dir => {
                let n = if self.mode == LossMode::Nondet { 2 } else { 1 };
                let Some(pick) = choose(n) else {
                    return false;
                };
                let keep = match self.mode {
                    LossMode::None => true,
                    LossMode::Nondet => pick == 0,
                    LossMode::EveryNth(k) => {
                        debug_assert!(k >= 2, "EveryNth(n) requires n >= 2");
                        !(s.sends + 1).is_multiple_of(k)
                    }
                };
                // The send counter only drives EveryNth; leaving it
                // untouched in the other modes keeps the reachable state
                // space finite for exploration.
                if matches!(self.mode, LossMode::EveryNth(_)) {
                    s.sends += 1;
                }
                // A kept send arriving at a full channel is dropped too.
                if keep && self.capacity.is_none_or(|c| s.in_flight.len() < c) {
                    s.in_flight.push(*p);
                }
                true
            }
            DlAction::ReceivePkt(d, p) if *d == self.dir => {
                match deliverable(s, p, self.delivery) {
                    Some(k) if choose(1).is_some() => {
                        s.in_flight.remove(k);
                        true
                    }
                    _ => false,
                }
            }
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => choose(1).is_some(),
            DlAction::Crash(x) if *x == self.dir.sender() => choose(1).is_some(),
            _ => false,
        }
    }

    /// Visits the successors of `(s, a)` in pick order, each a clone of
    /// `s` stepped by [`apply`](Self::apply) — so `successors` and
    /// `try_for_each_successor` enumerate exactly what `step_in_place`
    /// picks.
    fn for_each_successor(
        self,
        s: &FlightState,
        a: &DlAction,
        f: &mut dyn FnMut(FlightState) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let (mut i, mut n) = (0, 1);
        while i < n {
            let mut t = s.clone();
            if !self.apply(&mut t, a, &mut |count| {
                n = count;
                Some(i)
            }) {
                break;
            }
            f(t)?;
            i += 1;
        }
        ControlFlow::Continue(())
    }

    fn successors(self, s: &FlightState, a: &DlAction) -> Vec<FlightState> {
        let mut out = Vec::new();
        let _ = self.for_each_successor(s, a, &mut |t| {
            out.push(t);
            ControlFlow::Continue(())
        });
        out
    }

    /// Clone-free enabledness: every input is enabled; a receive needs
    /// its packet deliverable.
    fn is_enabled(self, s: &FlightState, a: &DlAction) -> bool {
        match a {
            DlAction::ReceivePkt(d, p) if *d == self.dir => {
                deliverable(s, p, self.delivery).is_some()
            }
            _ => channel_classify(self.dir, a).is_some(),
        }
    }
}

/// Puts a stepped flight back to `from`, reusing its packet buffer.
fn restore_flight(s: &mut FlightState, from: &FlightState) {
    s.in_flight.clone_from(&from.in_flight);
    s.sends = from.sends;
}

/// A lossy FIFO channel: solves `PL-FIFO` (delivers the head of the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossyFifoChannel {
    dir: Dir,
    mode: LossMode,
    capacity: Option<usize>,
}

impl LossyFifoChannel {
    /// A FIFO channel with the given direction and loss mode.
    #[must_use]
    pub fn new(dir: Dir, mode: LossMode) -> Self {
        LossyFifoChannel {
            dir,
            mode,
            capacity: None,
        }
    }

    /// A FIFO channel that additionally drops sends arriving while
    /// `capacity` packets are already in flight — keeps the reachable
    /// state space finite for exhaustive exploration.
    #[must_use]
    pub fn with_capacity(dir: Dir, mode: LossMode, capacity: usize) -> Self {
        LossyFifoChannel {
            dir,
            mode,
            capacity: Some(capacity),
        }
    }

    /// A lossless FIFO channel.
    #[must_use]
    pub fn perfect(dir: Dir) -> Self {
        LossyFifoChannel::new(dir, LossMode::None)
    }

    /// This channel's direction.
    #[must_use]
    pub fn dir(&self) -> Dir {
        self.dir
    }

    /// This channel's loss mode.
    #[must_use]
    pub fn mode(&self) -> LossMode {
        self.mode
    }

    fn flight(&self) -> Flight {
        Flight {
            dir: self.dir,
            mode: self.mode,
            capacity: self.capacity,
            delivery: Delivery::Head,
        }
    }
}

impl Automaton for LossyFifoChannel {
    type Action = DlAction;
    type State = FlightState;

    fn start_states(&self) -> Vec<FlightState> {
        vec![FlightState::default()]
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        channel_classify(self.dir, a)
    }

    fn successors(&self, s: &FlightState, a: &DlAction) -> Vec<FlightState> {
        self.flight().successors(s, a)
    }

    fn try_for_each_successor(
        &self,
        s: &FlightState,
        a: &DlAction,
        f: &mut dyn FnMut(FlightState) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.flight().for_each_successor(s, a, f)
    }

    fn step_in_place(
        &self,
        s: &mut FlightState,
        a: &DlAction,
        choose: &mut dyn FnMut(usize) -> Option<usize>,
    ) -> bool {
        self.flight().apply(s, a, choose)
    }

    fn restore(&self, s: &mut FlightState, from: &FlightState, _a: &DlAction) {
        restore_flight(s, from);
    }

    fn is_enabled(&self, s: &FlightState, a: &DlAction) -> bool {
        self.flight().is_enabled(s, a)
    }

    fn enabled_local(&self, s: &FlightState) -> Vec<DlAction> {
        s.in_flight
            .first()
            .map(|p| DlAction::ReceivePkt(self.dir, *p))
            .into_iter()
            .collect()
    }

    fn for_each_enabled_local(
        &self,
        s: &FlightState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(p) = s.in_flight.first() {
            f(DlAction::ReceivePkt(self.dir, *p))?;
        }
        ControlFlow::Continue(())
    }

    fn task_of(&self, _a: &DlAction) -> TaskId {
        TaskId(0)
    }

    fn task_count(&self) -> usize {
        1
    }
}

/// A reordering (and optionally lossy) channel: any in-flight packet may be
/// delivered next. Solves `PL` but **not** `PL-FIFO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderChannel {
    dir: Dir,
    mode: LossMode,
    capacity: Option<usize>,
}

impl ReorderChannel {
    /// A reordering channel with the given direction and loss mode.
    #[must_use]
    pub fn new(dir: Dir, mode: LossMode) -> Self {
        ReorderChannel {
            dir,
            mode,
            capacity: None,
        }
    }

    /// A reordering channel with a bounded in-flight pool (overflow sends
    /// are dropped) — for exhaustive exploration.
    #[must_use]
    pub fn with_capacity(dir: Dir, mode: LossMode, capacity: usize) -> Self {
        ReorderChannel {
            dir,
            mode,
            capacity: Some(capacity),
        }
    }

    /// A lossless reordering channel.
    #[must_use]
    pub fn lossless(dir: Dir) -> Self {
        ReorderChannel::new(dir, LossMode::None)
    }

    /// This channel's direction.
    #[must_use]
    pub fn dir(&self) -> Dir {
        self.dir
    }

    fn flight(&self) -> Flight {
        Flight {
            dir: self.dir,
            mode: self.mode,
            capacity: self.capacity,
            delivery: Delivery::Any,
        }
    }
}

impl Automaton for ReorderChannel {
    type Action = DlAction;
    type State = FlightState;

    fn start_states(&self) -> Vec<FlightState> {
        vec![FlightState::default()]
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        channel_classify(self.dir, a)
    }

    fn successors(&self, s: &FlightState, a: &DlAction) -> Vec<FlightState> {
        self.flight().successors(s, a)
    }

    fn try_for_each_successor(
        &self,
        s: &FlightState,
        a: &DlAction,
        f: &mut dyn FnMut(FlightState) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.flight().for_each_successor(s, a, f)
    }

    fn step_in_place(
        &self,
        s: &mut FlightState,
        a: &DlAction,
        choose: &mut dyn FnMut(usize) -> Option<usize>,
    ) -> bool {
        self.flight().apply(s, a, choose)
    }

    fn restore(&self, s: &mut FlightState, from: &FlightState, _a: &DlAction) {
        restore_flight(s, from);
    }

    fn is_enabled(&self, s: &FlightState, a: &DlAction) -> bool {
        self.flight().is_enabled(s, a)
    }

    fn enabled_local(&self, s: &FlightState) -> Vec<DlAction> {
        let mut out = Vec::new();
        for p in &s.in_flight {
            let a = DlAction::ReceivePkt(self.dir, *p);
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }

    fn for_each_enabled_local(
        &self,
        s: &FlightState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Same first-occurrence dedup as `enabled_local`, without the
        // scratch Vec: flights are short, so the quadratic scan is cheap.
        for (i, p) in s.in_flight.iter().enumerate() {
            if s.in_flight[..i].iter().any(|q| q == p) {
                continue;
            }
            f(DlAction::ReceivePkt(self.dir, *p))?;
        }
        ControlFlow::Continue(())
    }

    fn task_of(&self, _a: &DlAction) -> TaskId {
        TaskId(0)
    }

    fn task_count(&self) -> usize {
        1
    }
}

/// State of a [`BurstLossChannel`]: the FIFO flight plus the position in
/// the deterministic good/bad cycle.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BurstState {
    /// Packets in flight, in send order.
    pub in_flight: Vec<Packet>,
    /// Position within the `good_len + bad_len` cycle.
    pub phase: u64,
}

/// A burst-loss FIFO channel: a deterministic Gilbert–Elliott-style model
/// that alternates a loss-free *good* stretch with a drop-everything *bad*
/// stretch, each measured in `send_pkt` events.
///
/// Burst loss is the signature failure mode of real radio and power-line
/// media; ARQ protocols see consecutive losses rather than independent
/// ones. The cycle is deterministic (part of the state), so runs stay
/// reproducible and the automaton solves `PL-FIFO` like its uniform-loss
/// sibling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstLossChannel {
    dir: Dir,
    good_len: u64,
    bad_len: u64,
}

impl BurstLossChannel {
    /// A channel that delivers `good_len` consecutive sends, then drops
    /// `bad_len` consecutive sends, repeating.
    ///
    /// # Panics
    ///
    /// Panics if `good_len == 0` (the channel would drop everything and
    /// could not satisfy any liveness expectation).
    #[must_use]
    pub fn new(dir: Dir, good_len: u64, bad_len: u64) -> Self {
        assert!(good_len > 0, "good stretch must be non-empty");
        BurstLossChannel {
            dir,
            good_len,
            bad_len,
        }
    }

    /// This channel's direction.
    #[must_use]
    pub fn dir(&self) -> Dir {
        self.dir
    }

    /// `(good_len, bad_len)`.
    #[must_use]
    pub fn cycle(&self) -> (u64, u64) {
        (self.good_len, self.bad_len)
    }

    fn in_bad_stretch(&self, phase: u64) -> bool {
        phase % (self.good_len + self.bad_len) >= self.good_len
    }
}

impl Automaton for BurstLossChannel {
    type Action = DlAction;
    type State = BurstState;

    fn start_states(&self) -> Vec<BurstState> {
        vec![BurstState::default()]
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        channel_classify(self.dir, a)
    }

    fn successors(&self, s: &BurstState, a: &DlAction) -> Vec<BurstState> {
        match a {
            DlAction::SendPkt(d, p) if *d == self.dir => {
                let mut t = s.clone();
                if !self.in_bad_stretch(s.phase) {
                    t.in_flight.push(*p);
                }
                t.phase = (t.phase + 1) % (self.good_len + self.bad_len);
                vec![t]
            }
            DlAction::ReceivePkt(d, p) if *d == self.dir => match s.in_flight.first() {
                Some(q) if q == p => {
                    let mut t = s.clone();
                    t.in_flight.remove(0);
                    vec![t]
                }
                _ => vec![],
            },
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => vec![s.clone()],
            DlAction::Crash(x) if *x == self.dir.sender() => vec![s.clone()],
            _ => vec![],
        }
    }

    fn try_for_each_successor(
        &self,
        s: &BurstState,
        a: &DlAction,
        f: &mut dyn FnMut(BurstState) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match a {
            DlAction::SendPkt(d, p) if *d == self.dir => {
                let mut t = s.clone();
                if !self.in_bad_stretch(s.phase) {
                    t.in_flight.push(*p);
                }
                t.phase = (t.phase + 1) % (self.good_len + self.bad_len);
                f(t)
            }
            DlAction::ReceivePkt(d, p) if *d == self.dir => match s.in_flight.first() {
                Some(q) if q == p => {
                    let mut t = s.clone();
                    t.in_flight.remove(0);
                    f(t)
                }
                _ => ControlFlow::Continue(()),
            },
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => f(s.clone()),
            DlAction::Crash(x) if *x == self.dir.sender() => f(s.clone()),
            _ => ControlFlow::Continue(()),
        }
    }

    fn enabled_local(&self, s: &BurstState) -> Vec<DlAction> {
        s.in_flight
            .first()
            .map(|p| DlAction::ReceivePkt(self.dir, *p))
            .into_iter()
            .collect()
    }

    fn for_each_enabled_local(
        &self,
        s: &BurstState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(p) = s.in_flight.first() {
            f(DlAction::ReceivePkt(self.dir, *p))?;
        }
        ControlFlow::Continue(())
    }

    fn task_of(&self, _a: &DlAction) -> TaskId {
        TaskId(0)
    }

    fn task_count(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::action::Msg;

    fn pkt(n: u64) -> Packet {
        Packet::data(n, Msg(n)).with_uid(n + 100)
    }

    #[test]
    fn fifo_delivers_in_order() {
        let ch = LossyFifoChannel::perfect(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..3 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(n)))
                .unwrap();
        }
        for n in 0..3 {
            let a = DlAction::ReceivePkt(Dir::TR, pkt(n));
            assert_eq!(ch.enabled_local(&s), vec![a]);
            s = ch.step_first(&s, &a).unwrap();
        }
        assert!(ch.enabled_local(&s).is_empty());
    }

    #[test]
    fn nondet_loss_offers_both_outcomes() {
        let ch = LossyFifoChannel::new(Dir::TR, LossMode::Nondet);
        let s = ch.start_states().remove(0);
        let succs = ch.successors(&s, &DlAction::SendPkt(Dir::TR, pkt(0)));
        assert_eq!(succs.len(), 2);
        assert_eq!(succs[0].in_flight.len(), 1);
        assert_eq!(succs[1].in_flight.len(), 0);
        // Nondet mode does not track the send counter (it never reads
        // it), keeping the state space finite for exploration.
        assert!(succs.iter().all(|t| t.sends == 0));
    }

    #[test]
    fn every_nth_drops_deterministically() {
        let ch = LossyFifoChannel::new(Dir::TR, LossMode::EveryNth(3));
        let mut s = ch.start_states().remove(0);
        for n in 0..6 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(n)))
                .unwrap();
        }
        // Packets 3rd and 6th (indices 2, 5) were dropped.
        let kept: Vec<u64> = s.in_flight.iter().map(|p| p.header.seq).collect();
        assert_eq!(kept, vec![0, 1, 3, 4]);
        assert_eq!(s.sends, 6);
    }

    #[test]
    fn reorder_offers_every_in_flight_packet() {
        let ch = ReorderChannel::lossless(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..3 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(n)))
                .unwrap();
        }
        let enabled = ch.enabled_local(&s);
        assert_eq!(enabled.len(), 3);
        // Deliver the last-sent first: allowed.
        let s = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, pkt(2)))
            .unwrap();
        assert_eq!(s.in_flight.len(), 2);
    }

    #[test]
    fn reorder_removes_one_copy() {
        let ch = ReorderChannel::lossless(Dir::TR);
        let mut s = ch.start_states().remove(0);
        // Two distinct packets with equal content but different uids.
        let a = pkt(0).with_uid(1);
        let b = pkt(0).with_uid(2);
        s = ch.step_first(&s, &DlAction::SendPkt(Dir::TR, a)).unwrap();
        s = ch.step_first(&s, &DlAction::SendPkt(Dir::TR, b)).unwrap();
        assert_eq!(ch.enabled_local(&s).len(), 2);
        let s = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, a))
            .unwrap();
        assert_eq!(s.in_flight, vec![b]);
    }

    #[test]
    fn receive_of_absent_packet_disabled() {
        let ch = ReorderChannel::lossless(Dir::TR);
        let s = ch.start_states().remove(0);
        assert!(!ch.is_enabled(&s, &DlAction::ReceivePkt(Dir::TR, pkt(9))));
        let f = LossyFifoChannel::perfect(Dir::TR);
        assert!(!f.is_enabled(&s, &DlAction::ReceivePkt(Dir::TR, pkt(9))));
    }

    #[test]
    fn status_actions_are_noops() {
        let ch = LossyFifoChannel::perfect(Dir::RT);
        let s = ch.start_states().remove(0);
        assert_eq!(ch.successors(&s, &DlAction::Wake(Dir::RT)), vec![s.clone()]);
        assert_eq!(
            ch.successors(&s, &DlAction::Crash(dl_core::action::Station::R)),
            vec![s.clone()]
        );
        assert!(ch.successors(&s, &DlAction::Wake(Dir::TR)).is_empty());
    }

    #[test]
    fn accessors() {
        let ch = LossyFifoChannel::new(Dir::TR, LossMode::EveryNth(4));
        assert_eq!(ch.dir(), Dir::TR);
        assert_eq!(ch.mode(), LossMode::EveryNth(4));
        assert_eq!(ReorderChannel::lossless(Dir::RT).dir(), Dir::RT);
    }

    #[test]
    fn burst_channel_drops_in_stretches() {
        let ch = BurstLossChannel::new(Dir::TR, 2, 2);
        let mut s = ch.start_states().remove(0);
        for n in 0..8 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(n)))
                .unwrap();
        }
        // Cycle of 4: sends 0,1 kept; 2,3 dropped; 4,5 kept; 6,7 dropped.
        let kept: Vec<u64> = s.in_flight.iter().map(|p| p.header.seq).collect();
        assert_eq!(kept, vec![0, 1, 4, 5]);
        // Delivery is FIFO.
        let a = DlAction::ReceivePkt(Dir::TR, pkt(0));
        assert_eq!(ch.enabled_local(&s), vec![a]);
    }

    #[test]
    fn burst_channel_lossless_when_bad_is_zero() {
        let ch = BurstLossChannel::new(Dir::TR, 3, 0);
        let mut s = ch.start_states().remove(0);
        for n in 0..6 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(n)))
                .unwrap();
        }
        assert_eq!(s.in_flight.len(), 6);
        assert_eq!(ch.cycle(), (3, 0));
        assert_eq!(ch.dir(), Dir::TR);
    }

    #[test]
    #[should_panic(expected = "good stretch")]
    fn burst_channel_rejects_empty_good_stretch() {
        let _ = BurstLossChannel::new(Dir::TR, 0, 2);
    }
}
