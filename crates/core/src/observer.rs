//! A WDL-safety observer automaton, for exhaustive model checking.
//!
//! The trace checkers of [`crate::spec`] judge recorded behaviors; for
//! *state-space exploration* it is more convenient to compose the system
//! with an observer whose state carries the verdict, so that an invariant
//! over composed states ("the observer has not flagged anything") captures
//! the safety part of `WDL`.
//!
//! [`WdlObserver`] watches `send_msg`/`receive_msg` and flags:
//!
//! * **DL4** — a message delivered twice;
//! * **DL5** — a message delivered that was never sent.
//!
//! It is an ordinary I/O automaton with only input actions, so it is
//! strongly compatible with any data link implementation (it shares
//! `send_msg` as an input with the transmitter and takes the receiver's
//! `receive_msg` output as input).

use std::collections::BTreeSet;

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, TaskId};
use ioa::intern::{read_delta_seq, write_delta_seq, PackedCodec};

use crate::action::{DlAction, Msg};

/// Which safety property the observer saw violated first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SafetyFlag {
    /// DL4: duplicate delivery.
    Duplicate(Msg),
    /// DL5: phantom delivery.
    Phantom(Msg),
}

/// Observer state: the messages seen so far plus the first violation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ObserverState {
    /// Messages handed to the data link so far.
    pub sent: BTreeSet<Msg>,
    /// Messages delivered by the data link so far.
    pub received: BTreeSet<Msg>,
    /// First safety violation observed, if any (sticky).
    pub flag: Option<SafetyFlag>,
}

impl ObserverState {
    /// `true` while no violation has been observed.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.flag.is_none()
    }
}

impl PackedCodec for SafetyFlag {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SafetyFlag::Duplicate(m) => {
                out.push(0);
                m.encode(out);
            }
            SafetyFlag::Phantom(m) => {
                out.push(1);
                m.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Self {
        match u8::decode(input) {
            0 => SafetyFlag::Duplicate(Msg::decode(input)),
            1 => SafetyFlag::Phantom(Msg::decode(input)),
            other => panic!("invalid SafetyFlag discriminant {other}"),
        }
    }
}

impl PackedCodec for ObserverState {
    fn encode(&self, out: &mut Vec<u8>) {
        // The message sets are sorted by construction — exactly the
        // shape delta coding wants.
        write_delta_seq(out, self.sent.len(), self.sent.iter().map(|m| m.0));
        write_delta_seq(out, self.received.len(), self.received.iter().map(|m| m.0));
        self.flag.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Self {
        let mut sent = BTreeSet::new();
        read_delta_seq(input, |v| {
            sent.insert(Msg(v));
        });
        let mut received = BTreeSet::new();
        read_delta_seq(input, |v| {
            received.insert(Msg(v));
        });
        ObserverState {
            sent,
            received,
            flag: Option::<SafetyFlag>::decode(input),
        }
    }
}

/// The WDL-safety observer automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WdlObserver;

impl WdlObserver {
    /// The transition, in place: for an action in the signature (both
    /// are inputs, so always enabled) asks `choose(1)` and, unless it
    /// declines, records the action in `s`. Returns `false` with `s`
    /// untouched otherwise. The one home of the observer's transition
    /// logic: `successors` and `step_in_place` both run it.
    fn apply(
        &self,
        s: &mut ObserverState,
        a: &DlAction,
        choose: &mut dyn FnMut(usize) -> Option<usize>,
    ) -> bool {
        if self.classify(a).is_none() || choose(1).is_none() {
            return false;
        }
        match a {
            DlAction::SendMsg(m) => {
                s.sent.insert(*m);
            }
            DlAction::ReceiveMsg(m) => {
                if s.flag.is_none() {
                    if s.received.contains(m) {
                        s.flag = Some(SafetyFlag::Duplicate(*m));
                    } else if !s.sent.contains(m) {
                        s.flag = Some(SafetyFlag::Phantom(*m));
                    }
                }
                s.received.insert(*m);
            }
            _ => {}
        }
        true
    }
}

impl Automaton for WdlObserver {
    type Action = DlAction;
    type State = ObserverState;

    fn start_states(&self) -> Vec<ObserverState> {
        vec![ObserverState::default()]
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        match a {
            DlAction::SendMsg(_) | DlAction::ReceiveMsg(_) => Some(ActionClass::Input),
            _ => None,
        }
    }

    fn successors(&self, s: &ObserverState, a: &DlAction) -> Vec<ObserverState> {
        let mut t = s.clone();
        if self.apply(&mut t, a, &mut |_| Some(0)) {
            vec![t]
        } else {
            vec![]
        }
    }

    fn step_in_place(
        &self,
        s: &mut ObserverState,
        a: &DlAction,
        choose: &mut dyn FnMut(usize) -> Option<usize>,
    ) -> bool {
        self.apply(s, a, choose)
    }

    fn is_enabled(&self, _s: &ObserverState, a: &DlAction) -> bool {
        // Only inputs, so enabled exactly on the signature — no clone.
        self.classify(a).is_some()
    }

    fn restore(&self, s: &mut ObserverState, from: &ObserverState, a: &DlAction) {
        // A step adds at most one message to one set and can only set the
        // flag, so undoing it is one removal — neither set is rebuilt.
        match a {
            DlAction::SendMsg(m) if !from.sent.contains(m) => {
                s.sent.remove(m);
            }
            DlAction::ReceiveMsg(m) => {
                if !from.received.contains(m) {
                    s.received.remove(m);
                }
                s.flag = from.flag;
            }
            _ => {}
        }
    }

    fn enabled_local(&self, _s: &ObserverState) -> Vec<DlAction> {
        vec![]
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

    fn drive(actions: &[DlAction]) -> ObserverState {
        let o = WdlObserver;
        let mut s = o.start_states().remove(0);
        for a in actions {
            s = o.step_first(&s, a).unwrap();
        }
        s
    }

    #[test]
    fn clean_exchange_is_safe() {
        let s = drive(&[
            DlAction::SendMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
            DlAction::SendMsg(Msg(2)),
            DlAction::ReceiveMsg(Msg(2)),
        ]);
        assert!(s.is_safe());
        assert_eq!(s.sent.len(), 2);
        assert_eq!(s.received.len(), 2);
    }

    #[test]
    fn duplicate_delivery_flags_dl4() {
        let s = drive(&[
            DlAction::SendMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
        ]);
        assert_eq!(s.flag, Some(SafetyFlag::Duplicate(Msg(1))));
    }

    #[test]
    fn phantom_delivery_flags_dl5() {
        let s = drive(&[DlAction::ReceiveMsg(Msg(9))]);
        assert_eq!(s.flag, Some(SafetyFlag::Phantom(Msg(9))));
    }

    #[test]
    fn first_flag_is_sticky() {
        let s = drive(&[
            DlAction::ReceiveMsg(Msg(9)),
            DlAction::SendMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
        ]);
        assert_eq!(s.flag, Some(SafetyFlag::Phantom(Msg(9))));
    }

    #[test]
    fn other_actions_out_of_signature() {
        let o = WdlObserver;
        assert_eq!(o.classify(&DlAction::Wake(crate::action::Dir::TR)), None);
        assert!(o
            .successors(
                &ObserverState::default(),
                &DlAction::Wake(crate::action::Dir::TR)
            )
            .is_empty());
        assert!(o.enabled_local(&ObserverState::default()).is_empty());
    }
}
