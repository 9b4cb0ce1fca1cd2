//! The data link layer schedule modules `DL` and `WDL` (paper §4).
//!
//! `DL^{t,r}` allows a trace β when: *if* β is well-formed and satisfies the
//! environment properties DL1–DL3, *then* β satisfies DL4–DL8. The weaker
//! `WDL^{t,r}` only demands DL4, DL5, and DL8 — and is all the
//! impossibility proofs need: a protocol that fails `WDL` certainly fails
//! `DL` (`scheds(DL) ⊆ scheds(WDL)`).
//!
//! DL8 is a liveness property ("every message sent in an unbounded
//! transmitter working interval is eventually received"). On a *complete*
//! trace — the whole behavior of a fair execution that ended quiescent —
//! "eventually" must already have happened, so DL8 is decidable and
//! checked; on a [`TraceKind::Prefix`] it is skipped.
//!
//! Since the streaming-checker rewrite, the module and the standalone
//! DL3–DL7 checkers are thin replay wrappers over
//! [`crate::spec::monitor::TraceMonitor`]: one linear pass, identical
//! verdicts, shared with the online monitor used during simulation.

use std::collections::HashSet;

use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict, Violation};

use crate::action::{Dir, DlAction, Msg};
use crate::spec::monitor::TraceMonitor;
use crate::spec::wellformed::MediumTimeline;

/// The data-link-layer specification: `DL^{t,r}` or the weak `WDL^{t,r}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlModule {
    weak: bool,
}

impl DlModule {
    /// The full specification `DL^{t,r}` (DL4–DL8).
    #[must_use]
    pub fn full() -> Self {
        DlModule { weak: false }
    }

    /// The weak specification `WDL^{t,r}` (DL4, DL5, DL8 only).
    #[must_use]
    pub fn weak() -> Self {
        DlModule { weak: true }
    }
}

impl ScheduleModule for DlModule {
    type Action = DlAction;

    fn check(&self, trace: &[DlAction], kind: TraceKind) -> Verdict {
        TraceMonitor::scan(trace).dl_verdict(self.weak, kind)
    }
}

/// DL1: there is an unbounded transmitter working interval iff there is an
/// unbounded receiver working interval.
#[must_use]
pub fn check_dl1(tx: &MediumTimeline, rx: &MediumTimeline) -> Option<Violation> {
    match (tx.unbounded().is_some(), rx.unbounded().is_some()) {
        (true, false) => Some(Violation {
            property: "DL1",
            at: None,
            reason: "unbounded transmitter working interval without an unbounded receiver one"
                .into(),
        }),
        (false, true) => Some(Violation {
            property: "DL1",
            at: None,
            reason: "unbounded receiver working interval without an unbounded transmitter one"
                .into(),
        }),
        _ => None,
    }
}

/// DL2: every `send_msg^{t,r}` event occurs in a transmitter working
/// interval.
#[must_use]
pub fn check_dl2(trace: &[DlAction], tx: &MediumTimeline) -> Option<Violation> {
    debug_assert_eq!(tx.dir(), Dir::TR);
    for (i, a) in trace.iter().enumerate() {
        if let DlAction::SendMsg(m) = a {
            if !tx.in_working_interval(i) {
                return Some(Violation {
                    property: "DL2",
                    at: Some(i),
                    reason: format!("send_msg({m}) outside any transmitter working interval"),
                });
            }
        }
    }
    None
}

/// DL3: for every message `m`, at most one `send_msg^{t,r}(m)` event.
#[must_use]
pub fn check_dl3(trace: &[DlAction]) -> Option<Violation> {
    TraceMonitor::scan(trace).dl_violation(3).cloned()
}

/// DL4: for every message `m`, at most one `receive_msg^{t,r}(m)` event.
#[must_use]
pub fn check_dl4(trace: &[DlAction]) -> Option<Violation> {
    TraceMonitor::scan(trace).dl_violation(4).cloned()
}

/// DL5: every `receive_msg^{t,r}(m)` is preceded by a `send_msg^{t,r}(m)`.
#[must_use]
pub fn check_dl5(trace: &[DlAction]) -> Option<Violation> {
    TraceMonitor::scan(trace).dl_violation(5).cloned()
}

/// DL6 (FIFO): messages that are both sent and received are received in the
/// order they were sent.
///
/// Each received message is matched to its unique send position (DL3,
/// checked before DL6 by the module, guarantees uniqueness); positions must
/// be non-decreasing. A duplicate send (DL3's violation to report) or a
/// receive of a not-yet-sent message (DL5's) ends FIFO judgement —
/// violations found before that point stand, so a legal retransmission is
/// never misflagged as reordering.
#[must_use]
pub fn check_dl6(trace: &[DlAction]) -> Option<Violation> {
    TraceMonitor::scan(trace).dl_violation(6).cloned()
}

/// DL7 (no gaps): if `m` is sent before `m'` within one transmitter working
/// interval and `m'` is received, then `m` is received too.
///
/// Judged against the transmitter (`t → r`) working intervals of `trace`
/// itself; on a trace that is not well-formed for the transmitter the
/// grouping of sends into intervals is best-effort (the module verdict is
/// vacuous in that case anyway).
#[must_use]
pub fn check_dl7(trace: &[DlAction]) -> Option<Violation> {
    TraceMonitor::scan(trace).dl7_violation()
}

/// DL8 (liveness; checked on complete traces only): every message sent in
/// an unbounded transmitter working interval is received.
#[must_use]
pub fn check_dl8(trace: &[DlAction], tx: &MediumTimeline) -> Option<Violation> {
    debug_assert_eq!(tx.dir(), Dir::TR);
    let unbounded = tx.unbounded()?;
    let received: HashSet<Msg> = trace
        .iter()
        .filter_map(|a| match a {
            DlAction::ReceiveMsg(m) => Some(*m),
            _ => None,
        })
        .collect();
    for (i, a) in trace.iter().enumerate() {
        if let DlAction::SendMsg(m) = a {
            if unbounded.contains(i) && !received.contains(m) {
                return Some(Violation {
                    property: "DL8",
                    at: Some(i),
                    reason: format!(
                        "message {m} sent in the unbounded transmitter working interval but \
                         never received (trace is complete)"
                    ),
                });
            }
        }
    }
    None
}

/// A sequence is **valid** (paper §8.1): well-formed, satisfies DL1–DL5 and
/// DL8, and contains a `wake` but no `fail` or `crash` events.
///
/// Valid sequences are the setting of the header-impossibility proof; by
/// the paper's Lemma 8.1, in a valid sequence every sent message is
/// received.
#[must_use]
pub fn is_valid(trace: &[DlAction]) -> bool {
    let mon = TraceMonitor::scan(trace);
    // WDL on a complete trace checks exactly well-formedness, DL1–DL5 and
    // DL8; validity additionally demands a wake and no fail/crash.
    mon.saw_wake()
        && !mon.saw_fail_or_crash()
        && mon.dl_verdict(true, TraceKind::Complete) == Verdict::Satisfied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Station;

    use DlAction::{Crash, Fail, ReceiveMsg, SendMsg, Wake};

    fn preamble() -> Vec<DlAction> {
        vec![Wake(Dir::TR), Wake(Dir::RT)]
    }

    #[test]
    fn lemma_4_1_behavior_is_allowed() {
        let mut t = preamble();
        t.extend([SendMsg(Msg(1)), ReceiveMsg(Msg(1))]);
        assert_eq!(
            DlModule::weak().check(&t, TraceKind::Complete),
            Verdict::Satisfied
        );
        assert_eq!(
            DlModule::full().check(&t, TraceKind::Complete),
            Verdict::Satisfied
        );
    }

    #[test]
    fn duplicate_delivery_violates_dl4() {
        let mut t = preamble();
        t.extend([SendMsg(Msg(1)), ReceiveMsg(Msg(1)), ReceiveMsg(Msg(1))]);
        let v = DlModule::weak().check(&t, TraceKind::Complete);
        assert_eq!(v.violation().unwrap().property, "DL4");
    }

    #[test]
    fn phantom_delivery_violates_dl5() {
        let mut t = preamble();
        t.push(ReceiveMsg(Msg(9)));
        let v = DlModule::weak().check(&t, TraceKind::Prefix);
        assert_eq!(v.violation().unwrap().property, "DL5");
    }

    #[test]
    fn reordered_delivery_violates_dl6_in_full_only() {
        let mut t = preamble();
        t.extend([
            SendMsg(Msg(1)),
            SendMsg(Msg(2)),
            ReceiveMsg(Msg(2)),
            ReceiveMsg(Msg(1)),
        ]);
        assert!(DlModule::weak().check(&t, TraceKind::Prefix).is_allowed());
        let v = DlModule::full().check(&t, TraceKind::Prefix);
        assert_eq!(v.violation().unwrap().property, "DL6 (FIFO)");
    }

    #[test]
    fn gap_violates_dl7_in_full_only() {
        // m1 lost, m2 (same working interval) delivered.
        let t = vec![
            Wake(Dir::TR),
            Wake(Dir::RT),
            SendMsg(Msg(1)),
            SendMsg(Msg(2)),
            ReceiveMsg(Msg(2)),
            Fail(Dir::TR),
            Fail(Dir::RT),
        ];
        assert!(DlModule::weak().check(&t, TraceKind::Prefix).is_allowed());
        let v = DlModule::full().check(&t, TraceKind::Prefix);
        assert_eq!(v.violation().unwrap().property, "DL7");
    }

    #[test]
    fn gap_across_working_intervals_is_fine() {
        // m1 sent in a working interval that failed; losing it is allowed
        // even though the later m2 is delivered.
        let t = vec![
            Wake(Dir::TR),
            Wake(Dir::RT),
            SendMsg(Msg(1)),
            Fail(Dir::TR),
            Wake(Dir::TR),
            SendMsg(Msg(2)),
            ReceiveMsg(Msg(2)),
        ];
        assert_eq!(
            DlModule::full().check(&t, TraceKind::Complete),
            Verdict::Satisfied
        );
    }

    #[test]
    fn undelivered_message_violates_dl8_on_complete_traces() {
        let mut t = preamble();
        t.push(SendMsg(Msg(1)));
        assert!(DlModule::weak().check(&t, TraceKind::Prefix).is_allowed());
        let v = DlModule::weak().check(&t, TraceKind::Complete);
        assert_eq!(v.violation().unwrap().property, "DL8");
    }

    #[test]
    fn dl8_not_required_after_fail() {
        // The working interval is bounded (ends in fail), so the loss is
        // allowed even on a complete trace.
        let t = vec![
            Wake(Dir::TR),
            Wake(Dir::RT),
            SendMsg(Msg(1)),
            Fail(Dir::TR),
            Fail(Dir::RT),
        ];
        assert_eq!(
            DlModule::weak().check(&t, TraceKind::Complete),
            Verdict::Satisfied
        );
    }

    #[test]
    fn send_outside_working_interval_is_vacuous_dl2() {
        let t = vec![SendMsg(Msg(1))];
        match DlModule::weak().check(&t, TraceKind::Prefix) {
            Verdict::Vacuous(v) => assert_eq!(v.property, "DL2"),
            other => panic!("expected vacuous DL2, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_send_is_vacuous_dl3() {
        let mut t = preamble();
        t.extend([SendMsg(Msg(1)), SendMsg(Msg(1))]);
        match DlModule::weak().check(&t, TraceKind::Prefix) {
            Verdict::Vacuous(v) => assert_eq!(v.property, "DL3"),
            other => panic!("expected vacuous DL3, got {other:?}"),
        }
    }

    #[test]
    fn asymmetric_unbounded_interval_is_vacuous_dl1() {
        let t = vec![Wake(Dir::TR)];
        match DlModule::weak().check(&t, TraceKind::Prefix) {
            Verdict::Vacuous(v) => assert_eq!(v.property, "DL1"),
            other => panic!("expected vacuous DL1, got {other:?}"),
        }
    }

    #[test]
    fn malformed_environment_is_vacuous() {
        let t = vec![Fail(Dir::TR)];
        match DlModule::weak().check(&t, TraceKind::Prefix) {
            Verdict::Vacuous(v) => assert_eq!(v.property, "well-formedness"),
            other => panic!("expected vacuous, got {other:?}"),
        }
    }

    #[test]
    fn crash_resets_receiver_timeline_too() {
        let t = vec![
            Wake(Dir::TR),
            Wake(Dir::RT),
            Crash(Station::R),
            Wake(Dir::RT),
            SendMsg(Msg(1)),
            ReceiveMsg(Msg(1)),
        ];
        assert_eq!(
            DlModule::weak().check(&t, TraceKind::Complete),
            Verdict::Satisfied
        );
    }

    #[test]
    fn validity_definition() {
        let mut t = preamble();
        t.extend([SendMsg(Msg(1)), ReceiveMsg(Msg(1))]);
        assert!(is_valid(&t));

        // No wake: not valid.
        assert!(!is_valid(&[]));

        // Contains fail: not valid.
        let mut t2 = preamble();
        t2.push(Fail(Dir::TR));
        assert!(!is_valid(&t2));

        // Sent but unreceived message: violates DL8, not valid.
        let mut t3 = preamble();
        t3.push(SendMsg(Msg(1)));
        assert!(!is_valid(&t3));
    }

    #[test]
    fn lemma_8_2_extension_preserves_validity() {
        // A valid sequence extended with send(m) receive(m) stays valid.
        let mut t = preamble();
        t.extend([SendMsg(Msg(1)), ReceiveMsg(Msg(1))]);
        assert!(is_valid(&t));
        t.extend([SendMsg(Msg(2)), ReceiveMsg(Msg(2))]);
        assert!(is_valid(&t));
    }
}
