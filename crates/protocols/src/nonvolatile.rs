//! The non-volatile epoch protocol: crash tolerance via non-volatile
//! memory.
//!
//! Theorem 7.5 shows that *without* non-volatile storage no data link
//! protocol tolerates host crashes; Baratz and Segall ("BS83") show that
//! *with* a single non-volatile bit, crash-tolerant link initialization is
//! possible. This module realizes that boundary with an **epoch protocol**:
//!
//! * the transmitter keeps a non-volatile *epoch counter*; a crash wipes
//!   its volatile state (message queue, sequence number, medium status) but
//!   preserves — and advances — the epoch;
//! * data and ack headers carry `(epoch, seq)`; the receiver ignores
//!   packets from epochs older than the newest it has seen and resets its
//!   expectation on a newer epoch;
//! * the receiver's delivery bookkeeping is likewise non-volatile, so a
//!   receiver crash cannot make it re-accept old data.
//!
//! This is intentionally coarser than \[BS83\] (which achieves the same
//! with bounded memory plus one non-volatile bit and an explicit
//! initialization handshake); the property demonstrated is the paper's
//! *hypothesis boundary* — the crash-impossibility engine's pump fails
//! against this protocol precisely because it is **not crashing** in the
//! §5.3.2 sense: `crash` does not restore the unique start state. See
//! DESIGN.md ("Substitutions") for the rationale.
//!
//! Headers encode the pair as `epoch · 2³² + seq`; both components are
//! unbounded in principle, so the protocol does *not* have bounded headers
//! (that is fine: the crash theorem is about FIFO channels, not headers).

use std::collections::VecDeque;
use std::ops::ControlFlow;

use dl_core::action::{Dir, DlAction, Msg, Packet, Station, Tag};
use dl_core::equivalence::MsgRenaming;
use dl_core::protocol::{DataLinkProtocol, MessageIndependent, ProtocolInfo, StationLogic};

use crate::abp::push_ack;
use ioa::intern::PackedCodec;

/// Packs `(epoch, seq)` into a header sequence value.
#[must_use]
pub fn pack(epoch: u64, seq: u64) -> u64 {
    debug_assert!(epoch < (1 << 32) && seq < (1 << 32));
    (epoch << 32) | seq
}

/// Unpacks a header sequence value into `(epoch, seq)`.
#[must_use]
pub fn unpack(packed: u64) -> (u64, u64) {
    (packed >> 32, packed & 0xFFFF_FFFF)
}

/// State of the non-volatile transmitter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NvTxState {
    /// `true` while the `t → r` medium is active (volatile).
    pub active: bool,
    /// Non-volatile epoch counter; incremented by every crash.
    pub epoch: u64,
    /// Sequence number of the front message within this epoch (volatile).
    pub seq: u64,
    /// Pending messages (volatile — lost by a crash, which is allowed:
    /// a crash bounds the transmitter working interval).
    pub queue: VecDeque<Msg>,
}

/// The non-volatile-epoch transmitting automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NvTransmitter;

impl StationLogic for NvTransmitter {
    const STATION: Station = Station::T;

    /// Corruption skews the in-RAM sequence counter; the non-volatile
    /// epoch is ROM and stays clean.
    fn corrupted_start(&self, seq: u64) -> NvTxState {
        NvTxState {
            seq,
            ..NvTxState::default()
        }
    }

    fn apply(&self, s: &mut NvTxState, a: &DlAction) {
        match a {
            DlAction::SendMsg(m) => s.queue.push_back(*m),
            DlAction::ReceivePkt(_, p)
                if p.header.tag == Tag::Ack
                    && unpack(p.header.seq) == (s.epoch, s.seq)
                    && !s.queue.is_empty() =>
            {
                s.queue.pop_front();
                s.seq += 1;
            }
            DlAction::Wake(_) => s.active = true,
            DlAction::Fail(_) => s.active = false,
            DlAction::Crash(_) => {
                // Volatile state lost; the non-volatile epoch survives and
                // advances, so post-crash packets are distinguishable.
                *s = NvTxState {
                    epoch: s.epoch + 1,
                    ..NvTxState::default()
                };
            }
            // Retransmissions and ignored packets leave the state unchanged.
            _ => {}
        }
    }

    fn for_each_local(
        &self,
        s: &NvTxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match s.queue.front() {
            Some(m) if s.active => f(DlAction::SendPkt(
                Dir::TR,
                Packet::data(pack(s.epoch, s.seq), *m),
            )),
            _ => ControlFlow::Continue(()),
        }
    }
}

impl MessageIndependent for NvTransmitter {
    fn relabel_state(&self, s: &NvTxState, r: &MsgRenaming) -> NvTxState {
        NvTxState {
            active: s.active,
            epoch: s.epoch,
            seq: s.seq,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
        }
    }
}

/// State of the non-volatile receiver. All fields except `acks` model
/// non-volatile storage; `acks` is a volatile output buffer (safe because
/// retransmitted data regenerates acknowledgements).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NvRxState {
    /// `true` while the `r → t` medium is active (volatile).
    pub active: bool,
    /// Newest epoch observed (non-volatile).
    pub epoch: u64,
    /// Next sequence number expected within `epoch` (non-volatile).
    pub expected: u64,
    /// Accepted messages not yet handed to the environment (non-volatile —
    /// DL8 obliges delivery even across receiver crashes, since a receiver
    /// crash does not bound the *transmitter* working interval).
    pub deliver: VecDeque<Msg>,
    /// Acks owed, as packed `(epoch, seq)` values (volatile).
    pub acks: VecDeque<u64>,
}

/// The non-volatile-epoch receiving automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NvReceiver;

impl StationLogic for NvReceiver {
    const STATION: Station = Station::R;

    /// Corruption skews the acceptance frontier; the epoch stays clean.
    fn corrupted_start(&self, seq: u64) -> NvRxState {
        NvRxState {
            expected: seq,
            ..NvRxState::default()
        }
    }

    fn apply(&self, s: &mut NvRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(_, p) => {
                let (Tag::Data, Some(m)) = (p.header.tag, p.payload) else {
                    return;
                };
                let (e, q) = unpack(p.header.seq);
                if e < s.epoch {
                    // Stale epoch: ignore entirely.
                    return;
                }
                if e > s.epoch {
                    // The transmitter crashed and restarted: adopt the
                    // new epoch.
                    s.epoch = e;
                    s.expected = 0;
                }
                if q == s.expected {
                    s.deliver.push_back(m);
                    s.expected += 1;
                    push_ack(&mut s.acks, pack(e, q));
                } else if q < s.expected {
                    push_ack(&mut s.acks, pack(e, q));
                }
            }
            DlAction::Wake(_) => s.active = true,
            DlAction::Fail(_) => s.active = false,
            DlAction::Crash(_) => {
                // Non-volatile storage: only the medium flag and the
                // volatile ack buffer are lost.
                s.active = false;
                s.acks.clear();
            }
            DlAction::ReceiveMsg(_) => {
                s.deliver.pop_front();
            }
            DlAction::SendPkt(..) => {
                s.acks.pop_front();
            }
            _ => {}
        }
    }

    fn for_each_local(
        &self,
        s: &NvRxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(&seq) = s.acks.front().filter(|_| s.active) {
            f(DlAction::SendPkt(Dir::RT, Packet::ack(seq)))?;
        }
        match s.deliver.front() {
            Some(m) => f(DlAction::ReceiveMsg(*m)),
            None => ControlFlow::Continue(()),
        }
    }
}

dl_core::station_automaton!(NvTransmitter => NvTxState, NvReceiver => NvRxState);

impl MessageIndependent for NvReceiver {
    fn relabel_state(&self, s: &NvRxState, r: &MsgRenaming) -> NvRxState {
        NvRxState {
            active: s.active,
            epoch: s.epoch,
            expected: s.expected,
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// The non-volatile epoch protocol, packaged with its declared metadata.
#[must_use]
pub fn protocol() -> DataLinkProtocol<NvTransmitter, NvReceiver> {
    DataLinkProtocol::new(
        NvTransmitter,
        NvReceiver,
        ProtocolInfo {
            name: "nonvolatile-epoch",
            crashing: false, // the whole point
            header_bound: None,
            k_bound: Some(1),
            msg_class_modulus: None,
        },
    )
}

impl PackedCodec for NvTxState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.epoch.encode(out);
        self.seq.encode(out);
        self.queue.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Self {
        NvTxState {
            active: bool::decode(input),
            epoch: u64::decode(input),
            seq: u64::decode(input),
            queue: std::collections::VecDeque::<Msg>::decode(input),
        }
    }
}

impl PackedCodec for NvRxState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.epoch.encode(out);
        self.expected.encode(out);
        self.deliver.encode(out);
        self.acks.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Self {
        NvRxState {
            active: bool::decode(input),
            epoch: u64::decode(input),
            expected: u64::decode(input),
            deliver: std::collections::VecDeque::<Msg>::decode(input),
            acks: std::collections::VecDeque::<u64>::decode(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::protocol::{action_sample, check_crashing, check_station_signature};
    use ioa::automaton::Automaton;

    #[test]
    fn packing_round_trips() {
        for (e, s) in [(0, 0), (1, 0), (0, 1), (3, 99), (1 << 20, 1 << 20)] {
            assert_eq!(unpack(pack(e, s)), (e, s));
        }
    }

    #[test]
    fn signatures_conform() {
        assert!(check_station_signature(&NvTransmitter, &action_sample()).is_ok());
        assert!(check_station_signature(&NvReceiver, &action_sample()).is_ok());
    }

    #[test]
    fn protocol_is_not_crashing() {
        // The §5.3.2 audit fails: crash does not restore the start state.
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        assert_eq!(s.epoch, 1);
        assert!(check_crashing(&t, &[s]).is_err());
        // Receiver likewise preserves its bookkeeping.
        let r = NvReceiver;
        let mut rs = r.start_states().remove(0);
        rs = r
            .step_first(
                &rs,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        assert!(check_crashing(&r, &[rs]).is_err());
    }

    #[test]
    fn crash_advances_epoch_and_clears_queue() {
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(1))).unwrap();
        s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        assert_eq!(s.epoch, 1);
        assert!(s.queue.is_empty());
        assert!(!s.active);
        assert_eq!(s.seq, 0);
        // Two crashes, two epochs.
        let s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        assert_eq!(s.epoch, 2);
    }

    #[test]
    fn receiver_adopts_newer_epoch_and_ignores_older() {
        let r = NvReceiver;
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        // Epoch 0: accept seq 0.
        s = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        assert_eq!(s.expected, 1);
        // Epoch 1 arrives (transmitter crashed): reset expectation.
        s = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(1, 0), Msg(2))),
            )
            .unwrap();
        assert_eq!(s.epoch, 1);
        assert_eq!(s.expected, 1);
        assert_eq!(s.deliver.len(), 2);
        // A stale epoch-0 packet reordered in later: ignored entirely.
        let s2 = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        assert_eq!(s2.deliver.len(), 2);
        assert_eq!(s2.acks.len(), s.acks.len());
    }

    #[test]
    fn receiver_crash_preserves_delivery_bookkeeping() {
        let r = NvReceiver;
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        s = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        let before = s.clone();
        s = r.step_first(&s, &DlAction::Crash(Station::R)).unwrap();
        assert_eq!(s.expected, before.expected);
        assert_eq!(s.deliver, before.deliver);
        assert!(s.acks.is_empty());
        assert!(!s.active);
        // Re-delivery of the same packet after the crash is re-acked, not
        // re-accepted.
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        let s2 = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        assert_eq!(s2.deliver.len(), 1);
        assert_eq!(s2.acks.front(), Some(&pack(0, 0)));
    }

    #[test]
    fn stale_epoch_ack_ignored_by_transmitter() {
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap(); // epoch 1
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(5))).unwrap();
        // An ack from epoch 0 must not advance the epoch-1 transmitter.
        let s2 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(pack(0, 0))))
            .unwrap();
        assert_eq!(s2, s);
        // The matching epoch-1 ack does.
        let s3 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(pack(1, 0))))
            .unwrap();
        assert!(s3.queue.is_empty());
        assert_eq!(s3.seq, 1);
    }

    #[test]
    fn headers_carry_epoch() {
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(5))).unwrap();
        let DlAction::SendPkt(_, p) = t.enabled_local(&s)[0] else {
            panic!("expected a send")
        };
        assert_eq!(unpack(p.header.seq), (1, 0));
    }

    #[test]
    fn metadata() {
        let p = protocol();
        assert!(!p.info.crashing);
        assert_eq!(p.info.header_bound, None);
        assert_eq!(p.info.name, "nonvolatile-epoch");
    }

    #[test]
    fn relabeling() {
        let mut ren = MsgRenaming::identity();
        ren.insert(Msg(5), Msg(50)).unwrap();
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::SendMsg(Msg(5))).unwrap();
        let rs = t.relabel_state(&s, &ren);
        assert_eq!(rs.queue.front(), Some(&Msg(50)));
        assert_eq!(rs.epoch, s.epoch);
    }
}
