//! The protocol zoo: concrete data link protocols exercising every corner
//! of the paper's hypothesis space.
//!
//! | Protocol | Headers | Crashing? | Correct over | Paper role |
//! |---|---|---|---|---|
//! | [`abp`] — alternating bit | 4 (bounded) | yes | FIFO, no crashes | victim of Theorem 7.5; 1-bounded victim of Theorem 8.5 |
//! | [`sliding_window`] — go-back-N ARQ (HDLC/SDLC/LAPB family, §1) | 2·M (bounded) | yes | FIFO, no crashes | victim of both theorems; throughput baseline |
//! | [`selective_repeat`] — per-packet-ack ARQ, modulus 2W | 4·W (bounded) | yes | FIFO, no crashes | victim of both theorems; exercises receiver buffering |
//! | [`fragmenting`] — two packets per message | 6 (bounded) | yes | FIFO, no crashes | the k = 2 case of §8.1's k-boundedness |
//! | [`parity`] — packet count depends on message parity | 8 (bounded) | yes | FIFO, no crashes | the §9 message-class extension, refuted with class-aware pumps |
//! | [`stenning`] — Stenning's protocol (§1) | unbounded | yes | non-FIFO, no crashes | shows Theorem 8.5's hypothesis is tight |
//! | [`nonvolatile`] — epoch protocol with non-volatile memory | unbounded | **no** | FIFO, *with* crashes | shows Theorem 7.5's hypothesis is tight ("BS83" boundary) |
//! | [`quirky`] — deliberately message-dependent | unbounded | yes | FIFO, no crashes | negative control: engines detect its false independence claim |
//! | [`stabilizing`] — repetition/counting self-stabilizing link (arXiv 1011.3632) | unbounded | yes | **non-FIFO, arbitrary initial configuration** (eventual) | the Theorem 8.5 boundary revisited: unbounded headers + counting make even corrupted starts converge |
//!
//! Each station is written once, as a
//! [`StationLogic`](dl_core::protocol::StationLogic): its station, its
//! corrupted start, an in-place `apply` and the one enumeration of its
//! enabled local actions. [`dl_core::station_automaton!`] derives
//! [`ioa::Automaton`] and `StationAutomaton` from that, so every station
//! follows the §5.1 signatures and task partition; each module adds
//! `MessageIndependent` and its packed state codec, and its tests drive
//! the protocol end-to-end over the channels of `dl-channels` and check
//! the resulting behavior against the `DL`/`WDL` specifications.
//!
//! # Conventions shared by all protocols
//!
//! * Deterministic automata: a unique start state and singleton successor
//!   sets, so the proof engines can replay them exactly.
//! * Packets are emitted with [`dl_core::action::Packet::UNSTAMPED`] uids
//!   and accepted with any uid (enabledness compares actions up to the
//!   uid); executors stamp fresh uids.
//! * `send_pkt` is only enabled while the protocol believes its outgoing
//!   medium is active (tracking `wake`/`fail`), honoring PL1.
//! * Input actions outside a protocol's interest (malformed headers, stale
//!   acks) leave the state unchanged — input-enabledness is unconditional.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abp;
pub mod fragmenting;
pub mod nonvolatile;
pub mod parity;
pub mod quirky;
pub mod selective_repeat;
pub mod sliding_window;
pub mod stabilizing;
pub mod stenning;

pub use abp::{AbpReceiver, AbpTransmitter};
pub use fragmenting::{FragReceiver, FragTransmitter};
pub use nonvolatile::{NvReceiver, NvTransmitter};
pub use parity::{ParityReceiver, ParityTransmitter};
pub use quirky::{QuirkyReceiver, QuirkyTransmitter};
pub use selective_repeat::{SrReceiver, SrTransmitter};
pub use sliding_window::{SwReceiver, SwTransmitter};
pub use stabilizing::{StabReceiver, StabTransmitter};
pub use stenning::{StenningReceiver, StenningTransmitter};
