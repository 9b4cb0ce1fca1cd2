//! One fleet session: a protocol of the zoo composed with two
//! fault-injected channels, driven incrementally through `dl-sim`'s
//! [`SessionStep`].
//!
//! The state split the fleet depends on lives here: the *automaton*
//! values (protocol machines, channel configurations) are small immutable
//! tables, while everything mutable — the composed state, scratch
//! buffers, RNG stream, script cursor, monitor — is owned by the
//! [`SessionStep`], built **lean** so no execution trace is retained.
//! A session core's resident cost is therefore ≈5 kB (see
//! [`SessionOutcome::resident_bytes`], a lower bound about 1 kB short of
//! the live heap) no matter how long it runs; the
//! online monitor's value tables come on top, reported separately
//! ([`SessionOutcome::monitor_bytes`], ≈300 kB at peak), since they grow
//! with the distinct packet values a session sends.
//!
//! Monitoring posture mirrors `dl-fuzz`: `monitor_pl = false` (the
//! duplication fault knob violates PL3 *by design*), `full_dl = false`,
//! online abort on a `WDL` safety conclusion, and — for sessions that
//! quiesce crash-free with the script fully consumed — a complete-trace
//! `WDL` verdict from the streaming monitor, which adds DL8 liveness
//! without ever materializing the trace.
//!
//! Stabilizing sessions start from a corrupted configuration, which is
//! supposed to misbehave for a prefix, so they run without the online
//! monitor. A boxed streaming [`SuffixMonitor`] observes their behavior
//! instead, and at teardown judges it in suffix mode under the
//! corruption budget ([`SuffixReport::judge`]).
//!
//! [`SuffixReport::judge`]: dl_core::spec::stabilize::SuffixReport::judge

use ioa::schedule_module::{TraceKind, Verdict};

use dl_channels::{CorruptChannel, FaultyChannel};
use dl_core::action::{Dir, DlAction};
use dl_core::protocol::DataLinkProtocol;
use dl_core::spec::stabilize::SuffixMonitor;
use dl_obs::Histogram;
use dl_sim::{link_system, ConformancePolicy, LinkSystem, Runner, SessionStep};
use ioa::automaton::Automaton;

use crate::spec::{FleetSpec, ProtocolKind, SessionConfig};

/// The composed per-session system: `hide_Φ(protocol ∥ FaultyChannel²)`.
pub type FleetSystem<T, R> = LinkSystem<T, R, FaultyChannel, FaultyChannel>;

/// The stabilizing session's system: the self-stabilizing protocol over
/// bounded-capacity, non-FIFO, possibly ghost-loaded [`CorruptChannel`]s.
pub type StabilizeSystem = LinkSystem<
    dl_protocols::StabTransmitter,
    dl_protocols::StabReceiver,
    CorruptChannel,
    CorruptChannel,
>;

type Step<T, R> = SessionStep<FleetSystem<T, R>>;

/// A live session of any protocol in the zoo, monomorphized per kind so
/// the hot stepping loop is static-dispatched.
pub enum ZooSession {
    /// Alternating bit.
    Abp(Step<dl_protocols::AbpTransmitter, dl_protocols::AbpReceiver>),
    /// Go-back-N sliding window (any window).
    SlidingWindow(Step<dl_protocols::SwTransmitter, dl_protocols::SwReceiver>),
    /// Selective repeat.
    SelectiveRepeat(Step<dl_protocols::SrTransmitter, dl_protocols::SrReceiver>),
    /// Fragmenting.
    Fragmenting(Step<dl_protocols::FragTransmitter, dl_protocols::FragReceiver>),
    /// Parity.
    Parity(Step<dl_protocols::ParityTransmitter, dl_protocols::ParityReceiver>),
    /// Stenning.
    Stenning(Step<dl_protocols::StenningTransmitter, dl_protocols::StenningReceiver>),
    /// Non-volatile epoch protocol.
    Nonvolatile(Step<dl_protocols::NvTransmitter, dl_protocols::NvReceiver>),
    /// The deliberately message-dependent negative control.
    Quirky(Step<dl_protocols::QuirkyTransmitter, dl_protocols::QuirkyReceiver>),
    /// The self-stabilizing protocol, possibly from a corrupted initial
    /// configuration, with the suffix monitor that observes its
    /// behavior. Boxed: inline, the monitor would grow every variant.
    Stabilizing(SessionStep<StabilizeSystem>, Box<SuffixMonitor>),
}

/// Runs `$body` with `$s` bound to the inner [`SessionStep`], whatever
/// the protocol.
macro_rules! with_session {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            ZooSession::Abp($s) => $body,
            ZooSession::SlidingWindow($s) => $body,
            ZooSession::SelectiveRepeat($s) => $body,
            ZooSession::Fragmenting($s) => $body,
            ZooSession::Parity($s) => $body,
            ZooSession::Stenning($s) => $body,
            ZooSession::Nonvolatile($s) => $body,
            ZooSession::Quirky($s) => $body,
            ZooSession::Stabilizing($s, _) => $body,
        }
    };
}

/// The fleet's online monitoring policy (see the module docs).
#[must_use]
pub fn fleet_policy() -> ConformancePolicy {
    ConformancePolicy {
        full_dl: false,
        complete: false,
        fifo_channels: false,
        monitor_pl: false,
        patience: None,
    }
}

fn lean_step<T, R>(
    protocol: DataLinkProtocol<T, R>,
    cfg: &SessionConfig,
    spec: &FleetSpec,
) -> Step<T, R>
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let mut runner = Runner::new(cfg.seed, spec.max_steps);
    if spec.monitor {
        runner = runner.with_online_conformance(fleet_policy());
    }
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        FaultyChannel::new(Dir::TR, cfg.faults[0]),
        FaultyChannel::new(Dir::RT, cfg.faults[1]),
    );
    SessionStep::lean(runner, system, cfg.script.clone())
}

/// Builds session `cfg` as a lean, incrementally-steppable [`ZooSession`].
#[must_use]
pub fn build_session(cfg: &SessionConfig, spec: &FleetSpec) -> ZooSession {
    use dl_protocols as p;
    macro_rules! lean {
        ($variant:ident, $protocol:expr) => {
            ZooSession::$variant(lean_step($protocol, cfg, spec))
        };
    }
    match cfg.protocol {
        ProtocolKind::Abp => lean!(Abp, p::abp::protocol()),
        ProtocolKind::GoBack2 => lean!(SlidingWindow, p::sliding_window::protocol(2)),
        ProtocolKind::GoBack8 => lean!(SlidingWindow, p::sliding_window::protocol(8)),
        ProtocolKind::SelectiveRepeat4 => lean!(SelectiveRepeat, p::selective_repeat::protocol(4)),
        ProtocolKind::Fragmenting => lean!(Fragmenting, p::fragmenting::protocol()),
        ProtocolKind::Parity => lean!(Parity, p::parity::protocol()),
        ProtocolKind::Stenning => lean!(Stenning, p::stenning::protocol()),
        ProtocolKind::Nonvolatile => lean!(Nonvolatile, p::nonvolatile::protocol()),
        ProtocolKind::Quirky => lean!(Quirky, p::quirky::protocol()),
        ProtocolKind::Stabilizing => {
            let corruption = cfg
                .corruption
                .expect("stabilizing session configs carry a corruption spec");
            let protocol = p::stabilizing::corrupted(
                u64::from(corruption.channels[0].capacity),
                corruption.tx_seq,
                corruption.rx_expected,
            );
            // No online conformance: the divergent prefix would trip it.
            let runner = Runner::new(cfg.seed, spec.max_steps);
            let system = link_system(
                protocol.transmitter,
                protocol.receiver,
                CorruptChannel::new(Dir::TR, corruption.channels[0]),
                CorruptChannel::new(Dir::RT, corruption.channels[1]),
            );
            ZooSession::Stabilizing(
                SessionStep::lean(runner, system, cfg.script.clone()),
                Box::new(SuffixMonitor::new(false)),
            )
        }
    }
}

impl ZooSession {
    /// Takes up to `budget` actions; returns how many were taken. A
    /// stabilizing session's suffix monitor observes each one that
    /// `link_system` does not hide, so its indices are behavior
    /// positions.
    pub fn advance_batch(&mut self, budget: usize) -> usize {
        let ZooSession::Stabilizing(s, monitor) = self else {
            return with_session!(self, s => s.advance_batch(budget));
        };
        let mut taken = 0;
        while taken < budget {
            let Some(action) = s.advance() else { break };
            if !action.is_packet_action() {
                monitor.observe(&action);
            }
            taken += 1;
        }
        taken
    }

    /// `true` once the session's run is over.
    #[must_use]
    pub fn is_done(&self) -> bool {
        with_session!(self, s => s.is_done())
    }

    /// The violated property, if any, and a stabilizing session's
    /// convergence index. Classic sessions: the online safety conclusion
    /// first; quiescent crash-free runs additionally get the
    /// complete-trace `WDL` verdict (adds DL8) straight from the
    /// streaming monitor. Quiescent stabilizing sessions: the suffix
    /// verdict under the corruption budget, which charges the messages
    /// sent but never delivered.
    fn verdict(&self, cfg: &SessionConfig) -> (Option<&'static str>, Option<u64>) {
        if let ZooSession::Stabilizing(s, monitor) = self {
            if !s.quiescent() {
                return (None, None);
            }
            let budget = cfg
                .corruption
                .expect("stabilizing session configs carry a corruption spec")
                .budget();
            let metrics = s.metrics();
            let lost = metrics.msgs_sent.saturating_sub(metrics.msgs_received);
            return match monitor.finish(TraceKind::Complete).judge(lost, budget) {
                Ok(at) => (None, Some(at as u64)),
                Err(property) => (Some(property), None),
            };
        }
        with_session!(self, s => {
            let mut violation = s.online_violation().map(|v| v.property);
            if violation.is_none() && s.quiescent() && !cfg.crashed {
                if let Some(monitor) = s.monitor() {
                    if let Verdict::Violated(v) = monitor.dl_verdict(true, TraceKind::Complete) {
                        violation = Some(v.property);
                    }
                }
            }
            (violation, None)
        })
    }

    /// Tears the finished session down into its compact outcome, folding
    /// its step count and per-message latencies into the worker-local
    /// histograms.
    #[must_use]
    pub fn finish(
        self,
        cfg: &SessionConfig,
        steps_hist: &mut Histogram,
        latency_hist: &mut Histogram,
    ) -> SessionOutcome {
        let (violation, convergence) = self.verdict(cfg);
        let monitor_bytes = match &self {
            ZooSession::Stabilizing(_, monitor) => monitor.approx_bytes() as u64,
            _ => with_session!(&self, s => s.monitor_bytes()),
        };
        with_session!(self, s => {
            let metrics = s.metrics();
            steps_hist.record(metrics.steps);
            for latency in &metrics.latencies {
                latency_hist.record(*latency);
            }
            SessionOutcome {
                id: cfg.id,
                protocol: cfg.protocol,
                steps: metrics.steps,
                digest: s.digest(),
                quiescent: s.quiescent(),
                crashed: cfg.crashed,
                violation,
                msgs_sent: metrics.msgs_sent,
                msgs_delivered: metrics.msgs_received,
                resident_bytes: s.resident_bytes(),
                monitor_bytes,
                convergence,
            }
        })
    }
}

/// What one session left behind: a compact, `Copy` record (tens of
/// bytes), so even a 10⁶-session fleet's outcome vector stays modest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The session id.
    pub id: u64,
    /// Which protocol ran.
    pub protocol: ProtocolKind,
    /// Actions taken.
    pub steps: u64,
    /// Rolling schedule digest (see [`dl_sim::schedule_digest`]).
    pub digest: u64,
    /// `true` if the run quiesced with the script fully consumed.
    pub quiescent: bool,
    /// `true` if the script included a station crash.
    pub crashed: bool,
    /// Violated property name, if the monitor concluded one (online
    /// safety, or complete-trace `WDL` on quiescent crash-free runs).
    pub violation: Option<&'static str>,
    /// `send_msg` events.
    pub msgs_sent: u64,
    /// `receive_msg` events.
    pub msgs_delivered: u64,
    /// Resident-footprint estimate at teardown (see
    /// [`SessionStep::resident_bytes`]).
    pub resident_bytes: u64,
    /// The monitor's footprint at teardown: the online monitor's (see
    /// [`SessionStep::monitor_bytes`]; 0 when unmonitored), or a
    /// stabilizing session's suffix monitor's (see
    /// [`SuffixMonitor::approx_bytes`]).
    pub monitor_bytes: u64,
    /// For stabilizing sessions that converged: the convergence index —
    /// the behavior position where the conforming suffix begins, i.e.
    /// the stabilization time in actions (0 = conformant from the
    /// start). `None` for every other kind, for truncated runs, and for
    /// stabilizing sessions that failed to converge.
    pub convergence: Option<u64>,
}

#[cfg(test)]
mod tests {
    #[test]
    fn zoo_session_stays_small() {
        // Every live session costs at least this much; an inline suffix
        // monitor would add ≈1.8 kB to each of them.
        let size = std::mem::size_of::<super::ZooSession>();
        assert!(size <= 2_648, "ZooSession grew to {size} bytes");
    }
}
