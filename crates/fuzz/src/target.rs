//! Fuzz targets: every protocol of the zoo, composed with fault-injected
//! channels and executed from a genome.
//!
//! Each target is a monomorphized `fn(&Genome, &ExecConfig) -> ExecOutcome`
//! that builds the §5.2 composition `hide_Φ(protocol ∥ FaultyChannel²)`,
//! runs the genome's plan through an online-monitored
//! [`Runner`], and extracts per-step coverage keys.
//!
//! Monitoring posture: executions run with `monitor_pl = false` (the
//! duplication fault knob violates PL3 *by design*, and aborting on the
//! medium's own misbehavior would hide the protocol bugs the fuzzer is
//! hunting) and `full_dl = false` by default, so a **violation** is either
//! an online `WDL` safety conclusion (DL4/DL5) or — on runs that quiesce
//! with the script fully consumed — a complete-trace `WDL` verdict, which
//! adds the DL8 liveness conclusion ("every sent message is delivered").
//! Truncated runs are never judged against DL8, so step-budget exhaustion
//! cannot fabricate liveness violations.

use std::hash::{BuildHasher, BuildHasherDefault};

use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict, Violation};

use dl_channels::{CorruptChannel, CorruptSpec, FaultyChannel, GhostSpec};
use dl_core::action::{Dir, DlAction, Station};
use dl_core::protocol::{CorruptedStart, DataLinkProtocol, StationLogic};
use dl_core::spec::datalink::DlModule;
use dl_core::spec::stabilize::SuffixMonitor;
use dl_sim::{link_system, ConformancePolicy, RunReport, Runner};

use crate::genome::Genome;

/// Per-execution knobs, shared by every target.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Global step bound per execution.
    pub max_steps: usize,
    /// Judge against the full `DL` spec instead of the weak `WDL`.
    pub full_dl: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_steps: 800,
            full_dl: false,
        }
    }
}

/// What one execution of a genome produced.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The judged violation, if any (online safety, or batch `WDL` on a
    /// quiescent complete trace).
    pub violation: Option<Violation>,
    /// `true` if the run quiesced with the script fully consumed.
    pub quiescent: bool,
    /// Steps taken.
    pub steps: usize,
    /// One coverage key per step: a hash of `(post-state, progress
    /// digest, action class)`.
    pub coverage: Vec<u64>,
    /// The full stamped schedule — the replay-comparison witness.
    pub schedule: Vec<DlAction>,
}

/// A named, runnable fuzz target.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Stable target name, e.g. `"abp"` or `"quirky"`.
    pub name: &'static str,
    /// Executes one genome against this target's composed system.
    pub run: fn(&Genome, &ExecConfig) -> ExecOutcome,
    /// `true` if the fleet generates
    /// [`Corruption`](crate::genome::Corruption) genes for this target *by
    /// default*, keeping the classic targets' random streams
    /// byte-identical to before the fault class existed. Every target
    /// *decodes* corruption genes (see [`run_protocol`]); campaigns opt
    /// the classic nine into generating them with
    /// [`FuzzConfig::corrupt_starts`](crate::FuzzConfig::corrupt_starts).
    pub corrupting: bool,
}

/// The full target registry: all ten protocols of the zoo.
#[must_use]
pub fn all_targets() -> &'static [Target] {
    &TARGETS
}

/// Looks a target up by name.
#[must_use]
pub fn target(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

static TARGETS: [Target; 10] = [
    Target {
        name: "abp",
        run: |g, c| run_protocol(dl_protocols::abp::protocol(), g, c),
        corrupting: false,
    },
    Target {
        name: "go-back-2",
        run: |g, c| run_protocol(dl_protocols::sliding_window::protocol(2), g, c),
        corrupting: false,
    },
    Target {
        name: "go-back-8",
        run: |g, c| run_protocol(dl_protocols::sliding_window::protocol(8), g, c),
        corrupting: false,
    },
    Target {
        name: "selective-repeat-4",
        run: |g, c| run_protocol(dl_protocols::selective_repeat::protocol(4), g, c),
        corrupting: false,
    },
    Target {
        name: "fragmenting",
        run: |g, c| run_protocol(dl_protocols::fragmenting::protocol(), g, c),
        corrupting: false,
    },
    Target {
        name: "parity",
        run: |g, c| run_protocol(dl_protocols::parity::protocol(), g, c),
        corrupting: false,
    },
    Target {
        name: "stenning",
        run: |g, c| run_protocol(dl_protocols::stenning::protocol(), g, c),
        corrupting: false,
    },
    Target {
        name: "nonvolatile",
        run: |g, c| run_protocol(dl_protocols::nonvolatile::protocol(), g, c),
        corrupting: false,
    },
    Target {
        name: "quirky",
        run: |g, c| run_protocol(dl_protocols::quirky::protocol(), g, c),
        corrupting: false,
    },
    Target {
        name: "stabilizing",
        run: run_stabilizing,
        corrupting: true,
    },
];

/// Coarse action-class code for coverage keys: which kind of action fired,
/// and on which side/direction.
fn action_class(a: &DlAction) -> u64 {
    match a {
        DlAction::SendMsg(_) => 0,
        DlAction::ReceiveMsg(_) => 1,
        DlAction::SendPkt(Dir::TR, _) => 2,
        DlAction::SendPkt(Dir::RT, _) => 3,
        DlAction::ReceivePkt(Dir::TR, _) => 4,
        DlAction::ReceivePkt(Dir::RT, _) => 5,
        DlAction::Wake(Dir::TR) => 6,
        DlAction::Wake(Dir::RT) => 7,
        DlAction::Fail(Dir::TR) => 8,
        DlAction::Fail(Dir::RT) => 9,
        DlAction::Crash(Station::T) => 10,
        DlAction::Crash(Station::R) => 11,
        DlAction::Internal(Station::T, _) => 12,
        DlAction::Internal(Station::R, _) => 13,
    }
}

/// Log-bucketed counter, ≤ 15 — keeps the progress digest finite.
fn bucket(n: u64) -> u64 {
    u64::from(64 - n.leading_zeros()).min(15)
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a ^ b.rotate_left(21) ^ c.rotate_left(42);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one genome against one protocol over fault-injected channels.
///
/// Any [`Corruption`](crate::genome::Corruption) gene is decoded into a
/// corrupted initial configuration for the *classic* zoo too: the
/// stations start with their counters skewed ([`CorruptedStart`], via
/// each protocol's `corrupted_start` mapping) and the channels start
/// with ghost packets already in flight ([`GhostSpec`]). A missing or
/// all-zero corruption gene decodes to the honest start (`seq == 0`
/// wrappers and empty ghost preloads are behaviorally identity), so
/// corruption-free genomes execute byte-identically to before the fault
/// class reached these targets.
pub fn run_protocol<T, R>(
    protocol: DataLinkProtocol<T, R>,
    genome: &Genome,
    cfg: &ExecConfig,
) -> ExecOutcome
where
    T: StationLogic,
    R: StationLogic,
{
    let plan = genome.decode();
    let c = plan.corruption.unwrap_or_default();
    let ghosts = |count: u8, lane: u64| GhostSpec {
        count,
        seed: c.seed ^ lane,
    };
    let system = link_system(
        CorruptedStart::new(protocol.transmitter, u64::from(c.tx_seq)),
        CorruptedStart::new(protocol.receiver, u64::from(c.rx_expected)),
        FaultyChannel::new(Dir::TR, plan.faults[0]).with_ghosts(ghosts(c.ghosts_tr, 0x7121)),
        FaultyChannel::new(Dir::RT, plan.faults[1]).with_ghosts(ghosts(c.ghosts_rt, 0x1217)),
    );
    let policy = ConformancePolicy {
        full_dl: cfg.full_dl,
        complete: false,
        fifo_channels: false,
        monitor_pl: false,
        ..ConformancePolicy::default()
    };
    let mut runner = Runner::new(genome.seed, cfg.max_steps)
        .with_online_conformance(policy)
        .with_decision_overrides(plan.overrides.clone());
    let report = runner.run(&system, &plan.script);

    let mut violation = report.online_violation.clone();
    if violation.is_none() && report.quiescent {
        let module = if cfg.full_dl {
            DlModule::full()
        } else {
            DlModule::weak()
        };
        if let Verdict::Violated(v) = module.check(&report.behavior, TraceKind::Complete) {
            violation = Some(v);
        }
    }

    let coverage = coverage_keys(&report);
    ExecOutcome {
        violation,
        quiescent: report.quiescent,
        steps: report.execution.len(),
        coverage,
        schedule: report.schedule(),
    }
}

/// Coverage: one key per step, hashing the composed post-state, a
/// log-bucketed progress digest (the monitor-visible counters), and the
/// action class — the `(protocol state, monitor state, action class)`
/// tuple, collapsed to 64 bits.
fn coverage_keys<S>(report: &RunReport<S>) -> Vec<u64>
where
    S: std::hash::Hash + Clone + Eq + std::fmt::Debug,
{
    let hasher = BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
    let (mut sent, mut delivered, mut crashes) = (0u64, 0u64, 0u64);
    let mut coverage = Vec::with_capacity(report.execution.len());
    for step in report.execution.steps() {
        match step.action {
            DlAction::SendMsg(_) => sent += 1,
            DlAction::ReceiveMsg(_) => delivered += 1,
            DlAction::Crash(_) => crashes += 1,
            _ => {}
        }
        let digest = bucket(sent) | bucket(delivered) << 4 | crashes.min(15) << 8;
        coverage.push(mix3(
            hasher.hash_one(&step.post),
            digest,
            action_class(&step.action),
        ));
    }
    coverage
}

/// Runs one genome against the self-stabilizing protocol (zoo member #10)
/// over bounded-capacity, non-FIFO [`CorruptChannel`]s, decoding any
/// [`Corruption`](crate::genome::Corruption) gene into a corrupted initial
/// configuration (station counters and ghost packet populations).
///
/// Judged in **suffix mode**: the execution runs with no online
/// conformance at all (a corrupted start is *supposed* to misbehave for a
/// finite prefix), and quiescent complete runs are judged by the
/// [`SuffixMonitor`] plus a **corruption budget**: a corrupted receiver
/// expecting sequence `e` against a transmitter at sequence `s < e` is
/// entitled to consume up to `e − s` messages while the counters climb
/// into agreement, so only losses *beyond* that budget — or a suffix
/// safety violation surviving every candidate convergence point — count
/// as counterexamples. Crashy runs are not judged for liveness at all:
/// the stabilizing protocol's memory is volatile, crash-loss is outside
/// its claim (Theorem 7.5 territory, not arXiv 1011.3632's).
fn run_stabilizing(genome: &Genome, cfg: &ExecConfig) -> ExecOutcome {
    let plan = genome.decode();
    let c = plan.corruption.unwrap_or_default();
    let capacity = dl_protocols::stabilizing::DEFAULT_CAPACITY;
    let protocol = dl_protocols::stabilizing::corrupted(
        capacity,
        u64::from(c.tx_seq),
        u64::from(c.rx_expected),
    );
    // The corrupt channel's loss knob reuses the fault genes' loss rates,
    // so shrinking toward `FaultSpec::none` also cleans the medium.
    let spec = |ghosts: u8, loss: u8, lane: u64| CorruptSpec {
        capacity: capacity as u8,
        ghosts,
        loss,
        seed: c.seed ^ lane,
    };
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        CorruptChannel::new(Dir::TR, spec(c.ghosts_tr, plan.faults[0].loss, 0x7121)),
        CorruptChannel::new(Dir::RT, spec(c.ghosts_rt, plan.faults[1].loss, 0x1217)),
    );
    let mut runner =
        Runner::new(genome.seed, cfg.max_steps).with_decision_overrides(plan.overrides.clone());
    let report = runner.run(&system, &plan.script);

    let mut violation = None;
    let crash_free = !report
        .behavior
        .iter()
        .any(|a| matches!(a, DlAction::Crash(_)));
    if report.quiescent && crash_free {
        let suffix = SuffixMonitor::scan(&report.behavior, cfg.full_dl);
        let budget = u64::from(c.rx_expected.saturating_sub(c.tx_seq));
        let (mut sent, mut delivered) = (0u64, 0u64);
        for a in &report.behavior {
            match a {
                DlAction::SendMsg(_) => sent += 1,
                DlAction::ReceiveMsg(_) => delivered += 1,
                _ => {}
            }
        }
        let lost = sent.saturating_sub(delivered);
        match suffix.violation {
            // Liveness: the climb may consume `budget` messages; one more
            // lost is a genuine failure to stabilize.
            Some("DL8") | None if lost > budget => {
                violation = Some(Violation {
                    property: "DL8",
                    at: Some(suffix.convergence_index),
                    reason: format!(
                        "{lost} messages lost exceeds the corruption budget {budget} \
                         ({} resets)",
                        suffix.resets
                    ),
                });
            }
            // Safety violations surviving every candidate convergence
            // point (none are reachable from the current protocol — the
            // monitor resets absorb prefix noise — but a counting-
            // discipline regression would land here).
            Some(property) if property != "DL8" => {
                violation = Some(Violation {
                    property,
                    at: Some(suffix.convergence_index),
                    reason: format!(
                        "no conforming suffix: {property} survives past every candidate \
                         convergence point ({} resets)",
                        suffix.resets
                    ),
                });
            }
            _ => {}
        }
    }

    let coverage = coverage_keys(&report);
    ExecOutcome {
        violation,
        quiescent: report.quiescent,
        steps: report.execution.len(),
        coverage,
        schedule: report.schedule(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::Gene;

    fn genome(seed: u64, genes: Vec<Gene>) -> Genome {
        Genome { seed, genes }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<_> = all_targets().iter().map(|t| t.name).collect();
        assert_eq!(names.len(), 10);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "duplicate target names");
        assert!(target("quirky").is_some());
        assert!(target("stabilizing").is_some());
        assert!(target("no-such-protocol").is_none());
    }

    #[test]
    fn only_the_stabilizing_target_generates_corruption_by_default() {
        for t in all_targets() {
            assert_eq!(t.corrupting, t.name == "stabilizing", "{}", t.name);
        }
    }

    #[test]
    fn zero_corruption_gene_is_identity_on_classic_targets() {
        // `corrupted_start(0)` and an empty ghost preload are the honest
        // start, so an all-zero corruption gene must not perturb a classic
        // run at all (this is what keeps the pinned campaigns exact).
        let clean = genome(4, vec![Gene::Send, Gene::Send]);
        let zeroed = genome(
            4,
            vec![
                Gene::Corrupt(crate::genome::Corruption::default()),
                Gene::Send,
                Gene::Send,
            ],
        );
        for name in ["abp", "go-back-2", "stenning"] {
            let t = target(name).unwrap();
            let a = (t.run)(&clean, &ExecConfig::default());
            let b = (t.run)(&zeroed, &ExecConfig::default());
            assert_eq!(a.schedule, b.schedule, "{name}");
            assert_eq!(a.coverage, b.coverage, "{name}");
            assert_eq!(a.violation, b.violation, "{name}");
        }
    }

    #[test]
    fn corrupted_abp_start_misbehaves_measurably() {
        // ABP with its alternating bits skewed out of agreement: the
        // transmitter believes it is past the receiver's expectation, so
        // the first message is swallowed by the duplicate filter — the
        // classic-zoo face of the corrupted-configuration fault class.
        let g = genome(
            5,
            vec![
                Gene::Corrupt(crate::genome::Corruption {
                    tx_seq: 1,
                    rx_expected: 0,
                    ghosts_tr: 0,
                    ghosts_rt: 0,
                    seed: 0,
                }),
                Gene::Send,
                Gene::Send,
            ],
        );
        let out = (target("abp").unwrap().run)(&g, &ExecConfig::default());
        let v = out.violation.expect("skewed counters must misbehave");
        assert!(
            ["DL4", "DL5", "DL8"].contains(&v.property),
            "unexpected property {}",
            v.property
        );
    }

    #[test]
    fn ghost_packets_reach_classic_receivers() {
        // A ghost DATA packet preloaded into t→r carries a message no one
        // sent; if the receiver trusts it, WDL safety (DL4) catches the
        // delivery. Either way the run must stay deterministic.
        let g = genome(
            10,
            vec![
                Gene::Corrupt(crate::genome::Corruption {
                    tx_seq: 0,
                    rx_expected: 0,
                    ghosts_tr: 4,
                    ghosts_rt: 2,
                    seed: 21,
                }),
                Gene::Send,
            ],
        );
        let t = target("go-back-2").unwrap();
        let a = (t.run)(&g, &ExecConfig::default());
        let b = (t.run)(&g, &ExecConfig::default());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.violation, b.violation);
        // The ghosts are really in flight: the schedule must contain
        // more TR packet receptions than TR packet sends can explain.
        let sends = a
            .schedule
            .iter()
            .filter(|x| matches!(x, DlAction::SendPkt(Dir::TR, _)))
            .count();
        let recvs = a
            .schedule
            .iter()
            .filter(|x| matches!(x, DlAction::ReceivePkt(Dir::TR, _)))
            .count();
        assert!(
            recvs > 0 && (recvs > sends || a.violation.is_some()),
            "ghost traffic left no trace: {sends} sends, {recvs} recvs"
        );
    }

    #[test]
    fn corrupted_stabilizing_run_converges_without_counterexample() {
        // A corrupted start misbehaves for a prefix; suffix-mode judgment
        // must not call that a violation once the run stabilizes.
        let g = genome(
            6,
            vec![
                Gene::Corrupt(crate::genome::Corruption {
                    tx_seq: 2,
                    rx_expected: 5,
                    ghosts_tr: 3,
                    ghosts_rt: 2,
                    seed: 77,
                }),
                Gene::Send,
                Gene::Send,
                Gene::Send,
            ],
        );
        let out = (target("stabilizing").unwrap().run)(
            &g,
            &ExecConfig {
                max_steps: 2_000,
                full_dl: false,
            },
        );
        assert!(out.quiescent, "corrupted run must still quiesce");
        assert!(
            out.violation.is_none(),
            "stabilization is not a counterexample: {:?}",
            out.violation
        );
    }

    #[test]
    fn sends_beyond_the_corruption_budget_are_delivered() {
        // Gap of 3 (rx expects 5, tx starts at 2): the climb consumes at
        // most 3 messages, so 5 sends must deliver the surplus 2.
        let g = genome(
            8,
            vec![
                Gene::Corrupt(crate::genome::Corruption {
                    tx_seq: 2,
                    rx_expected: 5,
                    ghosts_tr: 3,
                    ghosts_rt: 3,
                    seed: 31,
                }),
                Gene::Send,
                Gene::Send,
                Gene::Send,
                Gene::Send,
                Gene::Send,
            ],
        );
        let out = (target("stabilizing").unwrap().run)(
            &g,
            &ExecConfig {
                max_steps: 4_000,
                full_dl: false,
            },
        );
        assert!(out.quiescent);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        let delivered = out
            .schedule
            .iter()
            .filter(|a| matches!(a, DlAction::ReceiveMsg(_)))
            .count();
        assert_eq!(delivered, 2, "the surplus past the climb must arrive");
    }

    #[test]
    fn stabilizing_runs_replay_identically() {
        let g = genome(
            9,
            vec![
                Gene::Corrupt(crate::genome::Corruption {
                    tx_seq: 1,
                    rx_expected: 3,
                    ghosts_tr: 2,
                    ghosts_rt: 1,
                    seed: 5,
                }),
                Gene::Send,
                Gene::Crash(Station::T),
                Gene::Send,
            ],
        );
        let t = target("stabilizing").unwrap();
        let cfg = ExecConfig {
            max_steps: 2_000,
            full_dl: false,
        };
        let a = (t.run)(&g, &cfg);
        let b = (t.run)(&g, &cfg);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.violation, b.violation);
    }

    #[test]
    fn clean_abp_run_has_no_violation_and_full_coverage() {
        let g = genome(3, vec![Gene::Send, Gene::Send]);
        let out = (target("abp").unwrap().run)(&g, &ExecConfig::default());
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.quiescent);
        assert_eq!(out.coverage.len(), out.steps);
        assert_eq!(out.schedule.len(), out.steps);
    }

    #[test]
    fn abp_transmitter_crash_mid_flight_is_flagged() {
        // The E4 crash pump, phrased as a genome: deliver m0, crash t,
        // send m1 — the retransmitted DATA#0 swallows m1.
        let g = genome(
            2,
            vec![
                Gene::Send,
                Gene::Steps(3),
                Gene::Crash(Station::T),
                Gene::Send,
            ],
        );
        let out = (target("abp").unwrap().run)(&g, &ExecConfig::default());
        let v = out.violation.expect("crash pump violation");
        assert!(
            ["DL4", "DL5", "DL8"].contains(&v.property),
            "unexpected property {}",
            v.property
        );
    }

    #[test]
    fn executions_are_deterministic() {
        let g = genome(
            7,
            vec![
                Gene::Send,
                Gene::FaultsTr(dl_channels::FaultSpec {
                    loss: 64,
                    dup: 32,
                    reorder: 2,
                    burst_good: 0,
                    burst_bad: 0,
                    salt: 5,
                }),
                Gene::Send,
                Gene::Crash(Station::R),
                Gene::Send,
            ],
        );
        let t = target("go-back-2").unwrap();
        let a = (t.run)(&g, &ExecConfig::default());
        let b = (t.run)(&g, &ExecConfig::default());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.violation, b.violation);
    }

    #[test]
    fn truncated_runs_are_not_judged_for_liveness() {
        // A tiny step budget truncates the run mid-delivery; DL8 must not
        // fire on the truncated trace.
        let g = genome(1, vec![Gene::Send]);
        let out = (target("abp").unwrap().run)(
            &g,
            &ExecConfig {
                max_steps: 4,
                full_dl: false,
            },
        );
        assert!(!out.quiescent);
        assert!(out.violation.is_none(), "{:?}", out.violation);
    }
}
