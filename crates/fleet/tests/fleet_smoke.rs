//! Bounded fleet smoke: a mixed-protocol, fault-injected, monitored
//! fleet completes, stays replayable, and emits a well-formed ledger.
//! `scripts/check.sh`'s fleet-smoke stage runs exactly this suite.

use dl_fleet::{run_fleet, FleetSpec, ProtocolKind};
use dl_obs::RunLedger;

fn smoke_spec() -> FleetSpec {
    FleetSpec {
        seed: 0x5A0CE,
        sessions: 400,
        workers: 2,
        chunk: 64,
        // The whole zoo, stabilizing included (the default mix stays the
        // frozen classic nine to keep pinned ledgers stable).
        protocols: ProtocolKind::ALL.to_vec(),
        ..FleetSpec::default()
    }
}

#[test]
fn mixed_fleet_completes_and_replays() {
    let report = run_fleet(&smoke_spec());
    assert_eq!(report.sessions(), 400);
    assert!(report.outcomes.iter().all(|o| o.steps > 0));
    // Every protocol of the zoo took part.
    for kind in ProtocolKind::ALL {
        assert!(
            report.outcomes.iter().any(|o| o.protocol == kind),
            "{} missing from the mix",
            kind.name()
        );
    }
    // Per-session fault injection is real: with loss on, some sessions
    // need more steps than the fault-free minimum; with crashes on, some
    // sessions crash.
    assert!(report.crash_sessions > 0);
    assert!(report.quiescent_sessions > 0);
    // Sessions stay lean: a session core of ≈5 kB, not a trace
    // allocation storm (the bound is generous; recording stabilizing
    // sessions are the largest).
    assert!(
        report.peak_session_bytes < 64 * 1024,
        "peak session bytes blew up: {}",
        report.peak_session_bytes
    );

    // Full replay: same spec, same fleet, byte for byte.
    let again = run_fleet(&smoke_spec());
    assert_eq!(report.outcomes, again.outcomes);
}

#[test]
fn ledger_round_trips_and_is_gateable() {
    let report = run_fleet(&FleetSpec {
        sessions: 60,
        ..smoke_spec()
    });
    let ledger = report.to_ledger("smoke");
    assert_eq!(ledger.engine, "fleet");
    // The gate's keys: a sessions_per_sec floor and deterministic
    // counters (including the session-memory ceiling).
    assert!(ledger.gauges.contains_key("sessions_per_sec"));
    assert!(ledger.counters.contains_key("peak_session_bytes"));
    assert_eq!(ledger.counters["sessions"], 60);
    let back = RunLedger::from_json(&ledger.to_json()).unwrap();
    assert_eq!(back, ledger);
}

/// The E13 table's deterministic columns (EXPERIMENTS.md): the default
/// classic-nine fleet at seed 13, 10²–10⁴ sessions. Every zoo station
/// steps through these runs, so a transition change anywhere in the
/// classic nine moves at least one of these counts.
#[test]
fn e13_table_rows_are_pinned() {
    for (sessions, actions, violations, peak_session_bytes) in [
        (100, 12_648, 2, 4_048),
        (1_000, 106_196, 31, 4_048),
        (10_000, 942_726, 330, 4_416),
    ] {
        let report = run_fleet(&FleetSpec {
            seed: 13,
            sessions,
            workers: 2,
            ..FleetSpec::default()
        });
        assert_eq!(
            (report.actions, report.violations, report.peak_session_bytes),
            (actions, violations, peak_session_bytes),
            "E13 row for {sessions} sessions"
        );
    }
}
