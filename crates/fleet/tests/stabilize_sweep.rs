//! E14's measured table, pinned: 600 stabilizing sessions at fleet
//! seed 14, swept over corruption density and, at full corruption, over
//! channel loss. Every count EXPERIMENTS.md quotes for E14 is asserted
//! here exactly. `scripts/check.sh`'s stabilize-smoke stage runs this
//! suite.

use dl_fleet::{run_fleet, FleetReport, FleetSpec, ProtocolKind};

fn stabilizing_fleet(corruption_per256: u8, loss: u8) -> FleetReport {
    let mut spec = FleetSpec {
        seed: 14,
        sessions: 600,
        protocols: vec![ProtocolKind::Stabilizing],
        corruption_per256,
        workers: 2,
        ..FleetSpec::default()
    };
    spec.faults.loss = loss;
    run_fleet(&spec)
}

/// `(converged, Σ convergence, max convergence, delivered, actions)`.
fn row(report: &FleetReport) -> (u64, u64, u64, u64, u64) {
    let hist = report.verdicts.convergence_hist.snapshot();
    assert_eq!(report.sessions(), 600);
    assert_eq!(
        report.violations, 0,
        "a stabilizing session was judged violated"
    );
    assert_eq!(hist.count, report.verdicts.converged);
    (
        report.verdicts.converged,
        hist.sum,
        hist.max,
        report.msgs_delivered,
        report.actions,
    )
}

#[test]
fn convergence_sweep_over_corruption_density() {
    let loss = FleetSpec::default().faults.loss;
    for (corruption, want) in [
        (0, (600, 0, 0, 2400, 73_956)),
        (64, (600, 185, 5, 2039, 72_535)),
        (128, (600, 425, 5, 1573, 70_702)),
        (255, (600, 862, 5, 756, 67_064)),
    ] {
        let report = stabilizing_fleet(corruption, loss);
        assert_eq!(report.msgs_sent, 2400, "corruption {corruption}/256");
        assert_eq!(row(&report), want, "corruption {corruption}/256");
    }
}

#[test]
fn convergence_is_invariant_under_channel_loss() {
    // Loss stretches the run (retransmissions), never the convergence:
    // that is determined by the corrupted state alone.
    assert_eq!(FleetSpec::default().faults.loss, 32);
    for (loss, actions) in [(0, 71_898), (32, 67_064), (48, 68_910), (96, 83_723)] {
        let report = stabilizing_fleet(255, loss);
        assert_eq!(row(&report), (600, 862, 5, 756, actions), "loss {loss}/256");
    }
}
