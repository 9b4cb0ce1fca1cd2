//! Release smoke for the `explore/deep` workload: a scaled-down instance
//! (channel capacity 5, 3 messages — 9129 states in well under a second)
//! goes through the exact `explore_deep_n` path the published ≥10⁶-state
//! `explore/deep` ledger entry uses, pinning the packed backend's counts
//! and the lock-free visited set's thread-count independence without the
//! full run's wall-clock cost. Edges, dedup hits, layers and arena bytes
//! are pinned absolutely too, so an enumeration change that moves them
//! alike at every thread count cannot pass unnoticed.

use dl_bench::ledger_runs::explore_deep_n;

#[test]
fn scaled_deep_run_is_thread_count_independent() {
    let oracle = explore_deep_n(5, 3, 9_000, 1, 0);
    assert_eq!(oracle.engine, "explore");
    assert_eq!(oracle.run_id, "deep");
    assert_eq!(oracle.counters["states"], 9129);
    assert_eq!(oracle.counters["edges"], 54_212);
    assert_eq!(oracle.counters["dedup_hits"], 45_084);
    assert_eq!(oracle.counters["layers"], 42);
    assert_eq!(oracle.counters["arena_bytes"], 819_200);
    assert_eq!(oracle.counters["violation"], 0);
    assert_eq!(oracle.counters["truncated"], 0);

    for threads in [2, 4] {
        let run = explore_deep_n(5, 3, 9_000, threads, 0);
        let mut a = oracle.counters.clone();
        let mut b = run.counters.clone();
        a.remove("threads");
        b.remove("threads");
        assert_eq!(a, b, "counters diverged at {threads} threads");
        assert_eq!(
            run.histograms, oracle.histograms,
            "layer histograms diverged at {threads} threads"
        );
    }
}
