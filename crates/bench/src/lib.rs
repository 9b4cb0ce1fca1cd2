//! Ledger-emitting release runs of the headline experiments and the
//! regression gate's workloads (see [`ledger_runs`]).
//!
//! The `ledger_run` binary writes these runs to a bench file and prints
//! their Markdown tables; `bench_gate` compares a bench file against the
//! committed baseline.

pub mod ledger_runs;
