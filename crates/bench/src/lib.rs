//! # asj-bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation (Section 5) plus the
//! repo's own ablations. Each experiment is a sweep over cluster
//! counts `k ∈ {1, 2, 4, 8, 16, 128}` (the paper's skew axis), averaged
//! over independent dataset seeds, reporting **total transferred bytes**
//! measured on the wire meters.
//!
//! Sweeps fan out over a scoped thread pool — each job owns its deployment
//! and links, so runs are fully independent (and deterministic per seed).
//!
//! Run `cargo run -p asj-bench --release --bin experiments -- all` to
//! reproduce everything; per-figure subcommands exist too. Results land as
//! aligned tables on stdout and CSV files under `results/`.

pub mod experiments;
pub mod runner;
pub mod table;

pub use experiments::{all_experiments, experiment_by_name, Experiment};
pub use runner::{AlgoKind, AlgoSpec, CellStats, SweepConfig, SweepResult};
pub use table::Table;
