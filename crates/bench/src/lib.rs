//! Workload construction and measurement helpers for the `experiments`
//! binary, which prints every figure of the paper as a table:
//! `cargo run -p snap-bench --release --bin experiments -- figN` (or
//! `all`).
//!
//! Instance sizes are scaled-down replicas of the paper's (Section 1.2)
//! R-MAT configurations; `SNAP_SCALE` raises `log2(n)` globally. The
//! numbers a change is judged by come from the repo benchmark under
//! `benchmark/`, not from these tables.

pub mod common;

pub use common::*;
