//! The repo benchmark: four long-run workloads, six end-to-end metrics,
//! layers traced from outside. See `README.md` for every definition.

pub mod compare;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workloads;
