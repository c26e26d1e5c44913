//! The repository benchmark. It drives the CAROL federation controller
//! through its public entry points — the `carol::service` daemon,
//! `ExperimentEngine::step`, `Carol`'s repair and observe — over three
//! seeded workloads, checks the outputs, and reports end-to-end metrics
//! (untraced run) or per-layer metrics from in-memory spans (traced run).
//! See `README.md` beside this crate for the metric map.

pub mod check;
pub mod episode;
pub mod report;
pub mod run;
pub mod spans;
pub mod workload;
