//! `servebench` — the served-path benchmark.
//!
//! One process starts a loopback `siri-server` over its own store and
//! drives it through `RemoteSession`, closed loop, on one of its
//! workloads (see README.md). Every reply is checked against a model of
//! what was committed. An untraced run reports end-to-end metrics; a
//! traced run reports per-layer spans and counts taken around calls into
//! each layer's public functions.

pub mod drive;
pub mod kv_zipf;
pub mod ledger;
pub mod model;
pub mod ops;
pub mod rig;
pub mod run;
pub mod stats;
pub mod tap;
pub mod wiki;
pub mod workload;

pub use run::{
    end_to_end_metrics, per_layer_metrics, run, Metric, Outcome, Phase, RunConfig,
    UNGATED_WORKLOADS, WORKLOADS,
};
