//! # stellaris-core
//!
//! The primary contribution of the Stellaris paper (SC'24), reproduced in
//! Rust: a generic **asynchronous learning paradigm** for distributed DRL
//! training on serverless computing, built from
//!
//! * **importance-sampling truncation with a global view** (§V-A, Eq. 2) —
//!   [`truncation::RatioBoard`];
//! * **staleness-aware gradient aggregation** (§V-C, Eq. 3 & 4) —
//!   [`staleness::StalenessSchedule`], [`parameter::ShardedParameterServer`];
//! * **on-demand serverless learner orchestration** (§V-B) —
//!   [`orchestrator::train`], with the GPU data loader, hierarchical data
//!   passing through the distributed cache, and the baseline aggregation
//!   rules (Softsync, SSP, pure-async, full-sync) used by the ablations.
//!
//! [`frameworks`] provides named configurations reproducing every baseline
//! system of the evaluation: vanilla PPO/IMPACT, Ray RLlib-style synchronous
//! multi-learner training, MinionsRL, and PAR-RL on the HPC cluster.

#![warn(missing_docs)]

pub mod aggregation;
pub mod autoscale;
pub mod config;
pub mod frameworks;
pub mod messages;
pub mod metrics;
pub mod orchestrator;
pub mod parameter;
pub mod remote;
pub mod staleness;
pub mod transport;
pub mod truncation;

pub use aggregation::{AggregationRule, GradAccumulator, SspThrottle};
pub use autoscale::LearnerAutoscaler;
pub use config::{Algo, Deployment, LearnerMode, TrainConfig};
pub use messages::GradientMsg;
pub use metrics::{rows_to_csv, TimerReport, Timers, TrainRow};
pub use orchestrator::{smooth, train, TrainResult, POLICY_KEY};
pub use parameter::{ParameterServer, ShardLayout, ShardedParameterServer, StalenessRing};
pub use remote::{
    serve_worker, snapshot_checksum, GradientRequest, RemoteError, RemoteFleet, RemoteRunReport,
    RemoteSetup, RemoteWorker, WireEvent, WireEventBatch,
};
pub use staleness::{staleness_weight, StalenessSchedule};
pub use transport::{Delivered, Placement, Router, Tier, TransportError};
pub use truncation::{reward_improvement_bound, RatioBoard};
