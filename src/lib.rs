//! # Dynamoth
//!
//! Facade crate for the Dynamoth reproduction (ICDCS 2015): a scalable,
//! elastic, channel-based pub/sub middleware for latency-constrained
//! cloud applications, rebuilt in Rust on top of a deterministic
//! discrete-event simulation of the paper's testbed.
//!
//! This crate re-exports the public APIs of all workspace crates so that
//! examples and downstream users can depend on a single crate:
//!
//! - [`sim`] — discrete-event simulation kernel
//! - [`net`] — latency / bandwidth network substrate
//! - [`pubsub`] — Redis-like channel pub/sub server
//! - [`core`] — the Dynamoth middleware itself (plans, client library,
//!   load analyzers, dispatchers, hierarchical load balancer)
//! - [`workloads`] — RGame and micro-benchmark workload generators

#![forbid(unsafe_code)]

pub use dynamoth_core as core;
pub use dynamoth_net as net;
pub use dynamoth_pubsub as pubsub;
pub use dynamoth_sim as sim;
pub use dynamoth_workloads as workloads;
