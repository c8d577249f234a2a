//! # dynamoth-pubsub
//!
//! A from-scratch, Redis-like channel-based pub/sub server used as the
//! broker substrate of the Dynamoth reproduction, plus the plan-routed
//! client tier that turns a fleet of such brokers into one logical
//! pub/sub service. The paper deploys *unmodified* Redis instances and
//! implements all middleware logic around them; correspondingly, the
//! broker here ([`TcpBroker`]) knows nothing about plans, load
//! balancing or reconfiguration — routing lives entirely in the client
//! ([`RoutedClient`]) and the per-broker dispatcher sidecar
//! ([`DispatcherSidecar`]), mirroring how Dynamoth layers on Redis.
//!
//! The plan machinery ([`Plan`], [`ChannelMapping`], [`Ring`]) is
//! defined here and shared with the simulator in `dynamoth-core`, so
//! both tiers run one implementation.
//!
//! ```
//! use dynamoth_pubsub::{Channel, CpuModel, PubSubServer};
//! use dynamoth_sim::{NodeId, SimTime};
//!
//! let mut srv = PubSubServer::new(CpuModel::default());
//! let sub = NodeId::from_index(3);
//! srv.subscribe(SimTime::ZERO, sub, Channel(1));
//! assert_eq!(srv.publish(SimTime::ZERO, Channel(1)).recipients, vec![sub]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod balancer;
mod broker;
mod channel;
pub mod chaos;
pub mod client;
pub mod control;
pub mod dispatcher;
pub mod hashing;
mod ids;
pub mod load;
mod outbox;
pub mod plan;
mod reactor;
mod readbuf;
pub mod resp;
pub mod router;
mod server;
mod shard;
mod timer;
pub mod timing;
mod wire;

pub use balance::{bounded::BoundedPlacer, CapacityEstimator, Tuning};
pub use balancer::{
    BalancerConfig, LiveBalancerStats, LiveLoadBalancer, LoadReporter, ReplanSummary,
};
pub use broker::{
    BrokerConfig, BrokerHealth, BrokerLoadHandle, FlushStats, LoopFlushStats, ShutdownStats,
    TcpBroker,
};
pub use channel::Channel;
pub use chaos::{ChaosProxy, Direction};
pub use client::{
    ClientConfig, ClientEvent, DisconnectReason, DropCause, GapReason, Message, MessageId,
    TcpPubSubClient,
};
pub use control::{
    channel_id_of, control_channel, install_channel, lla_channel, ControlFrame, InstallFrame,
    Quarantine,
};
pub use dispatcher::{ChannelChange, DispatcherSidecar, SidecarConfig, SidecarEvent, SidecarStats};
pub use hashing::{Ring, DEFAULT_VNODES};
pub use ids::{PlanId, ServerId};
pub use load::BrokerLoadReport;
pub use outbox::OverflowPolicy;
pub use plan::{ChannelMapping, Plan, PlanChange, PlanError};
pub use router::{RoutedClient, RouterConfig, RouterEvent, RouterStats};
pub use server::{CpuModel, PubSubServer, PublishOutcome};
pub use timing::{Timing, TimingError};
