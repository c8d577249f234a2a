//! Actor model: node identifiers, classes, messages and the [`Actor`]
//! trait implemented by every simulated node.

use crate::clock::{SimDuration, SimTime};
use crate::rng::SimRng;
use crate::world::SendOutcome;

/// Identifies a node (an actor) in the simulated world.
///
/// `NodeId`s are dense indices handed out by
/// [`World::add_node`](crate::World::add_node) in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `NodeId` from a dense index.
    ///
    /// Intended for harness code that stores node ids in compact arrays;
    /// the index must come from [`NodeId::index`].
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Coarse node classification used by the network substrate to decide
/// which latency rules apply, mirroring the paper's experimental setup:
/// *infrastructure* nodes (pub/sub servers, dispatchers, load balancer)
/// live in the cloud on a LAN, *client* nodes reach them over a WAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// An end-user client reached over the (simulated) wide-area network.
    Client,
    /// An infrastructure node inside the cloud (LAN latency between
    /// infrastructure nodes).
    Infra,
}

/// A message that can travel through the simulated network.
///
/// The only thing the kernel needs to know about a message is its wire
/// size, which drives the bandwidth model.
pub trait Message: 'static {
    /// Serialized size of this message in bytes, including protocol
    /// overhead.
    fn wire_size(&self) -> u32;
}

/// The capabilities an engine offers an actor while it handles an
/// event: reading the clock, sending messages, managing timers and
/// drawing random numbers.
///
/// The discrete-event [`World`](crate::World) provides the
/// implementation; actors see only this trait, never the engine.
pub trait ActorContext<M: Message> {
    /// Current time.
    fn now(&self) -> SimTime;

    /// The id of the node handling this event.
    fn node(&self) -> NodeId;

    /// This node's deterministic RNG stream.
    fn rng(&mut self) -> &mut SimRng;

    /// Sends `msg` to `to`, departing immediately.
    fn send(&mut self, to: NodeId, msg: M) -> SendOutcome {
        self.send_after(SimDuration::ZERO, to, msg)
    }

    /// Sends `msg` to `to`, with the departure delayed by `delay` to
    /// model local processing time before the bytes hit the wire.
    fn send_after(&mut self, delay: SimDuration, to: NodeId, msg: M) -> SendOutcome;

    /// Arms a timer that fires on this node after `delay`.
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId;

    /// Arms a timer that fires on this node at absolute time `at`.
    fn set_timer_at(&mut self, at: SimTime, tag: u64) -> TimerId;

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// no-op.
    fn cancel_timer(&mut self, id: TimerId);

    /// Cumulative bytes departed from `node` (transport accounting).
    fn egress_bytes(&self, node: NodeId) -> u64;

    /// Bytes currently backlogged on the connection `from → to`.
    fn connection_backlog(&self, from: NodeId, to: NodeId) -> u64;

    /// Requests an [`Actor::on_flush`] callback once the engine has
    /// handed this node every event of the current batching window,
    /// i.e. all events already queued for the current instant. Multiple
    /// requests within one window coalesce into a single callback.
    /// Actors use this to buffer per-recipient output during a burst
    /// and emit it batched.
    fn request_flush(&mut self);
}

/// A simulated node. Implementations react to incoming messages and
/// timer expirations; all side effects (sends, new timers) go through the
/// [`ActorContext`].
///
/// The `as_any` hooks allow harnesses and tests to downcast a stored
/// actor back to its concrete type for inspection.
pub trait Actor<M: Message>: 'static {
    /// Called when a message addressed to this node arrives.
    fn on_message(&mut self, ctx: &mut dyn ActorContext<M>, from: NodeId, msg: M);

    /// Called when a timer set by this node fires. `tag` is the value
    /// passed to [`ActorContext::set_timer`]. The default implementation
    /// ignores timers.
    fn on_timer(&mut self, ctx: &mut dyn ActorContext<M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called at the end of the batching window in which this actor
    /// called [`ActorContext::request_flush`]: buffered batches are
    /// drained here. The default implementation does nothing.
    fn on_flush(&mut self, ctx: &mut dyn ActorContext<M>) {
        let _ = ctx;
    }

    /// Upcast for inspection.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable upcast for inspection.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Identifies a pending timer so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

/// A request handed to a [`Transport`](crate::Transport) to compute when
/// (and whether) a message arrives at its destination.
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest {
    /// Sending node.
    pub from: NodeId,
    /// Class of the sending node.
    pub from_class: NodeClass,
    /// Receiving node.
    pub to: NodeId,
    /// Class of the receiving node.
    pub to_class: NodeClass,
    /// Wire size of the message in bytes.
    pub size: u32,
    /// Current simulation time.
    pub now: SimTime,
    /// Earliest instant the message may leave the sender (models local
    /// processing delay before the send).
    pub earliest_departure: SimTime,
}
