//! A runnable TCP pub/sub broker speaking the Redis protocol.
//!
//! This is the "deploy it for real" face of the substrate: a
//! [`TcpBroker`] accepts RESP connections (`SUBSCRIBE`, `UNSUBSCRIBE`,
//! `PUBLISH`, `PING`) — enough protocol for any Redis pub/sub client.
//! All I/O runs on [`BrokerConfig::io_loops`] reactor threads (see
//! [`crate::reactor`]): each connection is pinned to one epoll event
//! loop at accept time, which reads it non-blockingly, executes its
//! commands, and drains its outbox with vectored writes when the socket
//! is writable. A slow subscriber never blocks a publisher — deliveries
//! only queue on its outbox — and an outbox overflowing its **byte**
//! budget disconnects the subscriber exactly like Redis'
//! `client-output-buffer-limit` (and the simulation's transport model).
//!
//! The hot path is built to scale with cores:
//!
//! - subscription state lives in a [`ShardedIndex`]: commands on
//!   disjoint channels take disjoint locks (shard chosen by hashing the
//!   channel name), and the index is keyed by the **full** name so a
//!   hash collision can never merge two channels; the same entry holds
//!   the channel's load counters, so a `PUBLISH` resolves its channel
//!   once;
//! - `PUBLISH` is read-mostly: it clones the channel's immutable
//!   `Arc` subscriber snapshot under a shared lock and fans out with no
//!   lock held, so concurrent publishers never serialize behind each
//!   other or behind subscription churn on other channels;
//! - commands are read in place from the connection's buffer, and the
//!   push frame is written once per publish (and delivery variant)
//!   straight from the channel and payload slices, then shared as an
//!   `Arc<[u8]>` by every outbox — per-subscriber cost is a
//!   reference-count bump and a bounded-queue push;
//! - publishing stays on the caller's thread: only the first push onto
//!   an empty outbox signals the subscriber's home loop, so a burst of
//!   N frames crosses threads once, and the loop flushes the whole
//!   backlog with one vectored write — under load the coalescing ratio
//!   (frames per `writev`) *improves*;
//! - connection-level state (outbox, subscription list, shutdown flag)
//!   is owned by the connection, so overflow kills and liveness checks
//!   touch no global lock.
//!
//! Beyond plain Redis semantics the broker speaks the `DMSEQ1` resume
//! protocol (see [`crate::wire`]): every publish is assigned a
//! per-channel monotonic sequence and retained in a bounded ring
//! ([`BrokerConfig::retention_frames`] /
//! [`BrokerConfig::retention_bytes`]), and a `SUBSCRIBE` whose channel
//! argument carries the `DMSEQ1;<from>;<name>` form replays the
//! retained suffix before going live — or pushes an explicit gap
//! marker when the requested point was already evicted, so loss is
//! detectable instead of silent.

use std::collections::{BTreeSet, HashMap};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::load::BrokerLoadReport;
use crate::outbox::{self, Frame, OutboxSender, OverflowPolicy};
use crate::reactor::{self, LoopHandle};
use crate::resp::{self, Command, Value};
use crate::shard::{ShardedIndex, SubscriberRef};
use crate::wire;

/// Hard ceiling on auto-selected I/O loops: beyond this, extra loops
/// buy contention, not throughput, for a pub/sub broker whose hot path
/// is fan-out.
const MAX_AUTO_IO_LOOPS: usize = 8;

/// Tuning knobs of a [`TcpBroker`].
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Maximum bytes queued per subscriber connection before the
    /// [`OverflowPolicy`] applies (the Redis
    /// `client-output-buffer-limit` analogue, measured in bytes like
    /// Redis, not frames).
    pub outbox_limit_bytes: usize,
    /// Number of subscription-index shards (rounded up to a power of
    /// two). Commands on channels in different shards never contend.
    pub shards: usize,
    /// What to do with a subscriber whose outbox exceeds its byte
    /// budget: kill it (Redis' behaviour, the default), shed its
    /// oldest queued frames, or conflate — shed the oldest queued
    /// frame *of the same channel* as the incoming one (market-data
    /// style latest-value delivery) — and keep it connected.
    pub overflow_policy: OverflowPolicy,
    /// How long shutdown waits for each connection's queued frames to
    /// reach the kernel before closing the socket anyway. Frames still
    /// queued when the deadline passes are counted as dropped.
    pub shutdown_drain_timeout: Duration,
    /// Maximum published frames retained per channel for sequence-based
    /// resume (evict-oldest). Zero disables retention and sequencing.
    pub retention_frames: usize,
    /// Maximum retained payload bytes per channel (evict-oldest,
    /// applied together with [`Self::retention_frames`]). Zero disables
    /// retention and sequencing.
    pub retention_bytes: usize,
    /// Number of reactor I/O event loops serving connections. `0` (the
    /// default) auto-selects `min(available cores, 8)`. Connections are
    /// pinned to the least-loaded loop at accept time.
    pub io_loops: usize,
    /// When set, a connection whose socket produces no bytes for this
    /// long is killed — half-open TCP detection (a peer that vanished
    /// without a FIN). `None` (the default) keeps silent connections
    /// forever, since a pure subscriber legitimately never writes;
    /// enable it for deployments whose clients `PING` periodically.
    pub liveness_timeout: Option<Duration>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            outbox_limit_bytes: 8 * 1024 * 1024,
            shards: 16,
            overflow_policy: OverflowPolicy::Kill,
            shutdown_drain_timeout: Duration::from_secs(1),
            retention_frames: 1024,
            retention_bytes: 1024 * 1024,
            io_loops: 0,
            liveness_timeout: None,
        }
    }
}

impl BrokerConfig {
    /// The actual loop count [`Self::io_loops`] resolves to: the value
    /// itself when non-zero, else `min(available cores, 8)`.
    pub fn resolved_io_loops(&self) -> usize {
        if self.io_loops > 0 {
            return self.io_loops;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, MAX_AUTO_IO_LOOPS)
    }
}

/// Flush statistics aggregated over every reactor loop: the ratio
/// `frames / writes` is the measured syscall-coalescing factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// RESP frames flushed to sockets.
    pub frames: u64,
    /// Vectored write syscalls issued to flush them.
    pub writes: u64,
}

/// Per-event-loop I/O statistics (see [`TcpBroker::per_loop_flush_stats`]);
/// summing `frames`/`writes` over all loops yields [`FlushStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopFlushStats {
    /// Index of the event loop (0-based; loop 0 also accepts).
    pub loop_id: usize,
    /// Connections currently pinned to this loop.
    pub connections: usize,
    /// RESP frames this loop flushed to sockets.
    pub frames: u64,
    /// Vectored write syscalls this loop issued.
    pub writes: u64,
    /// Payload bytes this loop handed to the kernel.
    pub bytes: u64,
    /// Times this loop was woken from its poll by another thread
    /// (cross-thread work arriving while it slept).
    pub wakeups: u64,
}

/// What [`TcpBroker::shutdown`] managed to deliver while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownStats {
    /// Frames handed to the kernel during the drain window.
    pub frames_flushed: u64,
    /// Frames still queued when the drain deadline passed (or a socket
    /// died), discarded.
    pub frames_dropped: u64,
}

/// A point-in-time health snapshot of a [`TcpBroker`]: connection
/// churn, disconnect causes, shed frames and flush efficiency, all from
/// lock-free counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerHealth {
    /// Connections accepted since startup.
    pub connections_accepted: u64,
    /// Connections currently registered.
    pub connections_live: usize,
    /// Connections currently open across all event loops (counted at
    /// the loops; equals [`Self::connections_live`] modulo in-flight
    /// registrations).
    pub open_connections: usize,
    /// High-water mark of simultaneously open connections.
    pub peak_connections: usize,
    /// Live (channel, subscriber) registrations.
    pub subscriptions: usize,
    /// Connections killed because their outbox exceeded its byte
    /// budget under [`OverflowPolicy::Kill`].
    pub overflow_kills: u64,
    /// Connections killed by the liveness deadline
    /// ([`BrokerConfig::liveness_timeout`]): half-open peers.
    pub liveness_kills: u64,
    /// Connections closed after a socket read error.
    pub read_errors: u64,
    /// Connections the peer closed in an orderly way.
    pub client_closes: u64,
    /// Connections closed after an unparseable RESP frame.
    pub protocol_errors: u64,
    /// Frames shed instead of delivered: `DropOldest` overflow, dead
    /// sockets, and expired shutdown drains.
    pub dropped_frames: u64,
    /// Flush efficiency (see [`TcpBroker::flush_stats`]).
    pub flush: FlushStats,
}

/// Per-connection state, shared between the connection's home reactor
/// loop (which owns the socket) and the kill paths (overflow, shutdown,
/// cross-loop publishes).
pub(crate) struct ConnState {
    pub(crate) conn: u64,
    /// Set once by whichever side kills the connection first.
    pub(crate) dead: AtomicBool,
    pub(crate) outbox: OutboxSender,
    /// Channels this connection is subscribed to, in subscription-set
    /// order (drives the count in subscribe/unsubscribe replies and the
    /// teardown sweep).
    pub(crate) channels: Mutex<BTreeSet<String>>,
    /// The reactor loop owning this connection's socket; kills from
    /// other threads are forwarded here for the actual teardown.
    pub(crate) home: LoopHandle,
}

pub(crate) struct BrokerShared {
    pub(crate) config: BrokerConfig,
    /// The one per-channel table: subscribers, sequence, retention and
    /// load counters (see [`crate::shard`] and [`crate::load`]).
    pub(crate) index: ShardedIndex,
    /// Connection registry: touched on connect, disconnect and kill —
    /// never on the pub/sub hot path.
    pub(crate) conns: Mutex<HashMap<u64, Arc<ConnState>>>,
    /// One handle per reactor loop, indexed by loop id.
    pub(crate) loops: Vec<LoopHandle>,
    pub(crate) flush_counters: Arc<outbox::FlushCounters>,
    pub(crate) running: AtomicBool,
    pub(crate) next_conn: AtomicU64,
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) peak_connections: AtomicUsize,
    /// Disconnect causes, for [`TcpBroker::health`].
    pub(crate) overflow_kills: AtomicU64,
    pub(crate) liveness_kills: AtomicU64,
    pub(crate) read_errors: AtomicU64,
    pub(crate) client_closes: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
}

impl BrokerShared {
    /// Kills a connection exactly once: marks it dead, closes its
    /// outbox, unregisters it, and removes every subscription. Safe to
    /// call from any thread; later callers are no-ops. With `notify`
    /// the connection's home loop is told to tear down the socket —
    /// pass `false` only from the home loop's own teardown (which
    /// handles the socket itself). Returns `true` when this call
    /// performed the kill.
    pub(crate) fn kill(&self, state: &Arc<ConnState>, notify: bool) -> bool {
        if state.dead.swap(true, Ordering::SeqCst) {
            return false;
        }
        self.conns.lock().remove(&state.conn);
        state.outbox.close();
        // Taking the channels lock after setting `dead` closes the race
        // with a concurrent SUBSCRIBE on the same connection: either the
        // subscribe saw `dead` and aborted, or its insertion is visible
        // here and swept.
        let names = std::mem::take(&mut *state.channels.lock());
        for name in &names {
            self.index.unsubscribe(name, state.conn);
        }
        if notify {
            state.home.schedule_kill(state.conn);
        }
        true
    }
}

/// A TCP broker serving the Redis pub/sub protocol.
///
/// # Examples
///
/// ```no_run
/// use dynamoth_pubsub::TcpBroker;
///
/// let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
/// println!("pub/sub broker on {}", broker.local_addr());
/// // … connect with any Redis client …
/// broker.shutdown();
/// ```
pub struct TcpBroker {
    shared: Arc<BrokerShared>,
    local_addr: SocketAddr,
    loop_threads: Vec<JoinHandle<()>>,
}

impl TcpBroker {
    /// Binds the broker with default tuning and starts accepting
    /// connections.
    ///
    /// # Errors
    ///
    /// Returns any socket error from binding the listener.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<TcpBroker> {
        TcpBroker::bind_with(addr, BrokerConfig::default())
    }

    /// Binds the broker with explicit [`BrokerConfig`] tuning.
    ///
    /// # Errors
    ///
    /// Returns any socket error from binding the listener or setting up
    /// the event loops.
    pub fn bind_with(addr: impl ToSocketAddrs, config: BrokerConfig) -> std::io::Result<TcpBroker> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let n_loops = config.resolved_io_loops();
        let loops = reactor::build_loops(n_loops)?;
        let shared = Arc::new(BrokerShared {
            index: ShardedIndex::new(
                config.shards,
                config.retention_frames,
                config.retention_bytes,
            ),
            config,
            conns: Mutex::new(HashMap::new()),
            loops: loops.iter().map(|(_, h)| h.clone()).collect(),
            flush_counters: Arc::new(outbox::FlushCounters::default()),
            running: AtomicBool::new(true),
            next_conn: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            peak_connections: AtomicUsize::new(0),
            overflow_kills: AtomicU64::new(0),
            liveness_kills: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            client_closes: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });
        let mut listener = Some(listener);
        let loop_threads = loops
            .into_iter()
            .enumerate()
            .map(|(idx, (poll, handle))| {
                reactor::spawn(idx, poll, handle, Arc::clone(&shared), listener.take())
            })
            .collect::<std::io::Result<Vec<_>>>()
            .inspect_err(|_| {
                // A failed thread spawn mid-bind: tell the loops that
                // did start to exit so their threads wind down.
                shared.running.store(false, Ordering::SeqCst);
                for h in &shared.loops {
                    h.wake();
                }
            })?;
        Ok(TcpBroker {
            shared,
            local_addr,
            loop_threads,
        })
    }

    /// The address the broker listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The number of reactor I/O event loops serving connections.
    pub fn io_loops(&self) -> usize {
        self.shared.loops.len()
    }

    /// Connections accepted since startup.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.connections_accepted.load(Ordering::Relaxed)
    }

    /// Current number of live subscriber registrations.
    pub fn subscription_count(&self) -> usize {
        self.shared.index.subscription_count()
    }

    /// Current number of subscribers on one channel (by full name).
    /// Used by the routed tier's tests and tooling to wait for a
    /// subscription to land without sniffing traffic.
    pub fn channel_subscribers(&self, name: &str) -> usize {
        self.shared.index.channel_subscribers(name)
    }

    /// `(retained frames, next sequence)` of one channel's retention
    /// ring — observability for resume tests and tooling.
    pub fn channel_retention(&self, name: &str) -> (usize, u64) {
        self.shared.index.retained(name)
    }

    /// Aggregate flush statistics over all event loops (frames flushed
    /// and vectored-write syscalls used).
    pub fn flush_stats(&self) -> FlushStats {
        FlushStats {
            frames: self.shared.flush_counters.frames.load(Ordering::Relaxed),
            writes: self.shared.flush_counters.writes.load(Ordering::Relaxed),
        }
    }

    /// Per-event-loop I/O breakdown: connection placement, flush
    /// efficiency and cross-thread wakeups of each loop.
    pub fn per_loop_flush_stats(&self) -> Vec<LoopFlushStats> {
        self.shared
            .loops
            .iter()
            .enumerate()
            .map(|(loop_id, h)| {
                let s = h.stats();
                LoopFlushStats {
                    loop_id,
                    connections: h.conn_count(),
                    frames: s.frames.load(Ordering::Relaxed),
                    writes: s.writes.load(Ordering::Relaxed),
                    bytes: s.bytes.load(Ordering::Relaxed),
                    wakeups: s.wakeups.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// A health snapshot: connection churn, disconnect causes, shed
    /// frames and flush efficiency.
    pub fn health(&self) -> BrokerHealth {
        let s = &self.shared;
        BrokerHealth {
            connections_accepted: s.connections_accepted.load(Ordering::Relaxed),
            connections_live: s.conns.lock().len(),
            open_connections: s.loops.iter().map(|h| h.conn_count()).sum(),
            peak_connections: s.peak_connections.load(Ordering::Relaxed),
            subscriptions: s.index.subscription_count(),
            overflow_kills: s.overflow_kills.load(Ordering::Relaxed),
            liveness_kills: s.liveness_kills.load(Ordering::Relaxed),
            read_errors: s.read_errors.load(Ordering::Relaxed),
            client_closes: s.client_closes.load(Ordering::Relaxed),
            protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
            dropped_frames: s.flush_counters.dropped.load(Ordering::Relaxed),
            flush: self.flush_stats(),
        }
    }

    /// Closes the current load-measurement interval and returns its
    /// per-channel traffic deltas plus the current subscriber gauge —
    /// the broker-side half of the live control plane. Each counter
    /// increment appears in exactly one report across successive calls.
    pub fn load_report(&self) -> BrokerLoadReport {
        self.shared.index.load_report()
    }

    /// A cloneable handle that can harvest [`Self::load_report`]s after
    /// the broker has been moved elsewhere (e.g. from a reporter
    /// thread).
    pub fn load_handle(&self) -> BrokerLoadHandle {
        BrokerLoadHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Frames shed per live connection (connection id, dropped count).
    /// Non-zero entries under [`OverflowPolicy::DropOldest`] identify
    /// the subscribers that cannot keep up.
    pub fn per_connection_drops(&self) -> Vec<(u64, u64)> {
        self.shared
            .conns
            .lock()
            .values()
            .map(|s| (s.conn, s.outbox.dropped_frames()))
            .collect()
    }

    /// Stops accepting connections and disconnects every client,
    /// draining each connection's queued frames for up to
    /// [`BrokerConfig::shutdown_drain_timeout`] before closing its
    /// socket. Returns how many frames the drain flushed vs dropped.
    pub fn shutdown(mut self) -> ShutdownStats {
        self.stop()
    }

    fn stop(&mut self) -> ShutdownStats {
        let flushed_before = self.shared.flush_counters.frames.load(Ordering::Relaxed);
        let dropped_before = self.shared.flush_counters.dropped.load(Ordering::Relaxed);
        self.shared.running.store(false, Ordering::SeqCst);
        // Wake every loop; each drains its own connections (bounded by
        // the drain deadline), closes their sockets and exits.
        for handle in &self.shared.loops {
            handle.wake();
        }
        for thread in self.loop_threads.drain(..) {
            let _ = thread.join();
        }
        let counters = &self.shared.flush_counters;
        ShutdownStats {
            frames_flushed: counters.frames.load(Ordering::Relaxed) - flushed_before,
            frames_dropped: counters.dropped.load(Ordering::Relaxed) - dropped_before,
        }
    }
}

/// A cloneable handle onto a broker's load counters, detached from the
/// [`TcpBroker`] value itself so a reporter thread can harvest reports
/// while the broker lives on another thread. Holding a handle does not
/// keep the broker serving — once the broker shuts down the handle just
/// reports the final quiescent counters.
#[derive(Clone)]
pub struct BrokerLoadHandle {
    shared: Arc<BrokerShared>,
}

impl BrokerLoadHandle {
    /// Harvests the next load report (see [`TcpBroker::load_report`]).
    pub fn report(&self) -> BrokerLoadReport {
        self.shared.index.load_report()
    }

    /// `true` once the broker behind this handle has shut down. A
    /// [`LoadReporter`](crate::LoadReporter) polls this to stop cleanly
    /// instead of spinning its publish connection's reconnect loop
    /// against a closed listener forever.
    pub fn is_shutdown(&self) -> bool {
        !self.shared.running.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for BrokerLoadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerLoadHandle").finish_non_exhaustive()
    }
}

impl Drop for TcpBroker {
    fn drop(&mut self) {
        if !self.loop_threads.is_empty() {
            self.stop();
        }
    }
}

impl std::fmt::Debug for TcpBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpBroker")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

/// Encodes `value` into a shareable frame.
pub(crate) fn encode_frame(value: &Value) -> Frame {
    let mut buf = Vec::new();
    resp::encode(value, &mut buf);
    buf.into()
}

fn send_value(out: &OutboxSender, value: &Value) -> bool {
    out.push(encode_frame(value))
}

/// The `message` push of `header ++ payload` on `channel`, written into
/// `scratch` and copied once into the frame every outbox shares.
fn push_frame(scratch: &mut Vec<u8>, channel: &[u8], header: &[u8], payload: &[u8]) -> Frame {
    scratch.clear();
    resp::message_frame(scratch, channel, header, payload);
    Frame::from(&scratch[..])
}

/// Executes one client command, read in place from the connection's
/// buffer (`Err` carries the error reply for a frame that is not one);
/// returns `false` to close the connection. Runs on the connection's
/// home reactor loop, which lends `scratch` to encode pushes in; replies
/// go through the outbox like any delivery, so ordering with concurrent
/// publishes is the queue order.
pub(crate) fn handle_command(
    state: &Arc<ConnState>,
    command: Result<Command<'_>, String>,
    shared: &BrokerShared,
    scratch: &mut Vec<u8>,
) -> bool {
    let command = match command {
        Ok(c) => c,
        Err(msg) => return send_value(&state.outbox, &Value::Error(msg)),
    };
    match command {
        Command::Ping => send_value(&state.outbox, &Value::Simple("PONG".into())),
        Command::Subscribe(channels) => {
            for arg in channels {
                let arg = String::from_utf8_lossy(arg);
                // A `DMSEQ1;<from|->;<name>` argument asks for sequenced
                // delivery and, with an explicit `from`, a replay of the
                // retained suffix; a plain argument subscribes plainly.
                let (name, from, sequenced) = match wire::parse_subscribe_arg(&arg) {
                    Some((name, from)) => (name, from, true),
                    None => (&*arg, None, false),
                };
                let (count, outcome) = {
                    let mut subscribed = state.channels.lock();
                    if state.dead.load(Ordering::SeqCst) {
                        return false;
                    }
                    subscribed.insert(name.to_owned());
                    // Always (re)register: a repeated SUBSCRIBE may
                    // upgrade a plain subscription to a sequenced one or
                    // move its resume point (the post-reconnect and
                    // switch-migration paths re-subscribe in place).
                    let outcome = shared.index.subscribe(
                        name,
                        SubscriberRef {
                            conn: state.conn,
                            outbox: state.outbox.clone(),
                            sequenced,
                        },
                        from,
                    );
                    (subscribed.len() as i64, outcome)
                };
                if !send_value(
                    &state.outbox,
                    &resp::subscription_push("subscribe", name, count),
                ) {
                    return false;
                }
                let mut push = |header: &[u8], payload: &[u8]| {
                    let frame = push_frame(scratch, name.as_bytes(), header, payload);
                    state.outbox.push(frame)
                };
                if let Some((requested, resume_from)) = outcome.gap {
                    if !push(b"", &wire::gap(requested, resume_from)) {
                        return false;
                    }
                }
                let replayed = outcome.replay.len() as u64;
                for (s, payload) in outcome.replay {
                    if !push(&wire::sequenced_header(s), &payload) {
                        return false;
                    }
                }
                // An explicit resume gets a completion marker even when
                // nothing was replayed, so the client can surface
                // `Resumed` deterministically.
                if outcome.sequenced
                    && from.is_some()
                    && !push(b"", &wire::resumed(replayed, outcome.next_seq))
                {
                    return false;
                }
            }
            true
        }
        Command::Unsubscribe(channels) => {
            for name in channels {
                let name = String::from_utf8_lossy(name);
                let count = {
                    let mut subscribed = state.channels.lock();
                    if subscribed.remove(&*name) {
                        shared.index.unsubscribe(&name, state.conn);
                    }
                    subscribed.len() as i64
                };
                if !send_value(
                    &state.outbox,
                    &resp::subscription_push("unsubscribe", &name, count),
                ) {
                    return false;
                }
            }
            true
        }
        Command::Publish(name, payload) => {
            let name = String::from_utf8_lossy(name);
            // Sequence assignment and snapshot capture happen together
            // under the channel mutex; the fan-out below holds no lock.
            let fanout = shared.index.publish(&name, payload);
            let mut delivered = 0usize;
            let mut overflowed: Vec<u64> = Vec::new();
            let mut sent_bytes = 0u64;
            // Encode each delivery variant at most once; every outbox
            // of that kind shares the allocation. Sequenced subscribers
            // only exist when retention is on, i.e. when `seq` is set.
            let mut plain: Option<Frame> = None;
            let mut seqed: Option<Frame> = None;
            // The channel's interned name keys every outbox push of this
            // fan-out; only `ConflateByChannel` consults it.
            let chan_key = fanout.channel();
            for sub in fanout.subs.iter() {
                let frame = if sub.sequenced {
                    seqed.get_or_insert_with(|| {
                        let header = wire::sequenced_header(fanout.seq.unwrap_or(0));
                        push_frame(scratch, name.as_bytes(), &header, payload)
                    })
                } else {
                    plain.get_or_insert_with(|| push_frame(scratch, name.as_bytes(), b"", payload))
                };
                if sub
                    .outbox
                    .push_keyed(Arc::clone(frame), Some(Arc::clone(chan_key)))
                {
                    delivered += 1;
                    sent_bytes += frame.len() as u64;
                } else {
                    overflowed.push(sub.conn);
                }
            }
            fanout.count(
                (name.len() + payload.len()) as u64,
                sent_bytes,
                delivered as u64,
            );
            // A full outbox means the subscriber cannot keep up: kill
            // it, like Redis does. (Under `DropOldest` and
            // `ConflateByChannel` the push never fails on a live
            // connection, so nothing lands here.)
            for dead_conn in overflowed {
                let victim = shared.conns.lock().get(&dead_conn).cloned();
                if let Some(victim) = victim {
                    if shared.kill(&victim, true) {
                        shared.overflow_kills.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            state.outbox.push(resp::ack(delivered))
        }
    }
}
