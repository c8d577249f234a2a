//! A fault-tolerant RESP pub/sub client for the TCP broker.
//!
//! The paper's lazy-reconfiguration machinery assumes clients that
//! survive broker churn: they detect dead or silent servers, reconnect,
//! re-issue their subscriptions, retry in-flight publications, and
//! suppress the duplicates retries can create (via globally unique
//! message ids — the paper's §V duplicate-suppression scheme).
//! [`TcpPubSubClient`] is that client for the real-network path:
//!
//! - **Reconnect**: capped exponential backoff with full jitter
//!   (AWS-style: `delay = uniform(0, min(cap, base·2ᵃᵗᵗᵉᵐᵖᵗ))`), so a
//!   thundering herd of clients re-spreads itself after a broker
//!   restart.
//! - **Resubscribe + resume**: the desired channel set survives the
//!   socket; on every reconnect the client transparently
//!   re-`SUBSCRIBE`s before anything else. With
//!   [`ClientConfig::resume`] on (the default) each subscription uses
//!   the broker's `DMSEQ1` from-sequence form: the client tracks the
//!   highest sequence seen per channel and asks the broker to replay
//!   everything after it, so an outage longer than the dedup window
//!   loses nothing while the gap still fits the broker's retention
//!   ring — and surfaces [`ClientEvent::Gap`] (never silence) when it
//!   does not.
//! - **Publish retry + dedup**: each publication carries a globally
//!   unique wire id (`origin`, `seq`) inside the payload
//!   ([`frame_payload`]); unacknowledged publications are retried after
//!   a reconnect, and the receive path suppresses re-deliveries through
//!   a sliding dedup window, giving exactly-once delivery to a
//!   connected subscriber across broker failures.
//! - **Liveness**: `PING` heartbeats plus a receive deadline detect a
//!   silent (half-open) broker within [`ClientConfig::liveness_timeout`]
//!   instead of hanging forever.
//! - **Observability**: every state change is surfaced as a
//!   [`ClientEvent`] (`Connected` / `Disconnected` / `Resubscribed` /
//!   `Dropped` / `GaveUp`), so callers see degradation instead of
//!   silence.
//!
//! The client is plain blocking std networking on one worker thread
//! (`dm-client`) and interoperates with any RESP pub/sub server:
//! payloads published by id-unaware clients are delivered verbatim (no
//! id, no dedup).
//!
//! # The worker's pass
//!
//! The worker is the last thread a delivery crosses. One pass is: swap
//! the caller's command queue out under one lock, encode every command
//! and every queued publication into one buffer, send it with one
//! `write_all`, then block in one `read` (at most
//! [`ClientConfig::tick`]) into a reusable buffer and decode every
//! complete frame in it by cursor. Each decoded application message and
//! each [`ClientEvent`] goes to the client's sink on the worker
//! thread itself: [`TcpPubSubClient::connect_addr`] installs the sink
//! that feeds [`TcpPubSubClient::try_message`] /
//! [`TcpPubSubClient::try_event`]; the routed tier installs one that
//! runs its cross-broker dedup and pushes straight onto the queue
//! [`RoutedClient::try_message`](crate::RoutedClient::try_message)
//! reads, so no second thread sits between the socket and the caller.
//! A write that fails leaves the whole batch unacknowledged; it returns
//! to the head of the queue in order, ids unchanged, and is re-sent
//! after the reconnect.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::resp::{self, Value};
use crate::rng::SplitMix64;
use crate::seq;

/// Tuning knobs of a [`TcpPubSubClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// First-retry backoff ceiling; doubles per failed attempt.
    pub reconnect_base: Duration,
    /// Upper bound of the backoff ceiling.
    pub reconnect_cap: Duration,
    /// Consecutive failed connection attempts before the client emits
    /// [`ClientEvent::GaveUp`] and stops. `None` retries forever.
    pub max_reconnect_attempts: Option<u32>,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// How often to send `PING` when the connection is otherwise idle
    /// (clamped to at most half the liveness timeout).
    pub heartbeat_interval: Duration,
    /// A connection that has received nothing for this long is declared
    /// dead ([`DisconnectReason::LivenessTimeout`]) — this is what
    /// catches half-open connections that TCP alone never reports.
    pub liveness_timeout: Duration,
    /// Sliding dedup window size, in message ids (the paper's
    /// duplicate-suppression window).
    pub dedup_window: usize,
    /// Send attempts per publication before it is dropped with
    /// [`DropCause::RetriesExhausted`].
    pub publish_retries: u32,
    /// Worker wake-up granularity: command latency, heartbeat check
    /// resolution and shutdown latency are all bounded by one tick.
    pub tick: Duration,
    /// Seed for the jitter PRNG and the origin id; `None` uses OS
    /// entropy. Fixing it makes reconnect timing reproducible in tests.
    pub seed: Option<u64>,
    /// Subscribe with the broker's `DMSEQ1` from-sequence form and
    /// resume from the per-channel high-water sequence after every
    /// reconnect. Against a broker with retention disabled the form
    /// degrades to a plain subscription; disabling it here restores the
    /// pre-resume wire behaviour entirely.
    pub resume: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            reconnect_base: Duration::from_millis(50),
            reconnect_cap: Duration::from_secs(2),
            max_reconnect_attempts: None,
            connect_timeout: Duration::from_secs(1),
            heartbeat_interval: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(3),
            dedup_window: 1024,
            publish_retries: 8,
            tick: Duration::from_millis(20),
            seed: None,
            resume: true,
        }
    }
}

/// Globally unique wire id of a publication: the publishing client's
/// random 64-bit `origin` plus its monotonically increasing `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId {
    /// The publishing client instance.
    pub origin: u64,
    /// Per-origin sequence number.
    pub seq: u64,
}

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectReason {
    /// A socket read/write error.
    Io,
    /// The server closed the connection in an orderly way.
    ServerClosed,
    /// Nothing was received within the liveness timeout — the broker is
    /// silent or the connection is half-open.
    LivenessTimeout,
    /// The server sent bytes that are not valid RESP.
    Protocol,
}

/// Why a message or publication was dropped instead of delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropCause {
    /// An incoming delivery carried an id already inside the dedup
    /// window (a retry duplicate), and was suppressed.
    Duplicate {
        /// Channel the duplicate arrived on.
        channel: String,
    },
    /// An outgoing publication exhausted its send attempts.
    RetriesExhausted {
        /// Channel it was addressed to.
        channel: String,
    },
    /// The publish queue overflowed and shed its oldest entry.
    QueueFull {
        /// Channel the shed publication was addressed to.
        channel: String,
    },
}

/// A state change of a [`TcpPubSubClient`], delivered via
/// [`TcpPubSubClient::try_event`] so callers observe degradation
/// instead of hanging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A TCP connection to the broker was established.
    Connected {
        /// 1-based connection attempt this session took (resets after a
        /// connection that received data).
        attempt: u32,
    },
    /// The connection was lost; the client will reconnect.
    Disconnected {
        /// Why it was lost.
        reason: DisconnectReason,
    },
    /// The desired channel set was re-issued after a (re)connect.
    Resubscribed {
        /// How many channels were re-subscribed.
        channels: usize,
    },
    /// A message or publication was dropped.
    Dropped {
        /// What was dropped and why.
        cause: DropCause,
    },
    /// A from-sequence resubscribe finished replaying the broker's
    /// retained suffix; live delivery continues seamlessly after it.
    Resumed {
        /// Channel that resumed.
        channel: String,
        /// Frames the broker replayed.
        replayed: u64,
    },
    /// The broker could not replay back to the requested sequence — the
    /// missing frames were evicted from retention (or the broker
    /// restarted and reset its sequence space). Loss is bounded and
    /// *explicit*: it is exactly `missed` frames (zero only for the
    /// discontinuities, which still surface as a gap).
    Gap {
        /// Channel with the hole.
        channel: String,
        /// Frames between the requested and first-replayable sequence.
        missed: u64,
        /// Why the hole exists.
        reason: GapReason,
    },
    /// `max_reconnect_attempts` consecutive attempts failed; the worker
    /// stopped.
    GaveUp,
}

/// Why a [`ClientEvent::Gap`] was emitted. Sequences are per-broker
/// *incarnation*: a broker that restarts — and a channel that fails over
/// to a different broker — starts a fresh sequence stream, so continuity
/// with the old stream is impossible and the discontinuity is surfaced
/// instead of silently conflated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapReason {
    /// The broker evicted the requested frames from retention; `missed`
    /// counts them exactly.
    Evicted,
    /// The broker's sequence space restarted under us (broker restart):
    /// the old high-water mark is meaningless in the new incarnation.
    Restart,
    /// The channel's home broker died and the channel was re-pointed to
    /// a survivor with a fresh sequence stream. Frames acknowledged by
    /// the dead broker but never delivered are unquantifiable across
    /// incarnations, so `missed` is 0; applications that need stronger
    /// guarantees should re-publish their unconfirmed tail on this
    /// event.
    Failover,
}

/// A delivered publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Channel it was published on.
    pub channel: String,
    /// Payload with the wire-id header (if any) stripped.
    pub payload: Vec<u8>,
    /// The publication's unique id, when the publisher framed one.
    pub id: Option<MessageId>,
    /// The broker-assigned per-channel sequence, when this subscription
    /// is sequenced (see [`ClientConfig::resume`]).
    pub seq: Option<u64>,
}

/// Queued publications (pending + unacknowledged) per connection before
/// the oldest is dropped with [`DropCause::QueueFull`].
const MAX_PENDING_PUBLISHES: usize = 4096;

const ID_MAGIC: &[u8] = b"DMID1;";
/// Bytes the wire-id header adds in front of a framed payload.
pub const ID_HEADER_LEN: usize = 6 + 16 + 16 + 1;

/// Frames `body` with `id` for the paper's duplicate-suppression
/// scheme: `DMID1;<origin:016x><seq:016x>;<body>`. The header is plain
/// payload bytes to the broker, so unmodified RESP servers forward it
/// untouched.
pub fn frame_payload(id: MessageId, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ID_HEADER_LEN + body.len());
    out.extend_from_slice(ID_MAGIC);
    out.extend_from_slice(format!("{:016x}{:016x}", id.origin, id.seq).as_bytes());
    out.push(b';');
    out.extend_from_slice(body);
    out
}

/// Splits a delivered payload into its wire id (if the publisher framed
/// one) and the body. Payloads without a valid header pass through
/// verbatim.
pub fn parse_payload(payload: &[u8]) -> (Option<MessageId>, &[u8]) {
    if payload.len() < ID_HEADER_LEN
        || !payload.starts_with(ID_MAGIC)
        || payload[ID_HEADER_LEN - 1] != b';'
    {
        return (None, payload);
    }
    let hex = &payload[ID_MAGIC.len()..ID_HEADER_LEN - 1];
    let Ok(hex) = std::str::from_utf8(hex) else {
        return (None, payload);
    };
    let (origin, seq) = hex.split_at(16);
    match (
        u64::from_str_radix(origin, 16),
        u64::from_str_radix(seq, 16),
    ) {
        (Ok(origin), Ok(seq)) => (Some(MessageId { origin, seq }), &payload[ID_HEADER_LEN..]),
        _ => (None, payload),
    }
}

/// Sliding duplicate-suppression window (mirrors the simulator client's
/// scheme): a set for O(1) membership plus FIFO eviction order. Shared
/// with the routed tier: the router and the dispatcher sidecar keep
/// their own windows over the same wire ids.
pub(crate) struct Dedup {
    seen: HashSet<MessageId>,
    order: VecDeque<MessageId>,
}

impl Dedup {
    pub(crate) fn new() -> Dedup {
        Dedup {
            seen: HashSet::new(),
            order: VecDeque::new(),
        }
    }

    /// Returns `true` when `id` is new (and records it), `false` for a
    /// duplicate inside the window.
    pub(crate) fn insert(&mut self, id: MessageId, cap: usize) -> bool {
        if !self.seen.insert(id) {
            return false;
        }
        self.order.push_back(id);
        while self.order.len() > cap.max(1) {
            if let Some(evicted) = self.order.pop_front() {
                self.seen.remove(&evicted);
            }
        }
        true
    }
}

/// Where a worker puts what its connection produces. Called on the
/// worker thread, in arrival order; an implementation must neither
/// block nor join the client it serves.
pub(crate) trait Sink: Send {
    /// One application message that passed the connection's dedup
    /// window.
    fn message(&mut self, msg: Message);
    /// One state change of the connection.
    fn event(&mut self, event: ClientEvent);
    /// Every frame of one socket read has been handed over.
    fn read_end(&mut self) {}
}

/// The default sink: the client's own queues.
struct QueueSink {
    messages: mpsc::Sender<Message>,
    events: mpsc::Sender<ClientEvent>,
}

impl Sink for QueueSink {
    fn message(&mut self, msg: Message) {
        let _ = self.messages.send(msg);
    }

    fn event(&mut self, event: ClientEvent) {
        let _ = self.events.send(event);
    }
}

/// Encoded bytes after which a pass writes before it encodes more: one
/// write per pass for any ordinary backlog, bounded memory for a deep
/// one.
const WRITE_BATCH_BYTES: usize = 256 * 1024;

/// Starting size of a connection's read buffer; it doubles whenever a
/// frame does not fit.
const READ_BUF_INIT: usize = 16 * 1024;

/// A connection's receive buffer: filled at the tail by `read`, consumed
/// at the head by cursor, so decoding a frame moves no bytes.
struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    fn new() -> ReadBuf {
        ReadBuf {
            buf: vec![0; READ_BUF_INIT],
            start: 0,
            end: 0,
        }
    }

    /// Reads once from `stream` into the free tail.
    fn fill(&mut self, stream: &mut impl Read) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.cramped() && self.start > 0 {
            // A partial frame at the tail: move it to the front.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.cramped() {
            // The frame in progress is larger than the buffer.
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Less than a quarter of the buffer is free behind the data.
    fn cramped(&self) -> bool {
        self.buf.len() - self.end < self.buf.len() / 4
    }

    /// The bytes not yet consumed.
    fn unread(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn consume(&mut self, used: usize) {
        self.start += used;
    }
}

enum Cmd {
    Subscribe {
        channel: String,
        from: Option<u64>,
    },
    Unsubscribe(String),
    Publish {
        channel: String,
        body: Vec<u8>,
    },
    PublishRaw {
        channel: String,
        payload: Vec<u8>,
    },
    /// Drain every queued/unacknowledged publication and hand it to the
    /// caller (failover rescue; see [`TcpPubSubClient::take_unsent`]).
    TakeUnsent(mpsc::Sender<Vec<(String, Vec<u8>)>>),
}

/// Per-channel resume bookkeeping: where the caller asked to start and
/// the highest broker sequence seen so far.
#[derive(Debug, Default, Clone, Copy)]
struct ResumeState {
    /// Caller-requested starting sequence ([`TcpPubSubClient::subscribe_from`]).
    base_from: Option<u64>,
    /// Highest sequence received on the channel; the next resubscribe
    /// resumes at `high_water + 1`.
    high_water: Option<u64>,
}

impl ResumeState {
    /// The `SUBSCRIBE` argument re-establishing this subscription:
    /// plain name without resume, `DMSEQ1`-framed otherwise — from the
    /// furthest point already covered, live when nothing is.
    fn subscribe_arg(&self, resume: bool, channel: &str) -> String {
        if !resume {
            return channel.to_owned();
        }
        let from = match (self.base_from, self.high_water) {
            (None, None) => None,
            (base, hw) => Some(base.unwrap_or(0).max(hw.map_or(0, |h| h + 1))),
        };
        seq::encode_subscribe_arg(channel, from)
    }
}

struct ClientShared {
    running: AtomicBool,
    cmds: Mutex<VecDeque<Cmd>>,
    /// `true` once the worker thread has exited (gave up or shut down);
    /// after that, commands are never processed again.
    exited: AtomicBool,
    /// Publications the worker deposited when it gave up, so
    /// [`TcpPubSubClient::take_unsent`] can still rescue them from a
    /// client whose worker is gone.
    stranded: Mutex<Vec<(String, Vec<u8>)>>,
}

/// A resilient RESP pub/sub client (see the module docs for the failure
/// model).
///
/// # Examples
///
/// ```no_run
/// use dynamoth_pubsub::{ClientEvent, TcpPubSubClient};
/// use std::time::Duration;
///
/// let client = TcpPubSubClient::connect("127.0.0.1:6379").expect("resolve");
/// client.subscribe("tile_1");
/// client.publish("tile_1", b"hello");
/// while let Some(msg) = client.message_timeout(Duration::from_secs(1)) {
///     println!("{}: {} bytes", msg.channel, msg.payload.len());
/// }
/// client.shutdown();
/// ```
pub struct TcpPubSubClient {
    shared: Arc<ClientShared>,
    worker: Option<JoinHandle<()>>,
    messages: Mutex<mpsc::Receiver<Message>>,
    events: Mutex<mpsc::Receiver<ClientEvent>>,
    origin: u64,
}

impl TcpPubSubClient {
    /// Starts a client for the broker at `addr` with default tuning.
    /// Returns immediately; the connection is established (and forever
    /// re-established) by a background worker — watch
    /// [`ClientEvent`]s to observe it.
    ///
    /// # Errors
    ///
    /// Returns an error only when `addr` cannot be resolved.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpPubSubClient> {
        TcpPubSubClient::connect_with(addr, ClientConfig::default())
    }

    /// Starts a client with explicit [`ClientConfig`] tuning.
    ///
    /// # Errors
    ///
    /// Returns an error only when `addr` cannot be resolved.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> std::io::Result<TcpPubSubClient> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address resolved")
        })?;
        Ok(TcpPubSubClient::connect_addr(addr, config))
    }

    /// Starts a client for an already-resolved address. Infallible: the
    /// TCP connection itself is established (and re-established, with
    /// capped-exponential backoff) by the background worker, so there is
    /// nothing left that can fail synchronously — watch
    /// [`ClientEvent`]s to observe connection state. This is the entry
    /// point for infrastructure that must never panic or abort on a
    /// temporarily unreachable peer (dispatcher sidecars, the live
    /// balancer).
    pub fn connect_addr(addr: SocketAddr, config: ClientConfig) -> TcpPubSubClient {
        let (messages, msg_rx) = mpsc::channel();
        let (events, event_rx) = mpsc::channel();
        let mut client =
            TcpPubSubClient::connect_sink(addr, config, |_| QueueSink { messages, events });
        client.messages = Mutex::new(msg_rx);
        client.events = Mutex::new(event_rx);
        client
    }

    /// Starts a client whose worker hands everything it produces to the
    /// sink `make_sink` builds from the client's origin, instead of the
    /// client's own queues: [`Self::try_message`] and [`Self::try_event`]
    /// of such a client never return anything.
    pub(crate) fn connect_sink<S: Sink + 'static>(
        addr: SocketAddr,
        config: ClientConfig,
        make_sink: impl FnOnce(u64) -> S,
    ) -> TcpPubSubClient {
        let shared = Arc::new(ClientShared {
            running: AtomicBool::new(true),
            cmds: Mutex::new(VecDeque::new()),
            exited: AtomicBool::new(false),
            stranded: Mutex::new(Vec::new()),
        });
        let mut rng = match config.seed {
            Some(seed) => SplitMix64::new(seed),
            None => SplitMix64::from_entropy(),
        };
        let origin = rng.next_u64();
        let worker = Worker {
            addr,
            cfg: config,
            shared: Arc::clone(&shared),
            sink: Box::new(make_sink(origin)),
            rng,
            origin,
            next_seq: 0,
            desired: BTreeMap::new(),
            pending: VecDeque::new(),
            unacked: VecDeque::new(),
            dedup: Dedup::new(),
            cmds: VecDeque::new(),
            out: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name("dm-client".into())
            .spawn(move || worker.run())
            .expect("spawn dm-client thread");
        TcpPubSubClient {
            shared,
            worker: Some(handle),
            // Disconnected queues: a custom sink receives everything.
            messages: Mutex::new(mpsc::channel().1),
            events: Mutex::new(mpsc::channel().1),
            origin,
        }
    }

    /// This client's random 64-bit origin — the first half of every
    /// wire id it frames. The routed tier derives per-client control
    /// channel names from it.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Adds `channel` to the desired subscription set; the worker
    /// subscribes now (if connected) and after every reconnect. With
    /// [`ClientConfig::resume`] on, delivery starts live and every
    /// later reconnect resumes from the highest sequence seen.
    pub fn subscribe(&self, channel: &str) {
        self.shared.cmds.lock().push_back(Cmd::Subscribe {
            channel: channel.to_owned(),
            from: None,
        });
    }

    /// Like [`Self::subscribe`], but asks the broker to first replay
    /// its retained frames of `channel` starting at sequence `from`
    /// (the routed tier passes 0 after a `<switch>` migration so the
    /// new home broker's whole post-migration suffix replays). The
    /// replay ends with a [`ClientEvent::Resumed`], or surfaces a
    /// [`ClientEvent::Gap`] when `from` is no longer retained.
    pub fn subscribe_from(&self, channel: &str, from: u64) {
        self.shared.cmds.lock().push_back(Cmd::Subscribe {
            channel: channel.to_owned(),
            from: Some(from),
        });
    }

    /// Removes `channel` from the desired subscription set.
    pub fn unsubscribe(&self, channel: &str) {
        self.shared
            .cmds
            .lock()
            .push_back(Cmd::Unsubscribe(channel.to_owned()));
    }

    /// Publishes `body` on `channel` with a fresh globally unique wire
    /// id. The publication is queued, retried across reconnects until
    /// acknowledged, and eventually dropped (with a
    /// [`ClientEvent::Dropped`]) if the broker never accepts it.
    pub fn publish(&self, channel: &str, body: &[u8]) {
        self.shared.cmds.lock().push_back(Cmd::Publish {
            channel: channel.to_owned(),
            body: body.to_vec(),
        });
    }

    /// Publishes an already-framed payload verbatim — no new wire id is
    /// allocated and any existing `DMID1` header is preserved. This is
    /// the forwarding primitive of the routed tier: a dispatcher
    /// re-publishing a wrong-server publication keeps the original id,
    /// so receive-side dedup windows still suppress duplicates.
    pub fn publish_raw(&self, channel: &str, payload: &[u8]) {
        self.shared.cmds.lock().push_back(Cmd::PublishRaw {
            channel: channel.to_owned(),
            payload: payload.to_vec(),
        });
    }

    /// Drains every publication still queued or unacknowledged and
    /// returns it as `(channel, framed payload)` pairs, oldest first.
    /// The payloads keep their original `DMID1` wire ids, so
    /// re-publishing them via [`Self::publish_raw`] on another broker is
    /// dedup-safe: entries that in fact landed before the drain are
    /// suppressed by receive-side windows. This is the failover rescue
    /// primitive — when this client's broker is declared dead, the
    /// router moves the stranded tail to a survivor instead of retrying
    /// into the corpse. Works on a worker that already gave up (it
    /// deposits its queue on exit); a live worker that does not respond
    /// within `timeout` yields an empty result.
    pub fn take_unsent(&self, timeout: Duration) -> Vec<(String, Vec<u8>)> {
        let (tx, rx) = mpsc::channel();
        self.shared.cmds.lock().push_back(Cmd::TakeUnsent(tx));
        // A worker that already gave up deposited its queue instead;
        // only wait on the command round-trip while the worker lives.
        let mut out = std::mem::take(&mut *self.shared.stranded.lock());
        if !self.shared.exited.load(Ordering::SeqCst) {
            out.extend(rx.recv_timeout(timeout).unwrap_or_default());
        }
        out.extend(std::mem::take(&mut *self.shared.stranded.lock()));
        out
    }

    /// The next delivered message, if one is already queued.
    pub fn try_message(&self) -> Option<Message> {
        self.messages.lock().try_recv().ok()
    }

    /// Blocks up to `timeout` for the next delivered message.
    pub fn message_timeout(&self, timeout: Duration) -> Option<Message> {
        self.messages.lock().recv_timeout(timeout).ok()
    }

    /// The next client event, if one is already queued.
    pub fn try_event(&self) -> Option<ClientEvent> {
        self.events.lock().try_recv().ok()
    }

    /// Blocks up to `timeout` for the next client event.
    pub fn event_timeout(&self, timeout: Duration) -> Option<ClientEvent> {
        self.events.lock().recv_timeout(timeout).ok()
    }

    /// Stops the worker and closes the connection.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpPubSubClient {
    fn drop(&mut self) {
        if self.worker.is_some() {
            self.stop();
        }
    }
}

impl std::fmt::Debug for TcpPubSubClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpPubSubClient").finish_non_exhaustive()
    }
}

struct PendingPub {
    channel: String,
    /// Id-framed payload; every send encodes the same `PUBLISH` frame
    /// from it, so a retry re-sends byte-identical data — same id,
    /// dedupable — and a failover rescue can re-home it verbatim.
    framed: Vec<u8>,
    attempts: u32,
}

struct Worker {
    addr: SocketAddr,
    cfg: ClientConfig,
    shared: Arc<ClientShared>,
    sink: Box<dyn Sink>,
    rng: SplitMix64,
    origin: u64,
    next_seq: u64,
    desired: BTreeMap<String, ResumeState>,
    pending: VecDeque<PendingPub>,
    unacked: VecDeque<PendingPub>,
    dedup: Dedup,
    /// The pass's commands, swapped out of `shared.cmds` under one lock
    /// (callers keep pushing onto the other deque meanwhile).
    cmds: VecDeque<Cmd>,
    /// The pass's outgoing bytes: every command and publication encoded
    /// back to back, sent with one write.
    out: Vec<u8>,
}

impl Worker {
    fn running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    fn emit(&mut self, event: ClientEvent) {
        self.sink.event(event);
    }

    fn run(mut self) {
        // Failed attempts since the last connection that received data.
        let mut attempts: u32 = 0;
        while self.running() {
            match TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout) {
                Ok(stream) => {
                    attempts += 1;
                    self.emit(ClientEvent::Connected { attempt: attempts });
                    let got_data = self.session(stream);
                    // Whatever was in flight when the session died goes
                    // back to the head of the queue, oldest first.
                    while let Some(p) = self.unacked.pop_back() {
                        self.pending.push_front(p);
                    }
                    if got_data {
                        attempts = 0;
                    }
                }
                Err(_) => {
                    attempts += 1;
                    // A refused/timed-out connect is down-ness evidence
                    // too: without this a broker that died *before* the
                    // first contact would never trip the router's
                    // failover timer (no session, no event, no probe).
                    self.emit(ClientEvent::Disconnected {
                        reason: DisconnectReason::Io,
                    });
                }
            }
            if !self.running() {
                break;
            }
            if let Some(max) = self.cfg.max_reconnect_attempts {
                if attempts >= max {
                    // Deposit the undeliverable queue where
                    // `take_unsent` can rescue it after this worker is
                    // gone (a failover re-homes it to a survivor).
                    let stranded: Vec<(String, Vec<u8>)> = self
                        .unacked
                        .drain(..)
                        .chain(self.pending.drain(..))
                        .map(|p| (p.channel, p.framed))
                        .collect();
                    *self.shared.stranded.lock() = stranded;
                    self.emit(ClientEvent::GaveUp);
                    break;
                }
            }
            self.backoff_sleep(attempts);
        }
        self.shared.exited.store(true, Ordering::SeqCst);
    }

    /// Runs one connected session; returns whether any bytes were
    /// received (which is what resets the backoff counter — a half-open
    /// accept that never speaks does not count as progress).
    fn session(&mut self, mut stream: TcpStream) -> bool {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.cfg.tick));
        // Transparent re-subscribe before anything else, resuming each
        // channel from its high-water sequence. (Nothing encoded for
        // the previous connection leaks into this one.)
        self.out.clear();
        if !self.desired.is_empty() {
            let args: Vec<String> = self
                .desired
                .iter()
                .map(|(c, st)| st.subscribe_arg(self.cfg.resume, c))
                .collect();
            let mut parts: Vec<&[u8]> = vec![b"SUBSCRIBE"];
            parts.extend(args.iter().map(|a| a.as_bytes()));
            resp::encode_command(&parts, &mut self.out);
            if !self.flush(&mut stream) {
                self.emit(ClientEvent::Disconnected {
                    reason: DisconnectReason::Io,
                });
                return false;
            }
            self.emit(ClientEvent::Resubscribed {
                channels: self.desired.len(),
            });
        }
        // PING often enough that a silent broker misses several
        // heartbeats before the liveness deadline fires.
        let ping_every = self
            .cfg
            .heartbeat_interval
            .min(self.cfg.liveness_timeout / 2)
            .max(Duration::from_millis(1));
        let mut last_rx = Instant::now();
        let mut last_ping = Instant::now();
        let mut got_data = false;
        let mut rbuf = ReadBuf::new();
        loop {
            if !self.running() {
                return got_data;
            }
            let reason = 'fail: {
                self.apply_commands(true);
                if !self.send_pending(&mut stream) {
                    break 'fail Some(DisconnectReason::Io);
                }
                match rbuf.fill(&mut stream) {
                    Ok(0) => break 'fail Some(DisconnectReason::ServerClosed),
                    Ok(_) => {
                        last_rx = Instant::now();
                        got_data = true;
                        loop {
                            match resp::decode(rbuf.unread()) {
                                Ok(Some((value, used))) => {
                                    rbuf.consume(used);
                                    self.handle_frame(value);
                                }
                                Ok(None) => break,
                                Err(_) => break 'fail Some(DisconnectReason::Protocol),
                            }
                        }
                        self.sink.read_end();
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => break 'fail Some(DisconnectReason::Io),
                }
                if last_rx.elapsed() > self.cfg.liveness_timeout {
                    break 'fail Some(DisconnectReason::LivenessTimeout);
                }
                if last_ping.elapsed() >= ping_every {
                    // Leaves with the next pass's write, which is next.
                    resp::encode_command(&[b"PING"], &mut self.out);
                    last_ping = Instant::now();
                }
                None
            };
            if let Some(reason) = reason {
                self.emit(ClientEvent::Disconnected { reason });
                return got_data;
            }
        }
    }

    /// Interprets one server frame.
    fn handle_frame(&mut self, value: Value) {
        match value {
            Value::Array(Some(items)) => {
                let kind = match items.first() {
                    Some(Value::Bulk(Some(k))) => k.as_slice(),
                    _ => return,
                };
                if kind != b"message" || items.len() != 3 {
                    return; // subscribe/unsubscribe confirmations etc.
                }
                let channel = match &items[1] {
                    Value::Bulk(Some(c)) => String::from_utf8_lossy(c).into_owned(),
                    _ => return,
                };
                let mut payload = match &items[2] {
                    Value::Bulk(Some(p)) => p.as_slice(),
                    _ => return,
                };
                let mut broker_seq = None;
                if self.cfg.resume {
                    // Resume-protocol markers arrive as unicast pushes
                    // on the channel; intercept them before the normal
                    // delivery path.
                    if let Some((requested, resume_from)) = seq::parse_gap(payload) {
                        // `resume_from < requested` means the broker's
                        // sequence space restarted under us: the stale
                        // high-water must be forgotten or every future
                        // resubscribe re-requests it.
                        let reason = if resume_from < requested {
                            if let Some(st) = self.desired.get_mut(&channel) {
                                st.base_from = None;
                                st.high_water = None;
                            }
                            GapReason::Restart
                        } else {
                            GapReason::Evicted
                        };
                        self.emit(ClientEvent::Gap {
                            channel,
                            missed: resume_from.saturating_sub(requested),
                            reason,
                        });
                        return;
                    }
                    if let Some((replayed, _next)) = seq::parse_resume(payload) {
                        self.emit(ClientEvent::Resumed { channel, replayed });
                        return;
                    }
                    if let Some((s, body)) = seq::parse_seq_payload(payload) {
                        broker_seq = Some(s);
                        payload = body;
                        if let Some(st) = self.desired.get_mut(&channel) {
                            st.high_water = Some(st.high_water.map_or(s, |h| h.max(s)));
                        }
                    }
                }
                let (id, body) = parse_payload(payload);
                if let Some(id) = id {
                    if !self.dedup.insert(id, self.cfg.dedup_window) {
                        self.emit(ClientEvent::Dropped {
                            cause: DropCause::Duplicate { channel },
                        });
                        return;
                    }
                }
                self.sink.message(Message {
                    channel,
                    payload: body.to_vec(),
                    id,
                    seq: broker_seq,
                });
            }
            // Publish acknowledgement (receiver count). Replies on one
            // connection are FIFO, so it acks the oldest in flight.
            Value::Integer(_) => {
                self.unacked.pop_front();
            }
            // An error reply deliberately acks nothing: a broker that
            // choked on a torn frame error-replies before closing, and
            // the publish it refused must be retried, not silently
            // counted delivered. Retrying a publish that *did* land is
            // safe (the dedup window suppresses it); dropping one that
            // did not is a lost message.
            // +PONG, -ERR and anything else: receipt already fed
            // liveness.
            _ => {}
        }
    }

    /// Applies queued caller commands, encoding what goes on the wire
    /// into `out`; while not `connected` only the desired set and the
    /// publish queue update (the next session re-subscribes from them).
    fn apply_commands(&mut self, connected: bool) {
        // One lock per pass, not one per command: `publish()` callers
        // contend for it.
        std::mem::swap(&mut *self.shared.cmds.lock(), &mut self.cmds);
        while let Some(cmd) = self.cmds.pop_front() {
            match cmd {
                Cmd::Subscribe { channel, from } => {
                    let is_new = !self.desired.contains_key(&channel);
                    let st = self.desired.entry(channel.clone()).or_default();
                    if from.is_some() {
                        st.base_from = from;
                    }
                    // An explicit `from` re-issues the SUBSCRIBE even on
                    // an already-subscribed channel: the broker replaces
                    // the registration and replays from the new point.
                    if connected && (is_new || from.is_some()) {
                        let arg = st.subscribe_arg(self.cfg.resume, &channel);
                        resp::encode_command(&[b"SUBSCRIBE", arg.as_bytes()], &mut self.out);
                    }
                }
                Cmd::Unsubscribe(channel) => {
                    if self.desired.remove(&channel).is_some() && connected {
                        resp::encode_command(&[b"UNSUBSCRIBE", channel.as_bytes()], &mut self.out);
                    }
                }
                Cmd::Publish { channel, body } => {
                    let id = MessageId {
                        origin: self.origin,
                        seq: self.next_seq,
                    };
                    self.next_seq += 1;
                    let framed = frame_payload(id, &body);
                    self.enqueue_publish(channel, framed);
                }
                Cmd::PublishRaw { channel, payload } => {
                    self.enqueue_publish(channel, payload);
                }
                Cmd::TakeUnsent(reply) => {
                    // Oldest first: in-flight (unacked) precede queued.
                    let drained: Vec<(String, Vec<u8>)> = self
                        .unacked
                        .drain(..)
                        .chain(self.pending.drain(..))
                        .map(|p| (p.channel, p.framed))
                        .collect();
                    let _ = reply.send(drained);
                }
            }
        }
    }

    /// Queues one fully framed payload for publication, shedding the
    /// oldest pending entry when the queue is full.
    fn enqueue_publish(&mut self, channel: String, framed: Vec<u8>) {
        if self.pending.len() + self.unacked.len() >= MAX_PENDING_PUBLISHES {
            if let Some(shed) = self.pending.pop_front() {
                self.emit(ClientEvent::Dropped {
                    cause: DropCause::QueueFull {
                        channel: shed.channel,
                    },
                });
            }
        }
        self.pending.push_back(PendingPub {
            channel,
            framed,
            attempts: 0,
        });
    }

    /// Sends the pass's batch: what `apply_commands` encoded, then every
    /// queued publication (dropping those that exhausted their
    /// attempts). A publication is in flight from the moment it is
    /// encoded, so after a failed write the whole batch is in `unacked`
    /// and returns to the queue in order. Returns `false` on a write
    /// error.
    fn send_pending(&mut self, stream: &mut TcpStream) -> bool {
        while let Some(mut p) = self.pending.pop_front() {
            if p.attempts >= self.cfg.publish_retries {
                self.emit(ClientEvent::Dropped {
                    cause: DropCause::RetriesExhausted { channel: p.channel },
                });
                continue;
            }
            p.attempts += 1;
            resp::encode_command(
                &[b"PUBLISH", p.channel.as_bytes(), &p.framed],
                &mut self.out,
            );
            self.unacked.push_back(p);
            if self.out.len() >= WRITE_BATCH_BYTES && !self.flush(stream) {
                return false;
            }
        }
        self.flush(stream)
    }

    /// Writes `out` and empties it; returns `false` on a write error.
    fn flush(&mut self, stream: &mut TcpStream) -> bool {
        let sent = self.out.is_empty() || stream.write_all(&self.out).is_ok();
        self.out.clear();
        sent
    }

    /// Sleeps for a full-jitter backoff delay, staying responsive to
    /// shutdown and still absorbing caller commands.
    fn backoff_sleep(&mut self, attempts: u32) {
        let base = self.cfg.reconnect_base.as_millis().max(1) as u64;
        let cap = self.cfg.reconnect_cap.as_millis().max(1) as u64;
        let exp = attempts.saturating_sub(1).min(16);
        let ceiling = cap.min(base.saturating_mul(1u64 << exp)).max(1);
        let delay = Duration::from_millis(1 + self.rng.next_below(ceiling));
        let deadline = Instant::now() + delay;
        while self.running() {
            self.apply_commands(false);
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_ids_roundtrip() {
        let id = MessageId {
            origin: 0xdead_beef_cafe_f00d,
            seq: 42,
        };
        let framed = frame_payload(id, b"position update");
        let (parsed, body) = parse_payload(&framed);
        assert_eq!(parsed, Some(id));
        assert_eq!(body, b"position update");
    }

    #[test]
    fn unframed_payloads_pass_through() {
        for raw in [&b"plain"[..], b"", b"DMID1;short", &[0u8; 64][..]] {
            let (id, body) = parse_payload(raw);
            assert_eq!(id, None);
            assert_eq!(body, raw);
        }
    }

    #[test]
    fn header_lookalike_with_bad_hex_passes_through() {
        let mut fake = Vec::new();
        fake.extend_from_slice(ID_MAGIC);
        fake.extend_from_slice(&[b'z'; 32]);
        fake.push(b';');
        fake.extend_from_slice(b"body");
        let (id, body) = parse_payload(&fake);
        assert_eq!(id, None);
        assert_eq!(body, &fake[..]);
    }

    #[test]
    fn resubscribe_arg_resumes_past_the_furthest_point() {
        let fresh = ResumeState::default();
        // A fresh subscription goes live-sequenced: no history replay.
        assert_eq!(fresh.subscribe_arg(true, "ch"), "DMSEQ1;-;ch");
        assert_eq!(fresh.subscribe_arg(false, "ch"), "ch");
        let hw = ResumeState {
            base_from: None,
            high_water: Some(9),
        };
        assert_eq!(
            hw.subscribe_arg(true, "ch"),
            format!("DMSEQ1;{:016x};ch", 10)
        );
        // An explicit base only wins while it lies beyond the
        // high-water mark.
        let both = ResumeState {
            base_from: Some(3),
            high_water: Some(9),
        };
        assert_eq!(
            both.subscribe_arg(true, "ch"),
            format!("DMSEQ1;{:016x};ch", 10)
        );
        let ahead = ResumeState {
            base_from: Some(42),
            high_water: Some(9),
        };
        assert_eq!(
            ahead.subscribe_arg(true, "ch"),
            format!("DMSEQ1;{:016x};ch", 42)
        );
    }

    #[test]
    fn read_buf_keeps_frames_intact_across_compaction_and_growth() {
        // Frames from 1 B to several buffers long, back to back, arriving
        // in reads that split them anywhere.
        let bodies: Vec<Vec<u8>> = [1, 700, 5_000, 3 * READ_BUF_INIT, 9, 20_000, 64]
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![b'a' + i as u8; len])
            .collect();
        let mut wire = Vec::new();
        for body in &bodies {
            resp::encode(&Value::bulk(body.clone()), &mut wire);
        }
        /// Yields at most 3 000 bytes per read.
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(buf.len()).min(3_000);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut src = Trickle(&wire);
        let mut rbuf = ReadBuf::new();
        let mut decoded = Vec::new();
        while rbuf.fill(&mut src).expect("read") > 0 {
            while let Some((value, used)) = resp::decode(rbuf.unread()).expect("valid") {
                rbuf.consume(used);
                decoded.push(value);
            }
        }
        let expected: Vec<Value> = bodies.into_iter().map(Value::bulk).collect();
        assert_eq!(decoded, expected);
        assert!(rbuf.unread().is_empty());
        assert!(
            rbuf.buf.len() > 3 * READ_BUF_INIT,
            "grew for the long frame"
        );
        assert!(rbuf.buf.len() <= 8 * READ_BUF_INIT, "and only as needed");
    }

    #[test]
    fn dedup_window_is_sliding_and_bounded() {
        let mut dedup = Dedup::new();
        let mid = |seq| MessageId { origin: 1, seq };
        for seq in 0..10 {
            assert!(dedup.insert(mid(seq), 4));
        }
        assert_eq!(dedup.seen.len(), 4);
        // Recent ids are suppressed …
        for seq in 6..10 {
            assert!(!dedup.insert(mid(seq), 4));
        }
        // … while ids past the window are (correctly) fresh again.
        assert!(dedup.insert(mid(0), 4));
    }
}
