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
//!   re-`SUBSCRIBE`s before anything else. Each subscription uses
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
//!   silent (half-open) broker within [`Timing::liveness_timeout`]
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
//! The worker is the last thread a delivery crosses. It sleeps in one
//! `epoll_wait` over its socket and a waker callers kick. One pass is:
//! swap the caller's command queue out under one lock, then, when the
//! queue is due, encode every command and every queued publication into
//! one buffer and send it with one `write_all`; on readiness, `read` once
//! into a reusable buffer and decode every complete frame in it by
//! cursor. Each decoded application message goes to the client's sink
//! on the worker thread itself, as a view borrowed from the read buffer:
//! the worker copies the ones the sink keeps into one batch per read and
//! hands the batch over once, at the end of the read and before any
//! [`ClientEvent`] the read raised, so an event never overtakes the
//! messages read ahead of it. [`TcpPubSubClient::connect_addr`] installs
//! the sink that feeds [`TcpPubSubClient::try_message`] /
//! [`TcpPubSubClient::try_event`]; the routed tier installs one that runs
//! its cross-broker dedup and sends straight to the queue
//! [`RoutedClient::try_message`](crate::RoutedClient::try_message)
//! reads, so no second thread sits between the socket and the caller.
//! The caller builds each [`Message`] from the batch on its own thread:
//! the worker allocates nothing per delivery, and no thread frees what
//! another allocated.
//! A write that fails leaves the whole batch unacknowledged; it returns
//! to the head of the queue in order, ids unchanged, and is re-sent
//! after the reconnect.
//!
//! Publications leave by **size or linger**. Everything queued is sent
//! when a command other than a publication is queued (it kicks the
//! waker), when [`FLUSH_BATCH`] publications are queued (the publication
//! completing the batch kicks it), and when the linger ends: at the
//! first multiple of [`ClientConfig::tick`], on a clock the process's
//! clients share, after the first publication queued into an idle
//! worker or after the last flush that sent any. A read sends nothing
//! by itself: a flush per ack or delivery would split batches the
//! broker and the subscribers then pay a wake-up each for. A worker
//! whose linger ended with nothing queued sleeps until its next `PING`
//! or liveness deadline; the first publication pushed while it sleeps
//! kicks it once, to arm the linger. The worker marks itself asleep
//! before it re-checks the queue under the queue lock, and a caller
//! reads the mark after its push, so no push is left asleep.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dynamoth_sim::SimRng;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;

use crate::readbuf::ReadBuf;
use crate::resp::{self, ServerFrame};
use crate::timing::Timing;
use crate::wire::{self, Delivery};

pub use crate::wire::{frame_payload, parse_payload, ID_HEADER_LEN};

/// Tuning knobs of a [`TcpPubSubClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The deployment's timing model. The client reads its reconnect
    /// backoff, connect timeout, heartbeat and liveness deadline from it;
    /// a connection that has received nothing for
    /// [`Timing::liveness_timeout`] is declared dead
    /// ([`DisconnectReason::LivenessTimeout`]) — this is what catches
    /// half-open connections that TCP alone never reports. Routers,
    /// sidecars, reporters and the balancer read theirs from the
    /// `ClientConfig` they embed.
    pub timing: Timing,
    /// Consecutive failed connection attempts before the client emits
    /// [`ClientEvent::GaveUp`] and stops. `None` retries forever.
    pub max_reconnect_attempts: Option<u32>,
    /// Sliding dedup window size, in message ids (the paper's
    /// duplicate-suppression window).
    pub dedup_window: usize,
    /// Send attempts per publication before it is dropped with
    /// [`DropCause::RetriesExhausted`].
    pub publish_retries: u32,
    /// The linger bound: the longest a publication waits in the queue
    /// for [`FLUSH_BATCH`] others (see the module docs). Commands other
    /// than publications and shutdown never wait for it.
    pub tick: Duration,
    /// Seed for the jitter PRNG and the origin id; `None` uses OS
    /// entropy. Fixing it makes reconnect timing reproducible in tests.
    pub seed: Option<u64>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timing: Timing::default(),
            max_reconnect_attempts: None,
            dedup_window: 1024,
            publish_retries: 8,
            tick: Duration::from_millis(20),
            seed: None,
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
    /// The broker-assigned per-channel sequence, when the broker
    /// sequences this subscription (its retention is on).
    pub seq: Option<u64>,
}

/// A generator seeded with `seed`, or from the process's hasher keys when
/// the caller asked for no reproducibility.
pub(crate) fn seeded_rng(seed: Option<u64>) -> SimRng {
    SimRng::new(seed.unwrap_or_else(|| {
        use std::hash::{BuildHasher, Hasher};
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(u64::from(std::process::id()));
        h.finish()
    }))
}

/// Queued publications (pending + unacknowledged) per connection before
/// the oldest is dropped with [`DropCause::QueueFull`].
const MAX_PENDING_PUBLISHES: usize = 4096;

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

/// One application message as the worker reads it: borrowed from the
/// connection's read buffer, not yet a [`Message`].
#[derive(Clone, Copy)]
pub(crate) struct MessageView<'a> {
    /// The channel, as [`Message::channel`] will hold it.
    pub(crate) channel: &'a str,
    /// The payload with its wire-id header stripped.
    pub(crate) payload: &'a [u8],
    pub(crate) id: Option<MessageId>,
    pub(crate) seq: Option<u64>,
}

impl MessageView<'_> {
    /// The owned message a caller receives.
    pub(crate) fn to_message(self) -> Message {
        Message {
            channel: self.channel.to_owned(),
            payload: self.payload.to_vec(),
            id: self.id,
            seq: self.seq,
        }
    }
}

/// The messages one socket read kept, in arrival order, on their way from
/// a worker to the thread that consumes them: channel names and payloads
/// back to back in one buffer, and the ends, id and sequence of each.
/// The consumer builds each [`Message`] from it on its own thread, so a
/// delivery allocates nothing on the worker and frees nothing that
/// another thread allocated.
#[derive(Default)]
pub(crate) struct Batch {
    bytes: Vec<u8>,
    marks: Vec<Mark>,
}

/// Where one message of a [`Batch`] lies: its channel ends at
/// `channel_end`, its payload runs from there to `payload_end`.
struct Mark {
    channel_end: usize,
    payload_end: usize,
    id: Option<MessageId>,
    seq: Option<u64>,
}

impl Batch {
    /// Appends `msg`. `frames` is how many frames the rest of the read
    /// holds if they are the size of this message's: the first message
    /// reserves room for that many like it, so a batch is sized by its
    /// read, not grown by doubling.
    pub(crate) fn push(&mut self, msg: &MessageView<'_>, frames: usize) {
        if self.marks.is_empty() {
            let len = msg.channel.len() + msg.payload.len();
            self.bytes.reserve(frames.max(1) * len);
            self.marks.reserve(frames.max(1));
        }
        self.bytes.extend_from_slice(msg.channel.as_bytes());
        let channel_end = self.bytes.len();
        self.bytes.extend_from_slice(msg.payload);
        self.marks.push(Mark {
            channel_end,
            payload_end: self.bytes.len(),
            id: msg.id,
            seq: msg.seq,
        });
    }

    /// The `i`-th message, if the batch holds that many.
    pub(crate) fn get(&self, i: usize) -> Option<MessageView<'_>> {
        let mark = self.marks.get(i)?;
        let start = i.checked_sub(1).map_or(0, |p| self.marks[p].payload_end);
        let channel = std::str::from_utf8(&self.bytes[start..mark.channel_end])
            .expect("a batch holds each channel as the str it was pushed as");
        Some(MessageView {
            channel,
            payload: &self.bytes[mark.channel_end..mark.payload_end],
            id: mark.id,
            seq: mark.seq,
        })
    }

    /// Every message, in arrival order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = MessageView<'_>> {
        (0..self.marks.len()).filter_map(|i| self.get(i))
    }

    /// What was pushed so far, leaving this batch empty and unallocated;
    /// `None` when nothing was.
    fn take(&mut self) -> Option<Batch> {
        (!self.marks.is_empty()).then(|| std::mem::take(self))
    }
}

/// The caller's end of a client's messages: the batches its workers send
/// and a cursor into the current one. [`TcpPubSubClient`] and
/// [`RoutedClient`](crate::RoutedClient) both read through it, and each
/// [`Message`] is built here, on the calling thread.
pub(crate) struct MessageQueue {
    state: Mutex<Cursor>,
}

struct Cursor {
    batches: mpsc::Receiver<Batch>,
    current: Batch,
    next: usize,
}

impl Cursor {
    fn pop(&mut self) -> Option<Message> {
        let msg = self.current.get(self.next)?;
        self.next += 1;
        Some(msg.to_message())
    }

    /// Moves to `batch`; a worker never sends an empty one.
    fn start(&mut self, batch: Batch) -> Option<Message> {
        self.current = batch;
        self.next = 0;
        self.pop()
    }
}

impl MessageQueue {
    pub(crate) fn new(batches: mpsc::Receiver<Batch>) -> MessageQueue {
        MessageQueue {
            state: Mutex::new(Cursor {
                batches,
                current: Batch::default(),
                next: 0,
            }),
        }
    }

    /// The next message, if one is already queued.
    pub(crate) fn try_message(&self) -> Option<Message> {
        let mut cursor = self.state.lock();
        if let Some(msg) = cursor.pop() {
            return Some(msg);
        }
        let batch = cursor.batches.try_recv().ok()?;
        cursor.start(batch)
    }

    /// Blocks up to `timeout` for the next message.
    pub(crate) fn message_timeout(&self, timeout: Duration) -> Option<Message> {
        let mut cursor = self.state.lock();
        if let Some(msg) = cursor.pop() {
            return Some(msg);
        }
        let batch = cursor.batches.recv_timeout(timeout).ok()?;
        cursor.start(batch)
    }
}

/// Where a worker puts what its connection produces. Called on the
/// worker thread, in arrival order; an implementation must neither
/// block nor join the client it serves.
///
/// The worker gathers the messages a sink keeps from one socket read
/// into one [`Batch`] and hands it over at the end of the read, and
/// before any event: a consumer never sees an event before the messages
/// read ahead of it.
pub(crate) trait Sink: Send {
    /// One application message that passed the connection's dedup
    /// window. Returns whether it goes into the read's batch; a sink may
    /// act on it itself instead (the router's control frames) or drop it
    /// (the router's cross-broker duplicates).
    fn message(&mut self, _msg: &MessageView<'_>) -> bool {
        true
    }
    /// The messages one read kept, in arrival order; never empty.
    fn batch(&mut self, batch: Batch);
    /// One state change of the connection.
    fn event(&mut self, event: ClientEvent);
    /// Every frame of one socket read has been handed over.
    fn read_end(&mut self) {}
}

/// The default sink: the client's own queues.
struct QueueSink {
    messages: mpsc::Sender<Batch>,
    events: mpsc::Sender<ClientEvent>,
}

impl Sink for QueueSink {
    fn batch(&mut self, batch: Batch) {
        let _ = self.messages.send(batch);
    }

    fn event(&mut self, event: ClientEvent) {
        let _ = self.events.send(event);
    }
}

/// Encoded bytes after which a pass writes before it encodes more: one
/// write per pass for any ordinary backlog, bounded memory for a deep
/// one.
const WRITE_BATCH_BYTES: usize = 256 * 1024;

/// Queued publications at which `publish` kicks the worker to send them
/// without waiting out the linger ([`ClientConfig::tick`]). DESIGN.md §8
/// has the measurements that chose it.
pub const FLUSH_BATCH: usize = 64;

/// The first multiple of `period` after `now` on a clock every client of
/// the process shares. Lingers and heartbeats end on it, so the process's
/// connections flush and ping together and a broker reads their writes
/// in one wake-up instead of one each.
fn next_tick(now: Instant, period: Duration) -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(|| now);
    let Some(since) = now.checked_duration_since(epoch) else {
        return epoch;
    };
    let period = period.as_nanos().max(1);
    let ticks = since.as_nanos() / period + 1;
    epoch + Duration::from_nanos(u64::try_from(ticks * period).unwrap_or(u64::MAX))
}

/// The worker's poll tokens: its connection and the callers' waker.
const SOCKET: Token = Token(0);
const WAKE: Token = Token(1);

enum Cmd {
    Subscribe {
        channel: String,
        from: Option<u64>,
    },
    Unsubscribe(String),
    Publish {
        channel: String,
        framed: Vec<u8>,
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
    /// The `SUBSCRIBE` argument re-establishing this subscription,
    /// `DMSEQ1`-framed: from the furthest point already covered, live
    /// when nothing is.
    fn subscribe_arg(&self, channel: &str) -> Vec<u8> {
        let from = match (self.base_from, self.high_water) {
            (None, None) => None,
            (base, hw) => Some(base.unwrap_or(0).max(hw.map_or(0, |h| h + 1))),
        };
        wire::subscribe_arg(channel, from)
    }
}

struct ClientShared {
    running: AtomicBool,
    cmds: Mutex<VecDeque<Cmd>>,
    /// Readies the worker's poll.
    waker: Waker,
    /// Set while the worker sleeps with nothing queued: the next
    /// publication kicks it (see [`TcpPubSubClient::publish_framed`]).
    asleep: AtomicBool,
    /// Publications pushed and not yet through a flush, whether still in
    /// `cmds` or in the worker's own queue; the worker subtracts what it
    /// absorbed at each flush. Sizes the batches `publish_framed` kicks
    /// for.
    unsent: AtomicUsize,
    /// `true` once the worker thread has exited (gave up or shut down);
    /// after that, commands are never processed again.
    exited: AtomicBool,
    /// Publications the worker deposited when it gave up, so
    /// [`TcpPubSubClient::take_unsent`] can still rescue them from a
    /// client whose worker is gone.
    stranded: Mutex<Vec<(String, Vec<u8>)>>,
}

impl ClientShared {
    /// Queues a command that is not a publication and kicks the worker.
    fn command(&self, cmd: Cmd) {
        self.cmds.lock().push_back(cmd);
        self.kick();
    }

    fn kick(&self) {
        let _ = self.waker.wake();
    }
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
    messages: MessageQueue,
    events: Mutex<mpsc::Receiver<ClientEvent>>,
    origin: u64,
    /// The `seq` of the next wire id [`Self::publish`] frames.
    seq: AtomicU64,
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
            TcpPubSubClient::connect_sink(addr, config, QueueSink { messages, events });
        client.messages = MessageQueue::new(msg_rx);
        client.events = Mutex::new(event_rx);
        client
    }

    /// Starts a client whose worker hands everything it produces to
    /// `sink` instead of the client's own queues: [`Self::try_message`]
    /// and [`Self::try_event`] of such a client never return anything.
    pub(crate) fn connect_sink(
        addr: SocketAddr,
        config: ClientConfig,
        sink: impl Sink + 'static,
    ) -> TcpPubSubClient {
        let poll = Poll::new().expect("create the dm-client poll");
        let waker = Waker::new(poll.registry(), WAKE).expect("create the dm-client waker");
        let shared = Arc::new(ClientShared {
            running: AtomicBool::new(true),
            cmds: Mutex::new(VecDeque::new()),
            waker,
            asleep: AtomicBool::new(false),
            unsent: AtomicUsize::new(0),
            exited: AtomicBool::new(false),
            stranded: Mutex::new(Vec::new()),
        });
        let mut rng = seeded_rng(config.seed);
        let origin = rng.next_u64();
        let worker = Worker {
            addr,
            cfg: config,
            shared: Arc::clone(&shared),
            sink: Box::new(sink),
            rng,
            desired: BTreeMap::new(),
            pending: VecDeque::new(),
            unacked: VecDeque::new(),
            dedup: Dedup::new(),
            batch: Batch::default(),
            cmds: VecDeque::new(),
            out: Vec::new(),
            absorbed: 0,
            poll,
            events: Events::with_capacity(2),
        };
        let handle = std::thread::Builder::new()
            .name("dm-client".into())
            .spawn(move || worker.run())
            .expect("spawn dm-client thread");
        TcpPubSubClient {
            shared,
            worker: Some(handle),
            // Disconnected queues: a custom sink receives everything.
            messages: MessageQueue::new(mpsc::channel().1),
            events: Mutex::new(mpsc::channel().1),
            origin,
            seq: AtomicU64::new(0),
        }
    }

    /// This client's random 64-bit origin — the first half of every
    /// wire id [`Self::publish`] frames. A sidecar sends its `MOVED`
    /// frames to the control channel named after it; a
    /// [`RoutedClient`](crate::RoutedClient) frames under an origin of
    /// its own instead, the same on every broker it publishes to.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Adds `channel` to the desired subscription set; the worker
    /// subscribes now (if connected) and after every reconnect.
    /// Delivery starts live and every later reconnect resumes from the
    /// highest sequence seen.
    pub fn subscribe(&self, channel: &str) {
        let channel = channel.to_owned();
        self.shared.command(Cmd::Subscribe {
            channel,
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
        let channel = channel.to_owned();
        let from = Some(from);
        self.shared.command(Cmd::Subscribe { channel, from });
    }

    /// Removes `channel` from the desired subscription set.
    pub fn unsubscribe(&self, channel: &str) {
        self.shared.command(Cmd::Unsubscribe(channel.to_owned()));
    }

    /// Publishes `body` on `channel` with a fresh globally unique wire
    /// id. The publication is queued, retried across reconnects until
    /// acknowledged, and eventually dropped (with a
    /// [`ClientEvent::Dropped`]) if the broker never accepts it.
    pub fn publish(&self, channel: &str, body: &[u8]) {
        let id = MessageId {
            origin: self.origin,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
        };
        self.publish_framed(channel, frame_payload(id, body));
    }

    /// Publishes an already-framed payload verbatim — no new wire id is
    /// allocated and any existing `DMID1` header is preserved. This is
    /// the forwarding primitive of the routed tier: a dispatcher
    /// re-publishing a wrong-server publication keeps the original id,
    /// so receive-side dedup windows still suppress duplicates.
    pub fn publish_raw(&self, channel: &str, payload: &[u8]) {
        self.publish_framed(channel, payload.to_vec());
    }

    /// Queues `framed` for publication verbatim, taking ownership of the
    /// bytes; every publication passes here. Kicks the worker when it
    /// completes a batch or when the worker sleeps with nothing queued
    /// (which then arms its linger).
    pub(crate) fn publish_framed(&self, channel: &str, framed: Vec<u8>) {
        let shared = &self.shared;
        // Counted before it is visible, so the worker never subtracts it
        // first.
        let full = (shared.unsent.fetch_add(1, Ordering::SeqCst) + 1).is_multiple_of(FLUSH_BATCH);
        let channel = channel.to_owned();
        let cmd = Cmd::Publish { channel, framed };
        shared.cmds.lock().push_back(cmd);
        // Pushed first, read second: a worker that marked itself asleep
        // has either seen this push in its re-check or left the mark set.
        let asleep =
            shared.asleep.load(Ordering::SeqCst) && shared.asleep.swap(false, Ordering::SeqCst);
        if full || asleep {
            shared.kick();
        }
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
    /// within `timeout` yields an empty result and keeps its queue.
    pub fn take_unsent(&self, timeout: Duration) -> Vec<(String, Vec<u8>)> {
        let (tx, rx) = mpsc::channel();
        self.shared.command(Cmd::TakeUnsent(tx));
        // A worker that already gave up deposited its queue instead;
        // only wait on the command round-trip while the worker lives.
        let mut out = std::mem::take(&mut *self.shared.stranded.lock());
        if !self.shared.exited.load(Ordering::SeqCst) {
            let mut reply = rx.recv_timeout(timeout).ok();
            if reply.is_none() {
                // The worker replies under the queue lock, so a late
                // reply is either here now or fails to send and stays in
                // the worker's queue.
                let _queue = self.shared.cmds.lock();
                reply = rx.try_recv().ok();
                drop(rx);
            }
            out.extend(reply.unwrap_or_default());
        }
        out.extend(std::mem::take(&mut *self.shared.stranded.lock()));
        out
    }

    /// The next delivered message, if one is already queued.
    pub fn try_message(&self) -> Option<Message> {
        self.messages.try_message()
    }

    /// Blocks up to `timeout` for the next delivered message.
    pub fn message_timeout(&self, timeout: Duration) -> Option<Message> {
        self.messages.message_timeout(timeout)
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
        self.shared.kick();
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
    rng: SimRng,
    desired: BTreeMap<String, ResumeState>,
    pending: VecDeque<PendingPub>,
    unacked: VecDeque<PendingPub>,
    dedup: Dedup,
    /// The messages the sink kept from the read being consumed.
    batch: Batch,
    /// The pass's commands, swapped out of `shared.cmds` under one lock
    /// (callers keep pushing onto the other deque meanwhile).
    cmds: VecDeque<Cmd>,
    /// The pass's outgoing bytes: every command and publication encoded
    /// back to back, sent with one write.
    out: Vec<u8>,
    /// Publications taken from `shared.cmds` since the last flush: the
    /// part of `shared.unsent` the worker holds.
    absorbed: usize,
    /// Sleeps on the session's socket ([`SOCKET`]) and the callers'
    /// waker ([`WAKE`]).
    poll: Poll,
    events: Events,
}

/// One connected session's clocks and receive state.
struct Session {
    stream: TcpStream,
    rbuf: ReadBuf,
    last_rx: Instant,
    next_ping: Instant,
    /// When queued publications leave at the latest: the end of the
    /// current linger. Armed by the first publication into an empty
    /// queue and by every flush that sent one; `None` (sleep until the
    /// next `PING` or liveness deadline) once a linger ended with nothing
    /// queued.
    flush_at: Option<Instant>,
    /// Any bytes were received.
    got_data: bool,
}

impl Worker {
    fn running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Hands `event` to the sink, after what was read before it.
    fn emit(&mut self, event: ClientEvent) {
        self.hand_over();
        self.sink.event(event);
    }

    /// Hands the batch read so far to the sink, if it holds anything.
    fn hand_over(&mut self) {
        if let Some(batch) = self.batch.take() {
            self.sink.batch(batch);
        }
    }

    fn run(mut self) {
        // Failed attempts since the last connection that received data.
        let mut attempts: u32 = 0;
        while self.running() {
            match TcpStream::connect_timeout(&self.addr, self.cfg.timing.connect_timeout()) {
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
            self.backoff(attempts);
        }
        self.shared.exited.store(true, Ordering::SeqCst);
    }

    /// Runs one connected session; returns whether any bytes were
    /// received (which is what resets the backoff counter — a half-open
    /// accept that never speaks does not count as progress).
    fn session(&mut self, stream: TcpStream) -> bool {
        let _ = stream.set_nodelay(true);
        // Reads follow readiness; the timeout only backstops one that
        // blocks regardless.
        let _ = stream.set_read_timeout(Some(self.cfg.timing.liveness_timeout()));
        let now = Instant::now();
        let mut s = Session {
            stream,
            rbuf: ReadBuf::new(),
            last_rx: now,
            next_ping: next_tick(now, self.cfg.timing.heartbeat_interval()),
            // Re-sends at once whatever the previous connection left
            // queued.
            flush_at: Some(now),
            got_data: false,
        };
        let registry = self.poll.registry().clone();
        let reason = match registry.register(&s.stream, SOCKET, Interest::READABLE) {
            Ok(()) => self.serve(&mut s),
            Err(_) => DisconnectReason::Io,
        };
        let _ = registry.deregister(&s.stream);
        if self.running() {
            self.emit(ClientEvent::Disconnected { reason });
        }
        s.got_data
    }

    /// Resubscribes, then runs passes until the connection fails (the
    /// reason) or the client stops (`Io`, never reported).
    fn serve(&mut self, s: &mut Session) -> DisconnectReason {
        // Transparent re-subscribe before anything else, resuming each
        // channel from its high-water sequence. (Nothing encoded for
        // the previous connection leaks into this one.)
        self.out.clear();
        if !self.desired.is_empty() {
            let args: Vec<Vec<u8>> = self
                .desired
                .iter()
                .map(|(c, st)| st.subscribe_arg(c))
                .collect();
            let mut parts: Vec<&[u8]> = vec![b"SUBSCRIBE"];
            parts.extend(args.iter().map(Vec::as_slice));
            resp::encode_command(&parts, &mut self.out);
            if !self.flush(&mut s.stream) {
                return DisconnectReason::Io;
            }
            self.emit(ClientEvent::Resubscribed {
                channels: self.desired.len(),
            });
        }
        while self.running() {
            if let Err(reason) = self.pass(s) {
                return reason;
            }
        }
        DisconnectReason::Io
    }

    /// One pass: absorb the caller queue, send it if it is due, sleep
    /// until the next deadline or readiness, and read once if readable.
    fn pass(&mut self, s: &mut Session) -> Result<(), DisconnectReason> {
        // A silent broker misses several heartbeats before the liveness
        // deadline fires.
        let liveness = self.cfg.timing.liveness_timeout();
        self.apply_commands(true);
        let now = Instant::now();
        if now.duration_since(s.last_rx) > liveness {
            return Err(DisconnectReason::LivenessTimeout);
        }
        if now >= s.next_ping {
            resp::encode_command(&[b"PING"], &mut self.out);
            s.next_ping = next_tick(now, self.cfg.timing.heartbeat_interval());
        }
        let due = !self.out.is_empty()
            || self.pending.len() >= FLUSH_BATCH
            || s.flush_at.is_some_and(|at| now >= at);
        if due {
            // A flush that sent publications re-arms the linger for the
            // next ones, so a steady stream is never kicked awake; one
            // that sent nothing leaves it as it was.
            let sent = !self.pending.is_empty();
            if !self.send_pending(&mut s.stream) {
                return Err(DisconnectReason::Io);
            }
            let absorbed = std::mem::take(&mut self.absorbed);
            self.shared.unsent.fetch_sub(absorbed, Ordering::SeqCst);
            s.flush_at = if sent {
                Some(next_tick(now, self.cfg.tick))
            } else {
                s.flush_at.filter(|&at| at > now)
            };
        } else if !self.pending.is_empty() {
            s.flush_at.get_or_insert(next_tick(now, self.cfg.tick));
        }
        let mut wake_at = s.next_ping.min(s.last_rx + liveness);
        match s.flush_at {
            Some(at) => wake_at = wake_at.min(at),
            // A caller pushed since `apply_commands`: take it now.
            None if !self.fall_asleep() => return Ok(()),
            None => {}
        }
        let polled = self.poll.poll(
            &mut self.events,
            Some(wake_at.saturating_duration_since(now)),
        );
        self.shared.asleep.store(false, Ordering::SeqCst);
        polled.map_err(|_| DisconnectReason::Io)?;
        if !self.events.iter().any(|e| e.token() == SOCKET) {
            return Ok(());
        }
        match s.rbuf.fill(&mut s.stream) {
            Ok(0) => return Err(DisconnectReason::ServerClosed),
            Ok(_) => {
                s.last_rx = Instant::now();
                s.got_data = true;
                let read = loop {
                    let room = s.rbuf.unread().len();
                    match resp::read_server_frame(s.rbuf.unread()) {
                        Ok(Some((frame, used))) => {
                            self.handle_frame(frame, room.div_ceil(used));
                            s.rbuf.consume(used);
                        }
                        Ok(None) => break Ok(()),
                        Err(_) => break Err(DisconnectReason::Protocol),
                    }
                };
                // What a torn read kept is handed over too.
                self.hand_over();
                self.sink.read_end();
                read?;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return Err(DisconnectReason::Io),
        }
        Ok(())
    }

    /// Marks the worker asleep unless a caller pushed since the last
    /// `apply_commands`; returns whether it may sleep. The re-check takes
    /// the queue lock every push holds.
    fn fall_asleep(&self) -> bool {
        self.shared.asleep.store(true, Ordering::SeqCst);
        if self.shared.cmds.lock().is_empty() {
            return true;
        }
        self.shared.asleep.store(false, Ordering::SeqCst);
        false
    }

    /// Interprets one server frame, read in place: a `message` push is
    /// handed to the sink as a view and, if it keeps it, appended to the
    /// read's batch, sized for `frames` like it (see [`Batch::push`]).
    fn handle_frame(&mut self, frame: ServerFrame<'_>, frames: usize) {
        match frame {
            ServerFrame::Message { channel, payload } => {
                // Borrowed unless the name is not UTF-8.
                let channel = String::from_utf8_lossy(channel);
                // Resume-protocol markers arrive as unicast pushes on the
                // channel; they never reach the normal delivery path.
                let (broker_seq, payload) = match wire::delivery(payload) {
                    Delivery::Gap(requested, resume_from) => {
                        // `resume_from < requested` means the broker's
                        // sequence space restarted under us: the stale
                        // high-water must be forgotten or every future
                        // resubscribe re-requests it.
                        let reason = if resume_from < requested {
                            if let Some(st) = self.desired.get_mut(&*channel) {
                                st.base_from = None;
                                st.high_water = None;
                            }
                            GapReason::Restart
                        } else {
                            GapReason::Evicted
                        };
                        self.emit(ClientEvent::Gap {
                            channel: channel.into_owned(),
                            missed: resume_from.saturating_sub(requested),
                            reason,
                        });
                        return;
                    }
                    Delivery::Resumed(replayed, _) => {
                        let channel = channel.into_owned();
                        self.emit(ClientEvent::Resumed { channel, replayed });
                        return;
                    }
                    Delivery::Sequenced(seq, body) => {
                        if let Some(st) = self.desired.get_mut(&*channel) {
                            st.high_water = Some(st.high_water.map_or(seq, |h| h.max(seq)));
                        }
                        (Some(seq), body)
                    }
                    Delivery::Plain(body) => (None, body),
                };
                let (id, body) = parse_payload(payload);
                if let Some(id) = id {
                    if !self.dedup.insert(id, self.cfg.dedup_window) {
                        let channel = channel.into_owned();
                        self.emit(ClientEvent::Dropped {
                            cause: DropCause::Duplicate { channel },
                        });
                        return;
                    }
                }
                let msg = MessageView {
                    channel: &channel,
                    payload: body,
                    id,
                    seq: broker_seq,
                };
                if self.sink.message(&msg) {
                    self.batch.push(&msg, frames);
                }
            }
            // Publish acknowledgement (receiver count). Replies on one
            // connection are FIFO, so it acks the oldest in flight.
            ServerFrame::Integer(_) => {
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
            ServerFrame::Other => {}
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
                        let arg = st.subscribe_arg(&channel);
                        resp::encode_command(&[b"SUBSCRIBE", &arg], &mut self.out);
                    }
                }
                Cmd::Unsubscribe(channel) => {
                    if self.desired.remove(&channel).is_some() && connected {
                        resp::encode_command(&[b"UNSUBSCRIBE", channel.as_bytes()], &mut self.out);
                    }
                }
                Cmd::Publish { channel, framed } => {
                    self.absorbed += 1;
                    self.enqueue_publish(channel, framed);
                }
                Cmd::TakeUnsent(reply) => {
                    // Oldest first: in-flight (unacked) precede queued.
                    let unsent: Vec<(String, Vec<u8>)> = self
                        .unacked
                        .iter()
                        .chain(&self.pending)
                        .map(|p| (p.channel.clone(), p.framed.clone()))
                        .collect();
                    // Under the lock `take_unsent` gives up under: a
                    // caller that stopped waiting leaves the queue here.
                    let taken = {
                        let _queue = self.shared.cmds.lock();
                        reply.send(unsent).is_ok()
                    };
                    if taken {
                        self.unacked.clear();
                        self.pending.clear();
                    }
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

    /// Waits out a full-jitter backoff delay on the poll, absorbing
    /// caller commands; a kick (shutdown, `take_unsent`, a subscription)
    /// is served at once.
    fn backoff(&mut self, attempts: u32) {
        let base = self.cfg.timing.reconnect_base().as_millis().max(1) as u64;
        let cap = self.cfg.timing.reconnect_cap().as_millis().max(1) as u64;
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
            if self
                .poll
                .poll(&mut self.events, Some(deadline - now))
                .is_err()
            {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_shared_and_within_one_period() {
        let period = Duration::from_millis(20);
        let now = Instant::now();
        let tick = next_tick(now, period);
        assert!(tick > now && tick <= now + period);
        // Every instant before it shares it; the tick itself moves on.
        for before in [now + (tick - now) / 2, tick - Duration::from_nanos(1)] {
            assert_eq!(next_tick(before, period), tick);
        }
        assert_eq!(next_tick(tick, period), tick + period);
    }

    #[test]
    fn resubscribe_arg_resumes_past_the_furthest_point() {
        let arg = |base_from, high_water| ResumeState {
            base_from,
            high_water,
        };
        // A fresh subscription goes live-sequenced: no history replay.
        let fresh = arg(None, None);
        assert_eq!(fresh.subscribe_arg("ch"), wire::subscribe_arg("ch", None));
        let after_hw = wire::subscribe_arg("ch", Some(10));
        assert_eq!(arg(None, Some(9)).subscribe_arg("ch"), after_hw);
        // An explicit base only wins while it lies beyond the
        // high-water mark.
        assert_eq!(arg(Some(3), Some(9)).subscribe_arg("ch"), after_hw);
        assert_eq!(
            arg(Some(42), Some(9)).subscribe_arg("ch"),
            wire::subscribe_arg("ch", Some(42))
        );
    }

    /// What a delivery used to become on the worker: the channel read
    /// lossily, the payload copied, the id and sequence as parsed.
    fn owned(channel: &[u8], payload: &[u8], id: Option<MessageId>, seq: Option<u64>) -> Message {
        Message {
            channel: String::from_utf8_lossy(channel).into_owned(),
            payload: payload.to_vec(),
            id,
            seq,
        }
    }

    #[test]
    fn batched_views_come_back_as_the_messages_the_worker_read() {
        let id = |seq| Some(MessageId { origin: 7, seq });
        let framed = frame_payload(MessageId { origin: 7, seq: 1 }, b"hello");
        let (parsed_id, body) = parse_payload(&framed);
        // (channel as read, payload, id, seq)
        type Case<'a> = (&'a [u8], &'a [u8], Option<MessageId>, Option<u64>);
        let cases: Vec<Case> = vec![
            (b"tile-1", body, parsed_id, Some(41)),
            (b"tile-1", b"", id(2), None),
            (b"\xffbad\xfe", b"x", None, Some(0)),
            (b"", b"\x00\xff\r\n", None, None),
            (
                "sal\u{e9}".as_bytes(),
                b"plain",
                id(u64::MAX),
                Some(u64::MAX),
            ),
        ];
        let expected: Vec<Message> = cases
            .iter()
            .map(|&(c, p, id, seq)| owned(c, p, id, seq))
            .collect();
        let (tx, rx) = mpsc::channel();
        let queue = MessageQueue::new(rx);
        // Two reads: one sized too small (the batch grows), one
        // generously.
        for (cases, frames) in [(&cases[..2], 1), (&cases[2..], 64)] {
            let mut batch = Batch::default();
            for &(channel, payload, id, seq) in cases {
                let channel = String::from_utf8_lossy(channel);
                let view = MessageView {
                    channel: &channel,
                    payload,
                    id,
                    seq,
                };
                batch.push(&view, frames);
            }
            tx.send(batch.take().expect("a batch with messages"))
                .unwrap();
            assert!(batch.take().is_none(), "a taken batch is empty");
        }
        let got: Vec<Message> = std::iter::from_fn(|| queue.try_message()).collect();
        assert_eq!(got, expected);
        assert_eq!(queue.message_timeout(Duration::from_millis(1)), None);
    }

    #[test]
    fn a_waiting_message_timeout_returns_a_batch_that_lands_mid_wait() {
        let (tx, rx) = mpsc::channel();
        let queue = MessageQueue::new(rx);
        let mut batch = Batch::default();
        for payload in [b"first", b"other"] {
            let view = MessageView {
                channel: "ch",
                payload,
                id: None,
                seq: None,
            };
            batch.push(&view, 2);
        }
        let delay = Duration::from_millis(50);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(delay);
            tx.send(batch).unwrap();
        });
        let start = Instant::now();
        let first = queue.message_timeout(Duration::from_secs(10));
        assert!(
            start.elapsed() >= delay,
            "returned before the batch was sent"
        );
        assert_eq!(first, Some(owned(b"ch", b"first", None, None)));
        assert_eq!(
            queue.try_message(),
            Some(owned(b"ch", b"other", None, None))
        );
        sender.join().unwrap();
        assert_eq!(queue.try_message(), None);
    }

    /// What a worker handed its sink, in order.
    #[derive(Debug, PartialEq)]
    enum Handed {
        Batch(Vec<Message>),
        Event(ClientEvent),
        ReadEnd,
    }

    struct Recorder(mpsc::Sender<Handed>);

    impl Sink for Recorder {
        fn batch(&mut self, batch: Batch) {
            let messages = batch.iter().map(MessageView::to_message).collect();
            let _ = self.0.send(Handed::Batch(messages));
        }

        fn event(&mut self, event: ClientEvent) {
            let _ = self.0.send(Handed::Event(event));
        }

        fn read_end(&mut self) {
            let _ = self.0.send(Handed::ReadEnd);
        }
    }

    #[test]
    fn a_read_hands_over_its_messages_before_its_event() {
        // A broker stand-in writes two replayed deliveries and the
        // replay's end in one write, so the worker reads them together.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut frames = Vec::new();
        for seq in 0..2 {
            resp::message_frame(&mut frames, b"room", &wire::sequenced_header(seq), b"body");
        }
        resp::message_frame(&mut frames, b"room", b"", &wire::resumed(2, 2));
        let broker = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&frames).unwrap();
            stream
        });
        let (tx, rx) = mpsc::channel();
        let client = TcpPubSubClient::connect_sink(addr, ClientConfig::default(), Recorder(tx));
        let stream = broker.join().unwrap();
        let mut handed = Vec::new();
        while handed.last() != Some(&Handed::ReadEnd) {
            handed.push(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        }
        let delivered = |seq| owned(b"room", b"body", None, Some(seq));
        let resumed = ClientEvent::Resumed {
            channel: "room".into(),
            replayed: 2,
        };
        assert_eq!(
            handed,
            [
                Handed::Event(ClientEvent::Connected { attempt: 1 }),
                Handed::Batch(vec![delivered(0), delivered(1)]),
                Handed::Event(resumed),
                Handed::ReadEnd,
            ]
        );
        client.shutdown();
        drop(stream);
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
