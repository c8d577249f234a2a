//! The plan-routed multi-broker client (§II-C of the paper).
//!
//! [`RoutedClient`] turns a *directory* of independent [`crate::TcpBroker`]s
//! into one logical pub/sub service. Routing follows the Dynamoth
//! client algorithm:
//!
//! - Every client holds a **local plan**: a lazy, partial copy of the
//!   global plan, filled in strictly on a need-to-know basis. Channels
//!   the local plan does not mention resolve through the shared
//!   consistent-hash [`Ring`] over the directory.
//! - SUBSCRIBE and PUBLISH pick brokers per [`ChannelMapping`]
//!   semantics: `Single` uses the one server, `AllSubscribers`
//!   subscribes everywhere and publishes to one random member,
//!   `AllPublishers` publishes everywhere and subscribes to one random
//!   member.
//! - Every publication is framed once, under the router's own origin,
//!   whatever the mapping: a replicated fan-out hands the same bytes to
//!   each member, and a channel that migrates keeps its publisher's
//!   origin.
//! - The local plan is updated by the two control frames of the
//!   dispatcher sidecars: a [`ControlFrame::Moved`] on the router's
//!   control channel `__dmc.<origin>`, which every connection of the
//!   router subscribes (it published to the wrong broker), or a
//!   [`ControlFrame::Switch`] on a subscribed channel (the channel
//!   moved away from a broker it is subscribed on). On a switch the
//!   client subscribes at the new location immediately but keeps the
//!   old subscription for a grace period ([`Timing::switch_grace`]) —
//!   the new subscription rides a possibly brand-new TCP connection, so
//!   tearing the old one down right away would open a loss window. The
//!   overlap only produces duplicates, which the dedup window absorbs.
//! - A router-level dedup window spanning **all** broker connections
//!   suppresses the duplicates that reconfiguration forwarding creates
//!   (same wire id arriving via two brokers), on top of the per
//!   connection window each underlying [`TcpPubSubClient`] already
//!   keeps.
//!
//! One underlying fault-tolerant client is created per broker, lazily —
//! a client that only ever touches channels of one broker holds exactly
//! one connection, matching the paper's "connects to the server(s) it
//! needs" behaviour.
//!
//! # Threads: data plane and control plane
//!
//! A router over B brokers owns B+1 threads. The B `dm-client` workers
//! are the **data plane**: each hands the application messages it
//! decodes to a sink that runs on the worker itself — the
//! router-level dedup (one `Mutex<Dedup>` shared by the router's
//! workers, held for the insert only) — and sends what passes, one
//! batch per socket read, to the queue [`RoutedClient::try_message`]
//! reads, which builds each [`Message`] on the caller's thread. A
//! delivery crosses no other thread, and one connection's frames stay
//! in arrival order.
//!
//! The one `dm-router` thread is the **control plane**. It blocks on a
//! single inbox fed by the same sinks — every control frame that
//! applies, every [`ClientEvent`] — with a timeout equal to its next
//! deadline (a switch-grace unsubscribe, a failover or re-probe timer),
//! so an idle router wakes for nothing. Everything that tears a
//! connection down or re-points a subscription runs there,
//! single-threaded: declaring a broker dead joins that broker's worker,
//! which must therefore never be the thread doing it (a quarantine entry
//! about broker *i* may well arrive on connection *i*), and two workers
//! declaring each other dead would deadlock.
//!
//! # Whole-broker failover
//!
//! The router also detects *dead* brokers on its own, mirroring the
//! balancer's suspect/dead state machine (see `DESIGN.md` §12) from the
//! client's seat. A broker connection that stays down past
//! [`Timing::failover_after`] — the balancer's suspect bound — without
//! **data evidence** (a delivered message or a successful resume — a
//! bare TCP accept is not evidence, because a half-dead host can
//! complete handshakes while serving nothing) is confirmed with a bare
//! TCP probe; only a *failed* probe declares the broker dead. Death
//! re-points every subscription stranded on the corpse to the
//! deterministic ring-exclusion fallback, surfaces a synthetic
//! [`ClientEvent::Gap`] with
//! [`GapReason::Failover`] per re-pointed channel (sequences are
//! per-broker-incarnation, so the new home starts a fresh stream and
//! continuity is impossible), rescues the dead connection's queued
//! publications onto survivors, and filters the corpse out of every
//! publish until it re-appears. Control frames carrying the balancer's
//! quarantine list short-circuit the local timer: the balancer already
//! probed, so the router adopts the death immediately (deduplicated by
//! broker incarnation). Dead brokers are re-probed every
//! [`Timing::reprobe_interval`]; a successful probe (or data from the
//! broker) lifts the death mark.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dynamoth_sim::SimRng;
use parking_lot::Mutex;

use crate::client::{
    frame_payload, seeded_rng, Batch, ClientConfig, ClientEvent, Dedup, GapReason, Message,
    MessageId, MessageQueue, MessageView, Sink, TcpPubSubClient,
};
use crate::control::{channel_id_of, control_channel, ControlFrame};
use crate::hashing::{Ring, DEFAULT_VNODES};
use crate::ids::{PlanId, ServerId};
use crate::plan::ChannelMapping;
use crate::timing::Timing;

/// Tuning knobs of a [`RoutedClient`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Tuning for each underlying per-broker client, except its `seed`,
    /// which is replaced per broker from [`Self::seed`]. Its [`Timing`]
    /// also sets the router's switch grace, failover timer, probe
    /// timeout and re-probe spacing.
    pub client: ClientConfig,
    /// Router-level (cross-broker) dedup window, in wire ids.
    pub dedup_window: usize,
    /// Seed for the router's origin, its replication-mode random member
    /// picks and the per-broker client seeds. `None` uses OS entropy.
    pub seed: Option<u64>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            client: ClientConfig::default(),
            dedup_window: 8192,
            seed: None,
        }
    }
}

/// A state change of one underlying broker connection, tagged with the
/// broker's directory index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterEvent {
    /// Directory index of the broker the event is about.
    pub broker: usize,
    /// The underlying client event.
    pub event: ClientEvent,
}

/// Counters describing a router's routing and reconfiguration activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Cross-broker duplicates suppressed by the router-level window.
    pub duplicates_suppressed: u64,
    /// `MOVED` frames applied to the local plan.
    pub moved_applied: u64,
    /// `<switch>` frames applied to the local plan.
    pub switches_applied: u64,
    /// Control frames ignored because the local plan was already newer.
    pub stale_control_frames: u64,
    /// Underlying broker connections currently open.
    pub connections: usize,
    /// Channels the local plan currently maps — explicit entries learned
    /// from control frames plus provisional ring-fallback entries
    /// (recorded at plan version 0 on first use).
    pub local_plan_len: usize,
    /// Brokers this router declared dead (probe failure, `GaveUp`, or a
    /// balancer quarantine frame) and has not seen revive.
    pub deaths_detected: u64,
    /// Subscriptions re-pointed to a ring-exclusion fallback because
    /// their only home died.
    pub failover_repoints: u64,
    /// Directory indices of brokers currently believed dead.
    pub dead_brokers: Vec<usize>,
}

struct RouterShared {
    running: AtomicBool,
    duplicates: AtomicU64,
    moved_applied: AtomicU64,
    switches_applied: AtomicU64,
    stale_frames: AtomicU64,
    deaths: AtomicU64,
    repoints: AtomicU64,
    /// The origin of every wire id this router frames.
    origin: u64,
    /// The `seq` of the next wire id this router frames.
    seq: AtomicU64,
    /// `__dmc.<origin>`: where sidecars send this router `MOVED`. Every
    /// connection subscribes it.
    control: String,
    /// The cross-broker dedup window, shared by the router's workers
    /// (a channel's old and new home overlap during switch grace).
    dedup: Mutex<Dedup>,
    /// Per broker: a message arrived since the control thread last
    /// looked. Liveness evidence costs the data plane one relaxed store
    /// per socket read and never the routing lock.
    alive: Vec<AtomicBool>,
}

/// What the data plane hands the control thread.
enum Inbox {
    /// A state change of broker `broker`'s connection.
    Event { broker: usize, event: ClientEvent },
    /// A control frame that arrived where it applies.
    Control(ControlFrame),
    /// Re-check `running`.
    Wake,
}

/// The sink of broker `broker`'s worker: the router's data plane.
struct RouterSink {
    broker: usize,
    dedup_window: usize,
    shared: Arc<RouterShared>,
    messages: mpsc::Sender<Batch>,
    inbox: mpsc::Sender<Inbox>,
    /// A message arrived in the socket read being consumed.
    got_message: bool,
}

impl Sink for RouterSink {
    fn message(&mut self, msg: &MessageView<'_>) -> bool {
        self.got_message = true;
        let on_control_channel = msg.channel == self.shared.control;
        if let Some(frame) = ControlFrame::decode(msg.payload) {
            let applies = match &frame {
                ControlFrame::Moved { .. } => on_control_channel,
                ControlFrame::Switch { channel, .. } => channel == msg.channel,
            };
            if applies {
                let _ = self.inbox.send(Inbox::Control(frame));
                return false;
            }
            // A control frame on the wrong channel is application payload
            // that merely looks like one; fall through and deliver it.
        }
        if on_control_channel {
            return false; // junk on the control channel; nothing to deliver
        }
        if let Some(id) = msg.id {
            if !self.shared.dedup.lock().insert(id, self.dedup_window) {
                self.shared.duplicates.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    fn batch(&mut self, batch: Batch) {
        let _ = self.messages.send(batch);
    }

    fn event(&mut self, event: ClientEvent) {
        let _ = self.inbox.send(Inbox::Event {
            broker: self.broker,
            event,
        });
    }

    fn read_end(&mut self) {
        if std::mem::take(&mut self.got_message) {
            self.shared.alive[self.broker].store(true, Ordering::Relaxed);
        }
    }
}

/// Liveness view of one broker, updated by the control thread and read at
/// routing time.
#[derive(Debug, Default)]
struct BrokerHealth {
    /// When the connection went down, if it has produced no data
    /// evidence since. `Connected` does NOT clear this: a hard-killed
    /// proxy (or a wedged host) can complete TCP handshakes forever
    /// while delivering nothing.
    down_since: Option<Instant>,
    /// Declared dead; routing skips the broker until it revives.
    dead: bool,
    /// Last probe attempt (confirmation or revival), for rate limiting.
    last_probe: Option<Instant>,
    /// Highest balancer-declared death incarnation seen, so stale
    /// quarantine frames cannot re-kill a revived broker.
    incarnation: u64,
}

impl BrokerHealth {
    /// When the broker is next due a probe — a confirmation probe once
    /// its connection has been down for `failover_after`, a revival
    /// re-probe while it is dead, either no sooner than
    /// `reprobe_interval` after the last one. `None` while it is healthy.
    fn probe_at(&self, timing: &Timing, now: Instant) -> Option<Instant> {
        let wanted = if self.dead {
            now
        } else {
            self.down_since? + timing.failover_after()
        };
        let spaced = self.last_probe.map(|t| t + timing.reprobe_interval());
        Some(spaced.map_or(wanted, |s| s.max(wanted)))
    }
}

struct Routing {
    /// Lazy local plan: name → (mapping, version that set it).
    local_plan: HashMap<String, (ChannelMapping, PlanId)>,
    /// Channels the caller wants to be subscribed to.
    desired: BTreeSet<String>,
    /// Broker indices each desired channel is currently subscribed on.
    subscribed_on: BTreeMap<String, BTreeSet<usize>>,
    /// Superseded subscriptions awaiting their grace-period unsubscribe.
    pending_unsubs: Vec<(Instant, usize, String)>,
    /// Per-broker liveness, indexed by directory position.
    health: Vec<BrokerHealth>,
    rng: SimRng,
}

impl Routing {
    /// Directory indices currently believed dead, as ring exclusions.
    fn dead_servers(&self) -> Vec<ServerId> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.dead)
            .map(|(i, _)| ServerId::from_index(i))
            .collect()
    }
}

/// What the caller-facing handle and the control thread share.
struct Core {
    directory: Vec<SocketAddr>,
    cfg: RouterConfig,
    ring: Ring,
    clients: Mutex<HashMap<usize, Arc<TcpPubSubClient>>>,
    routing: Mutex<Routing>,
    /// What the workers' sinks hold too. Kept apart from `Core`: a sink
    /// holding the client map that owns its own worker would be a cycle.
    shared: Arc<RouterShared>,
    /// Feeds the queue `try_message` reads; cloned into every sink.
    messages: mpsc::Sender<Batch>,
    /// Feeds the control thread; cloned into every sink.
    inbox: mpsc::Sender<Inbox>,
    /// Feeds the queue `try_event` reads.
    events: mpsc::Sender<RouterEvent>,
}

/// The plan-routed multi-broker client (see module docs).
pub struct RoutedClient {
    core: Arc<Core>,
    messages: MessageQueue,
    events: Mutex<mpsc::Receiver<RouterEvent>>,
    control: Option<JoinHandle<()>>,
}

impl RoutedClient {
    /// Creates a router over `directory` (broker index `i` ↔
    /// [`ServerId::from_index`]`(i)`). No connection is opened until a
    /// channel actually routes to a broker.
    ///
    /// # Panics
    ///
    /// Panics if `directory` is empty.
    pub fn connect(directory: Vec<SocketAddr>, cfg: RouterConfig) -> RoutedClient {
        assert!(!directory.is_empty(), "directory needs at least one broker");
        let servers: Vec<ServerId> = (0..directory.len()).map(ServerId::from_index).collect();
        let ring = Ring::new(&servers, DEFAULT_VNODES);
        let mut rng = seeded_rng(cfg.seed);
        let origin = rng.next_u64();
        let shared = Arc::new(RouterShared {
            running: AtomicBool::new(true),
            origin,
            seq: AtomicU64::new(0),
            control: control_channel(origin),
            duplicates: AtomicU64::new(0),
            moved_applied: AtomicU64::new(0),
            switches_applied: AtomicU64::new(0),
            stale_frames: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
            repoints: AtomicU64::new(0),
            dedup: Mutex::new(Dedup::new()),
            alive: (0..directory.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
        });
        let routing = Mutex::new(Routing {
            local_plan: HashMap::new(),
            desired: BTreeSet::new(),
            subscribed_on: BTreeMap::new(),
            pending_unsubs: Vec::new(),
            health: (0..directory.len())
                .map(|_| BrokerHealth::default())
                .collect(),
            rng,
        });
        let (msg_tx, msg_rx) = mpsc::channel();
        let (event_tx, event_rx) = mpsc::channel();
        let (inbox_tx, inbox_rx) = mpsc::channel();
        let core = Arc::new(Core {
            directory,
            cfg,
            ring,
            clients: Mutex::new(HashMap::new()),
            routing,
            shared,
            messages: msg_tx,
            inbox: inbox_tx,
            events: event_tx,
        });
        let control = std::thread::Builder::new()
            .name("dm-router".into())
            .spawn({
                let core = Arc::clone(&core);
                move || core.run(inbox_rx)
            })
            .expect("spawn dm-router thread");
        RoutedClient {
            core,
            messages: MessageQueue::new(msg_rx),
            events: Mutex::new(event_rx),
            control: Some(control),
        }
    }

    /// Subscribes to `channel` on the brokers its current mapping
    /// demands; the subscription follows the channel across migrations.
    pub fn subscribe(&self, channel: &str) {
        let core = &self.core;
        let mut routing = core.routing.lock();
        routing.desired.insert(channel.to_owned());
        let mapping = core.resolve_locked(&mut routing, channel);
        let mapping = route_around_dead(&core.ring, &routing, channel, &mapping);
        let targets = subscribe_targets(&mut routing, channel, &mapping);
        for &idx in &targets {
            core.client(idx).subscribe(channel);
        }
        routing
            .subscribed_on
            .insert(channel.to_owned(), targets.into_iter().collect());
    }

    /// Unsubscribes `channel` everywhere it is currently subscribed.
    pub fn unsubscribe(&self, channel: &str) {
        let core = &self.core;
        let mut routing = core.routing.lock();
        routing.desired.remove(channel);
        if let Some(brokers) = routing.subscribed_on.remove(channel) {
            for idx in brokers {
                core.client(idx).unsubscribe(channel);
            }
        }
        // Lingering grace-period subscriptions go down immediately too.
        let mut lingering = Vec::new();
        routing.pending_unsubs.retain(|(_, idx, ch)| {
            if ch == channel {
                lingering.push(*idx);
                false
            } else {
                true
            }
        });
        for idx in lingering {
            core.client(idx).unsubscribe(channel);
        }
    }

    /// Publishes `body` on `channel`, routed per the channel's current
    /// mapping. It is framed once, under the router's origin: every
    /// target gets the same bytes, so a subscriber that hears more than
    /// one copy dedups them.
    pub fn publish(&self, channel: &str, body: &[u8]) {
        let core = &self.core;
        let mut routing = core.routing.lock();
        let mapping = core.resolve_locked(&mut routing, channel);
        let mapping = route_around_dead(&core.ring, &routing, channel, &mapping);
        let targets = mapping.publish_targets(&mut routing.rng);
        drop(routing);
        let Some((last, rest)) = targets.split_last() else {
            return;
        };
        let id = MessageId {
            origin: core.shared.origin,
            seq: core.shared.seq.fetch_add(1, Ordering::Relaxed),
        };
        let framed = frame_payload(id, body);
        for s in rest {
            core.client(s.index())
                .publish_framed(channel, framed.clone());
        }
        core.client(last.index()).publish_framed(channel, framed);
    }

    /// The next delivered message, if one is already queued.
    pub fn try_message(&self) -> Option<Message> {
        self.messages.try_message()
    }

    /// Blocks up to `timeout` for the next delivered message.
    pub fn message_timeout(&self, timeout: Duration) -> Option<Message> {
        self.messages.message_timeout(timeout)
    }

    /// The next router event, if one is already queued.
    pub fn try_event(&self) -> Option<RouterEvent> {
        self.events.lock().try_recv().ok()
    }

    /// The local plan's mapping for `channel`, if reconfiguration has
    /// taught this client one.
    pub fn local_mapping(&self, channel: &str) -> Option<(ChannelMapping, PlanId)> {
        self.core.routing.lock().local_plan.get(channel).cloned()
    }

    /// Pre-seeds the local plan with `mapping` for `channel` at version
    /// `plan`, as if a control frame had announced it — used by tests
    /// and scale harnesses that run replicated mappings without a live
    /// balancer. Install **before** subscribing: an already-active
    /// subscription is re-pointed only by real control frames, and a
    /// later control frame with a newer version overrides this entry
    /// exactly like any other local-plan record.
    pub fn install_local_mapping(&self, channel: &str, mapping: ChannelMapping, plan: PlanId) {
        self.core
            .routing
            .lock()
            .local_plan
            .insert(channel.to_owned(), (mapping, plan));
    }

    /// Counters so far.
    pub fn stats(&self) -> RouterStats {
        let shared = &self.core.shared;
        let routing = self.core.routing.lock();
        RouterStats {
            duplicates_suppressed: shared.duplicates.load(Ordering::Relaxed),
            moved_applied: shared.moved_applied.load(Ordering::Relaxed),
            switches_applied: shared.switches_applied.load(Ordering::Relaxed),
            stale_control_frames: shared.stale_frames.load(Ordering::Relaxed),
            connections: self.core.clients.lock().len(),
            local_plan_len: routing.local_plan.len(),
            deaths_detected: shared.deaths.load(Ordering::Relaxed),
            failover_repoints: shared.repoints.load(Ordering::Relaxed),
            dead_brokers: routing.dead_servers().iter().map(|s| s.index()).collect(),
        }
    }

    /// Stops the control thread and every underlying client.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.core.shared.running.store(false, Ordering::SeqCst);
        // The control thread may be blocked until a deadline seconds
        // away, or for good.
        let _ = self.core.inbox.send(Inbox::Wake);
        if let Some(handle) = self.control.take() {
            let _ = handle.join();
        }
        self.core.clients.lock().clear();
    }
}

impl Drop for RoutedClient {
    fn drop(&mut self) {
        if self.control.is_some() {
            self.stop();
        }
    }
}

impl std::fmt::Debug for RoutedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedClient")
            .field("brokers", &self.core.directory.len())
            .finish_non_exhaustive()
    }
}

/// Broker indices a subscriber of `channel` must sit on under `mapping`.
/// The `AllPublishers` pick is remembered via `subscribed_on`, so
/// repeated calls do not hop brokers.
fn subscribe_targets(routing: &mut Routing, channel: &str, mapping: &ChannelMapping) -> Vec<usize> {
    match mapping {
        ChannelMapping::Single(s) => vec![s.index()],
        ChannelMapping::AllSubscribers(v) => v.iter().map(|s| s.index()).collect(),
        ChannelMapping::AllPublishers(v) if v.is_empty() => Vec::new(),
        ChannelMapping::AllPublishers(v) => {
            let members: BTreeSet<usize> = v.iter().map(|s| s.index()).collect();
            if let Some(current) = routing.subscribed_on.get(channel) {
                if let Some(&keep) = current.iter().find(|idx| members.contains(idx)) {
                    return vec![keep];
                }
            }
            let pick = routing.rng.next_below(v.len() as u64) as usize;
            vec![v[pick].index()]
        }
    }
}

impl Core {
    /// Resolves `channel` through the local plan, then the ring. A ring
    /// fallback is recorded in the local plan at version 0 — a
    /// *provisional* entry. Provisional entries never win the staleness
    /// race in `apply_control`: plan 0 is the empty bootstrap plan, so a
    /// control frame carrying *any* version (even 0, from a
    /// bootstrap-era migration) knows more than the ring did.
    fn resolve_locked(&self, routing: &mut Routing, channel: &str) -> ChannelMapping {
        if let Some((m, _)) = routing.local_plan.get(channel) {
            return m.clone();
        }
        // Exclusion-aware fallback: a channel first resolved after a
        // broker death must not cache the corpse as its provisional
        // home. This walk agrees with the balancer's bounded-load
        // placer and with `route_around_dead`.
        let id = channel_id_of(channel);
        let home = self
            .ring
            .server_for_excluding(id, &routing.dead_servers())
            .unwrap_or_else(|| self.ring.server_for(id));
        let mapping = ChannelMapping::Single(home);
        routing
            .local_plan
            .insert(channel.to_owned(), (mapping.clone(), PlanId(0)));
        mapping
    }

    /// The lazily created client for broker `idx`. Its worker delivers
    /// through a [`RouterSink`]; on creation it also subscribes the
    /// router's control channel, so a sidecar of whichever broker this
    /// router published to can reach it there.
    fn client(&self, idx: usize) -> Arc<TcpPubSubClient> {
        let mut clients = self.clients.lock();
        let client = clients.entry(idx).or_insert_with(|| {
            let mut cfg = self.cfg.client.clone();
            // Per-broker seeds, so the connections' reconnect jitter is
            // decorrelated from each other and from the router's stream.
            cfg.seed = self.cfg.seed.map(|s| {
                SimRng::new(s ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
            });
            let sink = RouterSink {
                broker: idx,
                dedup_window: self.cfg.dedup_window,
                shared: Arc::clone(&self.shared),
                messages: self.messages.clone(),
                inbox: self.inbox.clone(),
                got_message: false,
            };
            let client = TcpPubSubClient::connect_sink(self.directory[idx], cfg, sink);
            client.subscribe(&self.shared.control);
            Arc::new(client)
        });
        Arc::clone(client)
    }

    /// The control thread: blocks on the inbox until the next deadline,
    /// applies what arrived, then runs the timers.
    fn run(&self, inbox: mpsc::Receiver<Inbox>) {
        let running = || self.shared.running.load(Ordering::SeqCst);
        while running() {
            let first = match self.next_deadline() {
                Some(at) => inbox
                    .recv_timeout(at.saturating_duration_since(Instant::now()))
                    .ok(),
                None => inbox.recv().ok(),
            };
            for item in first.into_iter().chain(inbox.try_iter()) {
                if !running() {
                    return;
                }
                match item {
                    Inbox::Event { broker, event } => {
                        self.note_event(broker, &event);
                        if matches!(event, ClientEvent::GaveUp) {
                            // The connection exhausted its whole retry
                            // budget: treat as death without waiting out
                            // the failover timer.
                            self.declare_dead(broker, None);
                        }
                        let _ = self.events.send(RouterEvent { broker, event });
                    }
                    Inbox::Control(frame) => self.apply_control(&frame),
                    Inbox::Wake => {}
                }
            }
            self.check_health();
            self.drain_pending_unsubs();
        }
    }

    /// When the control thread next has something to do unprompted: the
    /// earliest grace-period unsubscribe, confirmation probe or revival
    /// re-probe. `None` while every broker is healthy and no switch is
    /// in its grace period.
    fn next_deadline(&self) -> Option<Instant> {
        let now = Instant::now();
        let r = self.routing.lock();
        let unsubs = r.pending_unsubs.iter().map(|(due, _, _)| *due);
        let timing = &self.cfg.client.timing;
        let probes = r.health.iter().filter_map(|h| h.probe_at(timing, now));
        unsubs.chain(probes).min()
    }

    /// Applies a `Moved`/`Switch` to the local plan and re-points any
    /// affected subscription — new brokers first, old ones after, so the
    /// subscription windows overlap.
    fn apply_control(&self, frame: &ControlFrame) {
        // Quarantine entries piggy-backed on control frames are the
        // balancer's already-probed death verdicts: adopt them immediately
        // instead of waiting out the local failover timer. Incarnation
        // numbers deduplicate — a stale frame replaying an old death cannot
        // re-kill a broker that has since revived.
        for q in frame.quarantine() {
            if q.broker < self.directory.len() {
                self.declare_dead(q.broker, Some(q.incarnation));
            }
        }
        let channel = frame.channel().to_owned();
        let mapping = frame.mapping().clone();
        let plan = frame.plan();
        if mapping.servers().is_empty() {
            return; // a mapping with no members cannot route anything
        }
        if mapping
            .servers()
            .iter()
            .any(|s| s.index() >= self.directory.len())
        {
            return; // frame references brokers outside the directory
        }

        let mut r = self.routing.lock();
        if let Some((_, known)) = r.local_plan.get(&channel) {
            // Version-0 entries are provisional (ring fallback or bootstrap
            // frames): they record what this client *assumed*, not what any
            // plan decreed, so they must never shadow a real migration — in
            // particular the first Moved/Switch for a ring-resolved channel
            // may itself carry version 0 and must still apply.
            if *known >= plan && *known != PlanId(0) {
                self.shared.stale_frames.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        r.local_plan
            .insert(channel.clone(), (mapping.clone(), plan));
        match frame {
            ControlFrame::Moved { .. } => self.shared.moved_applied.fetch_add(1, Ordering::Relaxed),
            ControlFrame::Switch { .. } => {
                self.shared.switches_applied.fetch_add(1, Ordering::Relaxed)
            }
        };

        if !r.desired.contains(&channel) {
            return;
        }
        // Re-point the subscription: subscribe on the new target set before
        // unsubscribing brokers that fell out of it.
        let current = r.subscribed_on.get(&channel).cloned().unwrap_or_default();
        let wanted: BTreeSet<usize> = subscribe_targets(&mut r, &channel, &mapping)
            .into_iter()
            .collect();
        // Brokers entering the target set are subscribed *from sequence 0*:
        // the channel's sequence space on its new home starts at the
        // migration, so the replay is exactly the post-migration suffix —
        // which is how a client that was offline across the `<switch>`
        // still recovers everything published to the new home while it was
        // away. Frames the client did see (live before the outage, or via
        // the sidecar's forwarding window) carry their original wire ids
        // and dedup away. A channel returning to a broker it once lived on
        // may replay pre-migration history too; those re-deliveries are
        // bounded by the retention ring and largely absorbed by the dedup
        // windows — the trade for never losing the suffix silently.
        for &idx in wanted.difference(&current) {
            self.client(idx).subscribe_from(&channel, 0);
        }
        // Superseded brokers are not unsubscribed yet: the new subscriptions
        // may ride connections still being established, so the old ones
        // linger for `switch_grace` (double deliveries dedup away).
        let due = Instant::now() + self.cfg.client.timing.switch_grace();
        for &idx in current.difference(&wanted) {
            r.pending_unsubs.push((due, idx, channel.clone()));
        }
        r.subscribed_on.insert(channel, wanted);
    }

    /// Unsubscribes superseded subscriptions whose grace period lapsed,
    /// unless a later switch re-pointed the channel back at that broker.
    fn drain_pending_unsubs(&self) {
        let now = Instant::now();
        let mut r = self.routing.lock();
        let mut due = Vec::new();
        r.pending_unsubs.retain(|entry| {
            if entry.0 <= now {
                due.push((entry.1, entry.2.clone()));
                false
            } else {
                true
            }
        });
        for (idx, channel) in due {
            let wanted_again = r
                .subscribed_on
                .get(&channel)
                .is_some_and(|set| set.contains(&idx));
            if wanted_again {
                continue;
            }
            if let Some(client) = self.clients.lock().get(&idx) {
                client.unsubscribe(&channel);
            }
        }
    }

    /// Folds the data plane's liveness evidence into the health view:
    /// a message arrived from the broker, so it is alive, whatever the
    /// timers say.
    fn fold_alive(&self, r: &mut Routing) {
        for (h, alive) in r.health.iter_mut().zip(&self.shared.alive) {
            if alive.swap(false, Ordering::Relaxed) {
                h.down_since = None;
                h.dead = false;
            }
        }
    }

    /// Folds one client event into the broker's health view. `Connected`
    /// is deliberately *not* alive-evidence: a hard-killed proxy (or
    /// half-dead host) can complete TCP handshakes forever while serving
    /// nothing, so only delivered data or a successful resume resets the
    /// failover timer.
    fn note_event(&self, idx: usize, event: &ClientEvent) {
        let mut r = self.routing.lock();
        // A worker records evidence before it emits a later event, so
        // whatever is flagged by now precedes this event.
        self.fold_alive(&mut r);
        let h = &mut r.health[idx];
        match event {
            ClientEvent::Disconnected { .. } if h.down_since.is_none() && !h.dead => {
                h.down_since = Some(Instant::now());
            }
            ClientEvent::Resumed { .. } => {
                h.down_since = None;
                h.dead = false;
            }
            _ => {}
        }
    }

    /// Runs the suspect/probe half of failure detection: connections down
    /// past `failover_after` get a confirmation probe (failure ⇒ death;
    /// success ⇒ the broker is up and our client just needs to reconnect,
    /// so failing over would split routing for nothing), and dead brokers
    /// get a revival re-probe.
    fn check_health(&self) {
        let timing = &self.cfg.client.timing;
        let now = Instant::now();
        let mut to_probe: Vec<(usize, bool)> = Vec::new();
        {
            let mut r = self.routing.lock();
            self.fold_alive(&mut r);
            for (idx, h) in r.health.iter_mut().enumerate() {
                if h.probe_at(timing, now).is_some_and(|at| at <= now) {
                    h.last_probe = Some(now);
                    to_probe.push((idx, h.dead));
                }
            }
        }
        for (idx, was_dead) in to_probe {
            let alive =
                TcpStream::connect_timeout(&self.directory[idx], timing.probe_timeout()).is_ok();
            if was_dead && alive {
                // Revived: lift the death mark so routing may use the broker
                // again (subscriptions moved away stay put until control
                // frames re-point them).
                let mut r = self.routing.lock();
                let h = &mut r.health[idx];
                h.dead = false;
                h.down_since = None;
            } else if !was_dead && !alive {
                self.declare_dead(idx, None);
            }
        }
    }

    /// Declares broker `idx` dead: re-points every subscription whose only
    /// home it was to the ring-exclusion fallback (surfacing a synthetic
    /// [`ClientEvent::Gap`] with [`GapReason::Failover`] — the new home's
    /// sequence stream is a fresh incarnation, so the discontinuity is
    /// explicit and `missed` is zero because it is unquantifiable), and
    /// rescues the dead connection's queued publications onto survivors.
    /// `incarnation` carries a balancer-declared death's incarnation number
    /// for dedup; local verdicts (probe failure, `GaveUp`) pass `None`.
    ///
    /// Control thread only: it joins broker `idx`'s worker.
    fn declare_dead(&self, idx: usize, incarnation: Option<u64>) {
        // Phase 1 under the routing lock: flip the health state and re-point
        // stranded subscriptions.
        let corpse = {
            let mut guard = self.routing.lock();
            let r = &mut *guard;
            let h = &mut r.health[idx];
            if let Some(inc) = incarnation {
                if inc <= h.incarnation {
                    return; // stale replay of a death we already handled
                }
                h.incarnation = inc;
            }
            if h.dead {
                return;
            }
            h.dead = true;
            h.down_since = None;
            self.shared.deaths.fetch_add(1, Ordering::Relaxed);
            let dead = r.dead_servers();
            // Take the corpse's client out of the map: stops its reconnect
            // spin and frees its queued publications for rescue below. The
            // broker re-appearing later just lazily reconnects.
            let corpse = self.clients.lock().remove(&idx);
            let stranded: Vec<String> = r
                .desired
                .iter()
                .filter(|ch| {
                    r.subscribed_on
                        .get(*ch)
                        .is_some_and(|set| set.contains(&idx))
                })
                .cloned()
                .collect();
            for channel in stranded {
                // Filtered on membership above, but stay panic-free if the
                // map shifts between the two passes.
                let Some(set) = r.subscribed_on.get_mut(&channel) else {
                    continue;
                };
                set.remove(&idx);
                if !set.is_empty() {
                    continue; // replicated elsewhere; surviving members cover it
                }
                let Some(target) = self
                    .ring
                    .server_for_excluding(channel_id_of(&channel), &dead)
                else {
                    continue; // every broker dead; nothing to re-point to
                };
                set.insert(target.index());
                // Provisional entry (version 0): the emergency replan's
                // Switch/Moved frames override it the moment they arrive.
                r.local_plan
                    .insert(channel.clone(), (ChannelMapping::Single(target), PlanId(0)));
                self.client(target.index()).subscribe_from(&channel, 0);
                self.shared.repoints.fetch_add(1, Ordering::Relaxed);
                // Sequences are per-broker-incarnation: continuity with the
                // dead home's stream is impossible, so surface the
                // discontinuity explicitly instead of resuming silently.
                let _ = self.events.send(RouterEvent {
                    broker: idx,
                    event: ClientEvent::Gap {
                        channel,
                        missed: 0,
                        reason: GapReason::Failover,
                    },
                });
            }
            corpse
        };
        // Phase 2 off the lock: rescue publications the dead connection had
        // queued or unconfirmed, re-routing each onto a live broker. Wire
        // ids are preserved, so any frame that did land before the death is
        // absorbed by the receive-side dedup windows.
        if let Some(corpse) = corpse {
            let rescued = corpse.take_unsent(Duration::from_millis(500));
            drop(corpse);
            for (channel, framed) in rescued {
                let target = {
                    let mut r = self.routing.lock();
                    let mapping = r
                        .local_plan
                        .get(&channel)
                        .map(|(m, _)| m.clone())
                        .unwrap_or_else(|| {
                            ChannelMapping::Single(self.ring.server_for(channel_id_of(&channel)))
                        });
                    match route_around_dead(&self.ring, &r, &channel, &mapping) {
                        ChannelMapping::Single(s) => Some(s.index()),
                        ChannelMapping::AllSubscribers(v) => {
                            let pick = r.rng.next_below(v.len() as u64) as usize;
                            Some(v[pick].index())
                        }
                        ChannelMapping::AllPublishers(v) => v.first().map(|s| s.index()),
                    }
                };
                if let Some(target) = target {
                    self.client(target).publish_framed(&channel, framed);
                }
            }
        }
        // Whatever the corpse's worker delivered before it was joined
        // predates the verdict and must not lift it.
        self.shared.alive[idx].store(false, Ordering::Relaxed);
    }
}

/// `mapping` with brokers currently believed dead removed. A mapping
/// whose members are *all* dead collapses to the deterministic
/// ring-exclusion fallback — every router excluding the same dead set
/// resolves the same survivor, so publishers and subscribers meet on it
/// without coordination (the survivor's sidecar then corrects them once
/// the balancer's emergency replan installs).
fn route_around_dead(
    ring: &Ring,
    routing: &Routing,
    channel: &str,
    mapping: &ChannelMapping,
) -> ChannelMapping {
    let dead = routing.dead_servers();
    if dead.is_empty() || mapping.servers().is_empty() {
        return mapping.clone();
    }
    let live: Vec<ServerId> = mapping
        .servers()
        .iter()
        .copied()
        .filter(|s| !dead.contains(s))
        .collect();
    if live.len() == mapping.servers().len() {
        return mapping.clone();
    }
    if live.is_empty() {
        return match ring.server_for_excluding(channel_id_of(channel), &dead) {
            Some(s) => ChannelMapping::Single(s),
            // Everything is believed dead; keep the original mapping and
            // let the underlying clients retry rather than route nowhere.
            None => mapping.clone(),
        };
    }
    match mapping {
        ChannelMapping::Single(_) => ChannelMapping::Single(live[0]),
        ChannelMapping::AllSubscribers(_) => ChannelMapping::AllSubscribers(live),
        ChannelMapping::AllPublishers(_) => ChannelMapping::AllPublishers(live),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one broker")]
    fn empty_directory_panics() {
        let _ = RoutedClient::connect(Vec::new(), RouterConfig::default());
    }
}
