//! Per-broker dispatcher sidecar: the reconfiguration half of the
//! routed TCP tier (§IV of the paper).
//!
//! Dynamoth keeps its pub/sub servers unmodified; the *dispatcher*
//! process colocated with each server implements lazy reconfiguration.
//! [`DispatcherSidecar`] is that process for the TCP tier. When the
//! load balancer migrates a channel, it installs the corresponding
//! [`ChannelChange`] on the sidecars of every involved broker; each
//! sidecar then subscribes to the migrated channel **on its own broker**
//! and reacts to what it observes during the reconfiguration window:
//!
//! - the **old-home** sidecar forwards every publication it observes —
//!   byte-identical, original wire id preserved — to the channel's new
//!   home(s). Its first wrong-home observation of a (channel, plan) — a
//!   stale publication, a forwarded copy or an unforwardable one — emits
//!   a [`ControlFrame::Switch`] on the channel, so still-connected local
//!   subscribers re-point. From then on it re-emits the `<switch>` as a
//!   beacon on a doubling schedule ([`RESEND_FIRST`] up to
//!   [`RESEND_CAP`]) until the TTL lapses, traffic or not, so a
//!   subscriber that arrives late still hears one within [`RESEND_CAP`].
//!   The first publication of each stale origin earns a
//!   [`ControlFrame::Moved`] on that publisher's control channel, so its
//!   local plan catches up; it is re-sent on the same schedule, but only
//!   while that origin keeps publishing here;
//! - the **new-home** sidecar forwards publications back to old members still
//!   holding unswitched subscribers, for
//!   [`Timing::forward_back_window`](crate::Timing::forward_back_window) after
//!   the (channel, plan) was first installed; a refresh under the same plan id
//!   does not restart it. A switched subscriber needs no copies: it subscribes
//!   at the new home from sequence 0, so the replay covers everything the old
//!   home did not carry, and it keeps its old subscription for
//!   [`Timing::switch_grace`](crate::Timing::switch_grace) while the new one is
//!   being established. The window is twice the grace, so a subscriber that
//!   switched on the first `<switch>` keeps its live feed until its new-home
//!   subscription delivers. A subscriber still unswitched when the window
//!   closes hears the beacon within [`RESEND_CAP`] and catches up by the same
//!   replay.
//!
//! Forwarding means neither a stale publisher nor a stale subscriber
//! loses messages, and preserved wire ids mean the receive-side dedup
//! windows (client and router level) make delivery exactly-once despite
//! the duplication forwarding creates. Publications without a wire id are
//! never forwarded — with no id to suppress on, a bounced copy would
//! ping-pong between brokers forever — and are counted in
//! [`SidecarStats::unforwardable`].
//!
//! All per-channel state — the forwarding rule, the beacon and the per-origin
//! `MOVED` schedules — carries a TTL ([`Timing::ttl`](crate::Timing::ttl),
//! longer than every window that reads the state); once it lapses (the paper
//! keeps forwarding "for a certain amount of time"), the sidecar unsubscribes
//! its watch and drops it.
//!
//! The watch rides a resume-enabled [`TcpPubSubClient`], so a watch
//! connection that drops mid-window resumes from its per-channel
//! high-water sequence on reconnect: publications the sidecar missed
//! while disconnected are replayed from the broker's retention ring and
//! forwarded late rather than never. And because the beacon's `<switch>`
//! frames are themselves publications on the migrated channel, the old
//! home's retention ring keeps a recent one: a subscriber that resumes on
//! the *old* home replays it and learns the new home, even after the TTL
//! lapsed. One hole remains: a subscriber that first subscribes on the
//! old home after the TTL lapsed replays nothing and hears no beacon, so
//! it stays there until a later plan change reaches it.
//!
//! The pump thread (`dm-sidecar`) blocks on one channel until the next
//! beacon or TTL expiry is due, with no deadline while no state is
//! installed. Its connections send it one batch per socket read, and
//! [`DispatcherSidecar::install`] calls arrive on it too: an install, local
//! or a `DMINST1` frame, takes effect when it arrives.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::client::{
    frame_payload, ClientConfig, ClientEvent, Dedup, Message, Sink, TcpPubSubClient,
};
use crate::control::{control_channel, install_channel, ControlFrame, InstallFrame, Quarantine};
use crate::ids::{PlanId, ServerId};
use crate::plan::ChannelMapping;

/// Dedup window (wire ids) for forwarding-loop suppression.
const DEDUP_WINDOW: usize = 4096;

/// First spacing of a re-send schedule: the `<switch>` beacon and each
/// stale origin's `MOVED`. Every re-send doubles it, up to [`RESEND_CAP`].
pub const RESEND_FIRST: Duration = Duration::from_millis(10);

/// Longest spacing of a re-send schedule: while a channel's state lives,
/// a subscriber on its old home hears a `<switch>` at least this often.
pub const RESEND_CAP: Duration = Duration::from_secs(1);

/// Tuning knobs of a [`DispatcherSidecar`].
#[derive(Debug, Clone, Default)]
pub struct SidecarConfig {
    /// Tuning for the underlying broker connections. Its
    /// [`Timing`](crate::Timing) also sets how long forwarding/switch state
    /// lives after installation ([`Timing::ttl`](crate::Timing::ttl)) and the
    /// new home's forward-back window.
    pub client: ClientConfig,
}

/// One channel migration, as installed on a sidecar: the channel's name
/// plus its mapping before and after the plan change.
#[derive(Debug, Clone)]
pub struct ChannelChange {
    /// Full channel name (what clients publish/subscribe with).
    pub channel: String,
    /// Mapping under the old plan.
    pub old: ChannelMapping,
    /// Mapping under the new plan.
    pub new: ChannelMapping,
}

/// Counters of a sidecar's reconfiguration activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SidecarStats {
    /// Publications forwarded to another broker.
    pub forwarded: u64,
    /// `<switch>` frames emitted to local subscribers.
    pub switches_emitted: u64,
    /// `MOVED` frames emitted to stale publishers.
    pub moved_emitted: u64,
    /// Observed publications suppressed as forwarding-loop duplicates.
    pub duplicates_suppressed: u64,
    /// Observed publications without a wire id (not forwarded).
    pub unforwardable: u64,
    /// Channel states torn down after their TTL lapsed.
    pub expired: u64,
    /// Channel states currently installed.
    pub active_channels: usize,
}

/// Out-of-band notifications from a sidecar's pump thread, drained with
/// [`DispatcherSidecar::try_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidecarEvent {
    /// A broker connection exhausted its reconnect budget
    /// ([`ClientConfig::max_reconnect_attempts`]) and was abandoned.
    /// The sidecar keeps running — the connection is re-established
    /// lazily on next use — but the operator should know the peer was
    /// unreachable for a whole backoff cycle.
    PeerUnavailable {
        /// Directory index of the unreachable broker.
        broker: usize,
    },
}

struct ChannelState {
    old: ChannelMapping,
    new: ChannelMapping,
    plan: PlanId,
    expires_at: Instant,
    /// Brokers the balancer declared dead when it computed this state.
    /// Non-empty marks a failover install: every surviving sidecar
    /// participates (see [`Pump::apply_install`]) and forwarding never
    /// targets a quarantined broker.
    quarantine: Vec<Quarantine>,
    /// First install of this (channel, plan): opens the new home's
    /// [`Timing::forward_back_window`](crate::Timing::forward_back_window).
    installed_at: Instant,
    /// The `<switch>` beacon, started by the first wrong-home observation.
    switch: Option<Resend>,
    /// One `MOVED` schedule per stale origin, advanced by its traffic.
    moved: HashMap<u64, Resend>,
}

/// A doubling re-send schedule: the first frame goes out when it starts,
/// the next [`RESEND_FIRST`] later, each one after twice the previous
/// spacing, capped at [`RESEND_CAP`].
#[derive(Debug, Clone, Copy)]
struct Resend {
    due: Instant,
    spacing: Duration,
}

impl Resend {
    fn start(now: Instant) -> Resend {
        Resend {
            due: now + RESEND_FIRST,
            spacing: RESEND_FIRST,
        }
    }

    /// Whether a re-send is due at `now`; if so, schedules the next one.
    fn fire(&mut self, now: Instant) -> bool {
        if now < self.due {
            return false;
        }
        self.spacing = (self.spacing * 2).min(RESEND_CAP);
        self.due = now + self.spacing;
        true
    }
}

/// What reaches the pump.
enum Inbox {
    /// The messages of one socket read on the watch.
    Read(Vec<Message>),
    /// The watch (`None`) or the connection to peer `Some(broker)` gave
    /// up: the only [`ClientEvent`] the pump acts on.
    GaveUp(Option<usize>),
    /// A local [`DispatcherSidecar::install`] call.
    Install(InstallFrame),
    /// Sent by [`DispatcherSidecar::shutdown`] and on drop.
    Stop,
}

/// The sink of the watch's and every peer's worker: the pump's inbox.
struct PumpSink {
    peer: Option<usize>,
    /// The messages of the socket read being consumed.
    batch: Vec<Message>,
    inbox: mpsc::Sender<Inbox>,
}

impl Sink for PumpSink {
    fn message(&mut self, msg: Message) {
        self.batch.push(msg);
    }

    fn event(&mut self, event: ClientEvent) {
        // What was read before the event goes first.
        self.read_end();
        if event == ClientEvent::GaveUp {
            let _ = self.inbox.send(Inbox::GaveUp(self.peer));
        }
    }

    fn read_end(&mut self) {
        if !self.batch.is_empty() {
            let _ = self
                .inbox
                .send(Inbox::Read(std::mem::take(&mut self.batch)));
        }
    }
}

/// The dispatcher sidecar of one broker (see module docs).
pub struct DispatcherSidecar {
    stats: Arc<Mutex<SidecarStats>>,
    inbox: mpsc::Sender<Inbox>,
    pump: Option<JoinHandle<()>>,
    events: Mutex<mpsc::Receiver<SidecarEvent>>,
}

impl DispatcherSidecar {
    /// Starts the sidecar of broker `me`. `directory[i]` is the address
    /// of the broker with index `i`; `directory[me.index()]` is this
    /// sidecar's own broker, which it watches and emits control frames
    /// through.
    pub fn start(
        me: ServerId,
        directory: Vec<SocketAddr>,
        cfg: SidecarConfig,
    ) -> DispatcherSidecar {
        let stats = Arc::new(Mutex::new(SidecarStats::default()));
        let (event_tx, event_rx) = mpsc::channel();
        let (inbox, inbox_rx) = mpsc::channel();
        let pump = Pump {
            me,
            install: install_channel(me.index()),
            directory,
            cfg,
            stats: Arc::clone(&stats),
            inbox: inbox.clone(),
            watch: None,
            peers: HashMap::new(),
            channels: HashMap::new(),
            dedup: Dedup::new(),
            events: event_tx,
        };
        let pump = std::thread::Builder::new()
            .name("dm-sidecar".into())
            .spawn(move || pump.run(inbox_rx))
            .expect("spawn dm-sidecar thread");
        DispatcherSidecar {
            stats,
            inbox,
            pump: Some(pump),
            events: Mutex::new(event_rx),
        }
    }

    /// Installs reconfiguration state for one migrated channel under plan
    /// version `plan`. Idempotent per (channel, plan): re-installing refreshes
    /// the TTL, but not the
    /// [`Timing::forward_back_window`](crate::Timing::forward_back_window) or
    /// the re-send schedules.
    pub fn install(&self, change: ChannelChange, plan: PlanId) {
        let _ = self.inbox.send(Inbox::Install(InstallFrame {
            plan,
            channel: change.channel,
            old: change.old,
            new: change.new,
            quarantine: Vec::new(),
        }));
    }

    /// The next queued [`SidecarEvent`], if any.
    pub fn try_event(&self) -> Option<SidecarEvent> {
        self.events.lock().try_recv().ok()
    }

    /// Counters so far (`active_channels` is current, the rest are
    /// cumulative).
    pub fn stats(&self) -> SidecarStats {
        self.stats.lock().clone()
    }

    /// Stops the pump thread and closes every broker connection.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.inbox.send(Inbox::Stop);
        if let Some(handle) = self.pump.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DispatcherSidecar {
    fn drop(&mut self) {
        if self.pump.is_some() {
            self.stop();
        }
    }
}

impl std::fmt::Debug for DispatcherSidecar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatcherSidecar").finish_non_exhaustive()
    }
}

/// The sidecar's worker: owns the watch connection to its own broker,
/// lazy forwarding connections to peers, the per-channel state table and
/// the loop-suppression window.
struct Pump {
    me: ServerId,
    /// This sidecar's install channel, named once.
    install: String,
    directory: Vec<SocketAddr>,
    cfg: SidecarConfig,
    stats: Arc<Mutex<SidecarStats>>,
    /// Handed to every connection's [`PumpSink`].
    inbox: mpsc::Sender<Inbox>,
    watch: Option<TcpPubSubClient>,
    peers: HashMap<usize, TcpPubSubClient>,
    channels: HashMap<String, ChannelState>,
    dedup: Dedup,
    events: mpsc::Sender<SidecarEvent>,
}

impl Pump {
    /// Blocks on the inbox until the next deadline, applies what arrived,
    /// then runs the timers.
    fn run(mut self, inbox: mpsc::Receiver<Inbox>) {
        loop {
            // Watch eagerly: the install channel must be listening before
            // the balancer's first plan delta, not after the first local
            // `install()` call. After a `GaveUp` this rebuilds the
            // connection (and its subscriptions) so an outage longer than
            // the retry budget still heals.
            self.watch();
            let first = match self.next_deadline() {
                Some(at) => inbox
                    .recv_timeout(at.saturating_duration_since(Instant::now()))
                    .ok(),
                None => inbox.recv().ok(),
            };
            for input in first.into_iter().chain(inbox.try_iter()) {
                match input {
                    Inbox::Read(messages) => messages.into_iter().for_each(|m| self.handle(m)),
                    Inbox::GaveUp(peer) => self.gave_up(peer),
                    Inbox::Install(frame) => self.apply_install(frame),
                    Inbox::Stop => return,
                }
            }
            self.beacon();
            self.expire();
        }
    }

    /// When the pump next has something to do unprompted: the earliest
    /// beacon due or TTL expiry. `None` while no channel state is
    /// installed.
    fn next_deadline(&self) -> Option<Instant> {
        self.channels
            .values()
            .map(|s| s.switch.map_or(s.expires_at, |r| r.due.min(s.expires_at)))
            .min()
    }

    /// A client of broker `peer`, or of this sidecar's own broker for the
    /// watch (`peer: None`), whose worker feeds the inbox.
    fn connect(&self, peer: Option<usize>) -> TcpPubSubClient {
        let addr = self.directory[peer.unwrap_or(self.me.index())];
        TcpPubSubClient::connect_sink(addr, self.cfg.client.clone(), |_| PumpSink {
            peer,
            batch: Vec::new(),
            inbox: self.inbox.clone(),
        })
    }

    /// The watch connection, rebuilt in place when a `GaveUp` tore it
    /// down. Structurally infallible: there is no window in which the
    /// pump can observe a missing watch and panic (the connection itself
    /// is established asynchronously by the client's worker; an
    /// unreachable broker surfaces as [`SidecarEvent::PeerUnavailable`],
    /// never as a crash).
    fn watch(&mut self) -> &TcpPubSubClient {
        let watch = self.watch.take().unwrap_or_else(|| {
            let client = self.connect(None);
            // (Re-)establish the control-plane subscriptions: the
            // balancer's install channel plus any channel state that
            // survived a dropped watch connection.
            client.subscribe(&self.install);
            for channel in self.channels.keys() {
                client.subscribe(channel);
            }
            client
        });
        self.watch.insert(watch)
    }

    fn peer(&mut self, server: ServerId) -> &TcpPubSubClient {
        let idx = server.index();
        if !self.peers.contains_key(&idx) {
            let client = self.connect(Some(idx));
            self.peers.insert(idx, client);
        }
        &self.peers[&idx]
    }

    /// Applies one install, local or a `DMINST1` frame: idempotent per
    /// (channel, plan), a re-send refreshes the TTL.
    fn apply_install(&mut self, install: InstallFrame) {
        let plan = install.plan;
        // Installs are payload-space input (anyone can publish a
        // `DMINST1` frame): one naming a broker outside the
        // directory would index past it on the first forward.
        let brokers = self.directory.len();
        let in_directory = |m: &ChannelMapping| m.servers().iter().all(|s| s.index() < brokers);
        if !in_directory(&install.old)
            || !in_directory(&install.new)
            || install.quarantine.iter().any(|q| q.broker >= brokers)
        {
            return;
        }
        // A failover install (non-empty quarantine) involves every
        // surviving sidecar: routers guessing the new home by ring
        // exclusion may land publications on *any* survivor, which
        // must then know where to forward and correct them.
        let involved = install.old.contains(self.me) || install.new.contains(self.me);
        let failover = !install.quarantine.is_empty();
        if !involved && !failover {
            return;
        }
        let now = Instant::now();
        let mut state = ChannelState {
            old: install.old,
            new: install.new,
            plan,
            expires_at: now + self.cfg.client.timing.ttl(),
            quarantine: install.quarantine,
            installed_at: now,
            switch: None,
            moved: HashMap::new(),
        };
        match self.channels.get_mut(&install.channel) {
            Some(existing) if existing.plan > plan => return,
            // A refresh (the balancer re-sends installs for
            // `Timing::install_refresh`) extends the TTL only: the
            // forward-back window and the re-send schedules run on.
            Some(existing) if existing.plan == plan => {
                state.installed_at = existing.installed_at;
                state.switch = existing.switch;
                state.moved = std::mem::take(&mut existing.moved);
            }
            Some(_) => {}
            None => {
                self.watch().subscribe(&install.channel);
            }
        }
        self.channels.insert(install.channel, state);
        self.stats.lock().active_channels = self.channels.len();
    }

    /// A worker that gave up reconnecting leaves a dead client behind:
    /// drop it (the next use rebuilds it, with its subscriptions, from
    /// scratch) and surface the outage instead of silently wedging.
    fn gave_up(&mut self, peer: Option<usize>) {
        let broker = peer.unwrap_or(self.me.index());
        if peer.is_none() {
            self.watch = None;
        } else if let Some(client) = self.peers.remove(&broker) {
            // The dead worker deposited its queued-but-unconfirmed
            // forwards before exiting; rescue them onto a fresh client
            // (with a fresh reconnect budget) so an in-flight migration
            // window does not silently drop frames when the peer
            // connection dies mid-forward. Wire ids are preserved, so a
            // frame that *did* land before the connection died is
            // absorbed by downstream dedup.
            let stranded = client.take_unsent(Duration::from_millis(500));
            drop(client);
            for (channel, framed) in stranded {
                self.peer(ServerId::from_index(broker))
                    .publish_raw(&channel, &framed);
            }
        }
        let _ = self.events.send(SidecarEvent::PeerUnavailable { broker });
    }

    fn handle(&mut self, msg: Message) {
        // Plan deltas from the live balancer arrive on our private
        // install channel; they feed the same install path a local
        // `install()` call does.
        if msg.channel == self.install {
            if let Some(frame) = InstallFrame::decode(&msg.payload) {
                self.apply_install(frame);
            }
            return;
        }
        // Our own Switch emissions (and any other sidecar's control
        // frames) come back through the watch subscription; they carry
        // routing metadata, not application traffic — never forward.
        if ControlFrame::decode(&msg.payload).is_some() {
            return;
        }
        let now = Instant::now();
        let forward_back_window = self.cfg.client.timing.forward_back_window();
        let Some(state) = self.channels.get_mut(&msg.channel) else {
            return; // teardown raced a late delivery
        };
        let i_am_old = state.old.contains(self.me);
        let involved = i_am_old || state.new.contains(self.me);
        // During a failover window an uninvolved survivor acts like an
        // old home: publications landing here are a router's
        // ring-exclusion guess at the corpse's replacement, and this
        // sidecar must re-point the guesser and forward the frame to
        // the real new home.
        let act_as_old = i_am_old || (!involved && !state.quarantine.is_empty());
        // Any wrong-home observation (stale, forwarded or unforwardable)
        // tells local subscribers where the channel went — once; the
        // beacon takes it from there.
        let switch_now = act_as_old && state.switch.is_none();
        if switch_now {
            state.switch = Some(Resend::start(now));
        }
        let mut moved_now = false;
        let mut targets = Vec::new();
        match msg.id {
            None => self.stats.lock().unforwardable += 1,
            Some(id) => {
                if !self.dedup.insert(id, DEDUP_WINDOW) {
                    self.stats.lock().duplicates_suppressed += 1;
                } else if act_as_old {
                    moved_now = match state.moved.entry(id.origin) {
                        Entry::Vacant(slot) => {
                            slot.insert(Resend::start(now));
                            true
                        }
                        Entry::Occupied(mut slot) => slot.get_mut().fire(now),
                    };
                    targets = forward_targets_old_to_new(self.me, &state.new);
                } else if now < state.installed_at + forward_back_window {
                    // New home: cover unswitched subscribers still sitting
                    // on old members that left the mapping.
                    targets = forward_targets_new_to_old(self.me, &state.old, &state.new);
                }
            }
        }
        // Never forward into the corpse.
        targets.retain(|t| state.quarantine.iter().all(|q| q.broker != t.index()));

        if switch_now {
            self.emit_switch(&msg.channel);
        }
        let Some(id) = msg.id else {
            return;
        };
        if moved_now {
            self.emit_moved(id.origin, &msg.channel);
        }
        if targets.is_empty() {
            return;
        }
        // Re-frame byte-identically: framing is deterministic, so the
        // forwarded copy carries the original wire id and every dedup
        // window downstream recognizes it.
        let framed = frame_payload(id, &msg.payload);
        for &target in &targets {
            self.peer(target).publish_raw(&msg.channel, &framed);
        }
        self.stats.lock().forwarded += targets.len() as u64;
    }

    /// Re-emits every `<switch>` beacon that is due.
    fn beacon(&mut self) {
        let now = Instant::now();
        let due: Vec<String> = self
            .channels
            .iter_mut()
            .filter_map(|(c, s)| s.switch.as_mut()?.fire(now).then(|| c.clone()))
            .collect();
        for channel in due {
            self.emit_switch(&channel);
        }
    }

    /// Publishes a `<switch>` to the installed new mapping of `channel` on
    /// the channel itself.
    fn emit_switch(&mut self, channel: &str) {
        let Some(state) = self.channels.get(channel) else {
            return;
        };
        let frame = ControlFrame::Switch {
            channel: channel.to_owned(),
            mapping: state.new.clone(),
            plan: state.plan,
            quarantine: state.quarantine.clone(),
        };
        self.watch().publish(channel, &frame.encode());
        self.stats.lock().switches_emitted += 1;
    }

    /// Publishes a `MOVED` to the installed new mapping of `channel` on
    /// the control channel of the stale publisher `origin`.
    fn emit_moved(&mut self, origin: u64, channel: &str) {
        let Some(state) = self.channels.get(channel) else {
            return;
        };
        let frame = ControlFrame::Moved {
            channel: channel.to_owned(),
            mapping: state.new.clone(),
            plan: state.plan,
            quarantine: state.quarantine.clone(),
        };
        self.watch()
            .publish(&control_channel(origin), &frame.encode());
        self.stats.lock().moved_emitted += 1;
    }

    fn expire(&mut self) {
        let now = Instant::now();
        let lapsed: Vec<String> = self
            .channels
            .iter()
            .filter(|(_, s)| s.expires_at <= now)
            .map(|(c, _)| c.clone())
            .collect();
        if lapsed.is_empty() {
            return;
        }
        for channel in &lapsed {
            self.channels.remove(channel);
            if let Some(watch) = self.watch.as_ref() {
                watch.unsubscribe(channel);
            }
        }
        let mut stats = self.stats.lock();
        stats.expired += lapsed.len() as u64;
        stats.active_channels = self.channels.len();
    }
}

/// Where the old home forwards a stale publication so it reaches the
/// channel's new servers. Mirrors publisher semantics per mapping mode:
/// one member suffices under `Single`/`AllSubscribers` (subscribers
/// cover every member), all members are needed under `AllPublishers`.
fn forward_targets_old_to_new(me: ServerId, new: &ChannelMapping) -> Vec<ServerId> {
    match new {
        ChannelMapping::Single(s) => {
            if *s == me {
                Vec::new()
            } else {
                vec![*s]
            }
        }
        ChannelMapping::AllSubscribers(v) => {
            if v.contains(&me) {
                Vec::new() // local delivery already reaches every subscriber
            } else {
                // A corrupt empty member list forwards nowhere instead
                // of panicking the pump.
                v.first().map(|s| vec![*s]).unwrap_or_default()
            }
        }
        ChannelMapping::AllPublishers(v) => v.iter().copied().filter(|&s| s != me).collect(),
    }
}

/// Where a new home forwards a publication so subscribers still parked
/// on departed old members keep receiving during the window.
fn forward_targets_new_to_old(
    me: ServerId,
    old: &ChannelMapping,
    new: &ChannelMapping,
) -> Vec<ServerId> {
    old.servers()
        .iter()
        .copied()
        .filter(|&s| s != me && !new.contains(s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: usize) -> ServerId {
        ServerId::from_index(i)
    }

    #[test]
    fn old_to_new_targets_per_mode() {
        // Single: forward to the new home, never to self.
        assert_eq!(
            forward_targets_old_to_new(s(0), &ChannelMapping::Single(s(2))),
            vec![s(2)]
        );
        assert_eq!(
            forward_targets_old_to_new(s(2), &ChannelMapping::Single(s(2))),
            Vec::<ServerId>::new()
        );
        // AllSubscribers: one member suffices; none if we are a member.
        assert_eq!(
            forward_targets_old_to_new(s(0), &ChannelMapping::AllSubscribers(vec![s(1), s(2)])),
            vec![s(1)]
        );
        assert_eq!(
            forward_targets_old_to_new(s(1), &ChannelMapping::AllSubscribers(vec![s(1), s(2)])),
            Vec::<ServerId>::new()
        );
        // AllPublishers: every member except self.
        assert_eq!(
            forward_targets_old_to_new(s(1), &ChannelMapping::AllPublishers(vec![s(1), s(2)])),
            vec![s(2)]
        );
    }

    #[test]
    fn resend_spacing_doubles_up_to_the_cap() {
        let t0 = Instant::now();
        let mut resend = Resend::start(t0);
        assert!(!resend.fire(t0), "the start itself is the first send");
        let mut spacings = Vec::new();
        for _ in 0..9 {
            let due = resend.due;
            assert!(!resend.fire(due - Duration::from_micros(1)));
            assert!(resend.fire(due));
            spacings.push((resend.due - due).as_millis());
        }
        assert_eq!(spacings, [20, 40, 80, 160, 320, 640, 1000, 1000, 1000]);
        assert_eq!(RESEND_FIRST.as_millis(), 10);
    }

    #[test]
    fn new_to_old_targets_cover_departed_members_only() {
        let old = ChannelMapping::AllSubscribers(vec![s(0), s(1)]);
        let new = ChannelMapping::AllSubscribers(vec![s(1), s(2)]);
        // From s2's perspective: s0 left the mapping and may still hold
        // unswitched subscribers; s1 stayed and needs nothing.
        assert_eq!(forward_targets_new_to_old(s(2), &old, &new), vec![s(0)]);
        // Plain Single → Single migration.
        assert_eq!(
            forward_targets_new_to_old(
                s(2),
                &ChannelMapping::Single(s(0)),
                &ChannelMapping::Single(s(2))
            ),
            vec![s(0)]
        );
    }
}
