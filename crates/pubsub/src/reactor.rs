//! The broker's reactor core: N sharded non-blocking event loops.
//!
//! Each [`ReactorLoop`] is one OS thread owning one `epoll` instance
//! and a disjoint set of connections, pinned at accept time to the
//! least-loaded loop and never migrated. The loop does everything for
//! its connections — non-blocking reads into a per-connection buffer,
//! commands read and executed in place in it, and
//! draining outboxes with vectored writes on writability — so a broker
//! serves any number of connections on exactly `io_loops` threads
//! instead of two threads per connection.
//!
//! Cross-thread work reaches a loop through its **inbox**: a small
//! mutex-protected mailbox carrying connection handoffs (from the
//! accepting loop), flush requests (from publisher threads whose push
//! made an outbox go non-empty), and kill requests (overflow or
//! administrative kills originating on other threads). The inbox pairs
//! with an `eventfd` waker using an *asleep* flag so a sleeping loop is
//! woken with exactly one syscall per batch of work and an awake loop
//! is woken for free: the producer wakes only when it observed the
//! flag set, and clearing it on the first notification coalesces every
//! concurrent producer behind one wake.
//!
//! Publishes stay on the caller's thread: fan-out pushes frames
//! straight onto subscriber outboxes (see [`crate::shard`]) and only
//! the empty→non-empty edge tells the home loop to flush, so the hot
//! path crosses threads once per burst, not once per message.
//!
//! Time-based work — liveness deadlines for half-open connections —
//! rides a per-loop hashed [`TimerWheel`], keeping the idle cost of a
//! sleeping connection at one wheel entry, not a timer thread. A loop
//! with no timer pending polls with no timeout: idle, it never wakes.
//!
//! Shutdown needs no self-connect trick: the broker flips `running`
//! and wakes every loop; each loop then drains its connections' queued
//! frames for up to the configured drain timeout before closing their
//! sockets and exiting.

use std::collections::{BTreeSet, HashMap};
use std::io::{self, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;

use crate::broker::{encode_frame, handle_command, BrokerShared, ConnState};
use crate::outbox::{Flush, LoopIoStats, OutboxSender};
use crate::readbuf::ReadBuf;
use crate::resp::{self, Value};
use crate::timer::TimerWheel;

/// Token of a loop's eventfd waker.
const WAKE: Token = Token(0);
/// Token of the listening socket (loop 0 only).
const LISTENER: Token = Token(1);
/// Connection ids map to tokens at this offset.
const TOKEN_BASE: usize = 2;

/// Per-readiness read budget: after this many bytes a connection yields
/// the loop so one firehose socket cannot starve its neighbours
/// (level-triggered epoll re-reports it on the next poll).
const READ_BUDGET: usize = 256 * 1024;
/// Timer wheel resolution; also the poll timeout while timers pend.
/// With none pending the loop blocks until readiness or its waker.
const TIMER_TICK: Duration = Duration::from_millis(50);

fn token_of(conn: u64) -> Token {
    Token(conn as usize + TOKEN_BASE)
}

/// Cross-thread work submitted to a loop, drained once per iteration.
struct Inbox {
    /// Accepted connections handed to this loop for registration.
    new_conns: Vec<(Arc<ConnState>, TcpStream)>,
    /// Connections whose outbox went non-empty and wants a flush.
    writable: Vec<u64>,
    /// Connections another thread killed; the loop owns the socket so
    /// only it can tear them down.
    kills: Vec<u64>,
    /// True while the loop is (about to be) blocked in `epoll_wait`
    /// with an empty inbox. Producers that observe it clear it and fire
    /// the waker — concurrent producers coalesce behind one syscall.
    asleep: bool,
}

impl Inbox {
    fn has_work(&self) -> bool {
        !self.new_conns.is_empty() || !self.writable.is_empty() || !self.kills.is_empty()
    }
}

/// The cross-thread face of one reactor loop.
pub(crate) struct LoopShared {
    /// This loop's I/O counters (frames, writes, bytes, wakeups).
    pub stats: LoopIoStats,
    /// Connections currently pinned to this loop (incremented at
    /// accept, so placement reacts to bursts before registration
    /// lands).
    pub conn_count: AtomicUsize,
    waker: Waker,
    inbox: Mutex<Inbox>,
}

/// Cloneable handle submitting work to one reactor loop.
#[derive(Clone)]
pub(crate) struct LoopHandle {
    shared: Arc<LoopShared>,
}

impl LoopHandle {
    /// Connections currently pinned to this loop.
    pub fn conn_count(&self) -> usize {
        self.shared.conn_count.load(Ordering::Relaxed)
    }

    /// This loop's I/O counters.
    pub fn stats(&self) -> &LoopIoStats {
        &self.shared.stats
    }

    fn notify(&self, f: impl FnOnce(&mut Inbox)) {
        let was_asleep = {
            let mut inbox = self.shared.inbox.lock();
            f(&mut inbox);
            std::mem::replace(&mut inbox.asleep, false)
        };
        if was_asleep {
            let _ = self.shared.waker.wake();
        }
    }

    /// Tells the loop that `conn`'s outbox went non-empty.
    pub fn schedule_write(&self, conn: u64) {
        self.notify(|i| i.writable.push(conn));
    }

    /// Tells the loop to tear down `conn` (killed by another thread).
    pub fn schedule_kill(&self, conn: u64) {
        self.notify(|i| i.kills.push(conn));
    }

    /// Hands an accepted connection to this loop for registration.
    pub fn submit_conn(&self, state: Arc<ConnState>, stream: TcpStream) {
        self.notify(|i| i.new_conns.push((state, stream)));
    }

    /// Wakes the loop with no work attached (shutdown: the loop
    /// re-checks `running` whenever it wakes).
    pub fn wake(&self) {
        self.notify(|_| {});
    }
}

/// Builds `n` pollers with their cross-thread handles. Split from
/// [`spawn`] so the broker can store every [`LoopHandle`] in its shared
/// state before the first loop thread starts.
pub(crate) fn build_loops(n: usize) -> std::io::Result<Vec<(Poll, LoopHandle)>> {
    (0..n)
        .map(|_| {
            let poll = Poll::new()?;
            let waker = Waker::new(poll.registry(), WAKE)?;
            let handle = LoopHandle {
                shared: Arc::new(LoopShared {
                    stats: LoopIoStats::default(),
                    conn_count: AtomicUsize::new(0),
                    waker,
                    inbox: Mutex::new(Inbox {
                        new_conns: Vec::new(),
                        writable: Vec::new(),
                        kills: Vec::new(),
                        asleep: false,
                    }),
                }),
            };
            Ok((poll, handle))
        })
        .collect()
}

/// Spawns reactor loop `idx` on its own thread. Loop 0 owns the
/// listening socket. Thread-spawn failure (resource exhaustion) is
/// returned to the caller instead of panicking so `bind` can fail
/// cleanly.
pub(crate) fn spawn(
    idx: usize,
    poll: Poll,
    handle: LoopHandle,
    shared: Arc<BrokerShared>,
    listener: Option<TcpListener>,
) -> io::Result<std::thread::JoinHandle<()>> {
    let rl = ReactorLoop {
        idx,
        poll,
        me: handle.shared,
        shared,
        listener,
        conns: HashMap::new(),
        wheel: TimerWheel::new(TIMER_TICK, 256),
        scratch: Vec::new(),
        writable: Vec::new(),
    };
    std::thread::Builder::new()
        .name(format!("broker-io-{idx}"))
        .spawn(move || rl.run())
}

/// Loop-local per-connection state. The socket, read buffer and
/// readiness interest are owned by exactly one loop — no lock guards
/// them.
struct Conn {
    state: Arc<ConnState>,
    stream: TcpStream,
    /// Bytes read but not yet executed: whole frames are read in place,
    /// a partial one waits for the next read.
    rbuf: ReadBuf,
    /// Whether the connection is registered for write readiness
    /// (pending outbox bytes the socket would not take).
    want_write: bool,
    /// Last time the peer's socket produced bytes; drives the liveness
    /// deadline.
    last_rx: Instant,
}

/// Why a connection left the read path.
enum Close {
    /// Orderly peer close (`read` returned 0).
    Client,
    /// Socket read error.
    Read,
    /// Unparseable RESP frame.
    Protocol,
    /// `handle_command` asked for disconnection (e.g. the connection's
    /// own outbox overflowed under [`crate::OverflowPolicy::Kill`]).
    Command,
}

struct ReactorLoop {
    idx: usize,
    poll: Poll,
    me: Arc<LoopShared>,
    shared: Arc<BrokerShared>,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    /// Where this loop's publishes write each push frame before it is
    /// copied into the frame the outboxes share.
    scratch: Vec<u8>,
    /// The spare the inbox's `writable` vector is swapped with: each
    /// drain hands the inbox back an emptied vector that keeps its
    /// capacity, so scheduling writes allocates nothing once warm.
    writable: Vec<u64>,
}

impl ReactorLoop {
    fn run(mut self) {
        if let Some(l) = &self.listener {
            let _ = self
                .poll
                .registry()
                .register(l, LISTENER, Interest::READABLE);
        }
        let mut events = Events::with_capacity(1024);
        let mut expired: Vec<u64> = Vec::new();
        loop {
            // Arm: the running check and the asleep flag share the
            // inbox critical section, so a shutdown (store `running`,
            // then notify) either sees the flag and wakes us, or we see
            // `running == false` here — never a missed shutdown.
            let timeout = {
                let mut inbox = self.me.inbox.lock();
                if !self.shared.running.load(Ordering::SeqCst) {
                    break;
                }
                if inbox.has_work() {
                    Some(Duration::ZERO)
                } else {
                    inbox.asleep = true;
                    (self.wheel.len() > 0).then(|| self.wheel.tick())
                }
            };
            let poll_result = self.poll.poll(&mut events, timeout);
            self.me.inbox.lock().asleep = false;
            if poll_result.is_err() {
                // epoll itself failing is unrecoverable in kind but
                // transient errors shouldn't spin the CPU.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let mut accept = false;
            for ev in events.iter() {
                match ev.token() {
                    WAKE => {
                        self.me.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                    }
                    LISTENER => accept = true,
                    Token(t) => {
                        let conn = (t - TOKEN_BASE) as u64;
                        if ev.is_readable() {
                            self.service_read(conn);
                        }
                        if ev.is_writable() {
                            self.service_write(conn);
                        }
                    }
                }
            }
            if accept {
                self.accept_ready();
            }
            self.drain_inbox();
            self.expire_timers(&mut expired);
        }
        self.drain_and_close();
    }

    /// Accepts every pending connection (loop 0 only), pinning each to
    /// the currently least-loaded loop.
    fn accept_ready(&mut self) {
        loop {
            // Only loop 0 owns the listener; a stray accept-readiness
            // token on any other loop is ignored rather than a panic.
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            let accepted = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept errors (EMFILE, aborted handshake):
                // drop this readiness edge; epoll re-reports while
                // connections pend.
                Err(_) => break,
            };
            if accepted.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = accepted.set_nodelay(true);
            self.shared
                .connections_accepted
                .fetch_add(1, Ordering::Relaxed);
            let conn = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
            // The loop list is never empty while this code runs (this
            // loop is on it); fall back to accepting onto this loop
            // rather than panicking if that invariant ever breaks.
            let (home_idx, home) = self
                .shared
                .loops
                .iter()
                .enumerate()
                .min_by_key(|(_, h)| h.conn_count())
                .map(|(i, h)| (i, h.clone()))
                .unwrap_or_else(|| {
                    (
                        self.idx,
                        LoopHandle {
                            shared: Arc::clone(&self.me),
                        },
                    )
                });
            home.shared.conn_count.fetch_add(1, Ordering::Relaxed);
            let notify_home = home.clone();
            let outbox = OutboxSender::new_with(
                self.shared.config.outbox_limit_bytes,
                self.shared.config.overflow_policy,
                Arc::clone(&self.shared.flush_counters),
                Some(Box::new(move || notify_home.schedule_write(conn))),
            );
            let state = Arc::new(ConnState {
                conn,
                dead: AtomicBool::new(false),
                outbox,
                channels: Mutex::new(BTreeSet::new()),
                home: home.clone(),
            });
            {
                let mut conns = self.shared.conns.lock();
                conns.insert(conn, Arc::clone(&state));
                self.shared
                    .peak_connections
                    .fetch_max(conns.len(), Ordering::Relaxed);
            }
            if home_idx == self.idx {
                self.register_conn(state, accepted);
            } else {
                home.submit_conn(state, accepted);
            }
        }
    }

    /// Registers a connection pinned to this loop. A kill that raced
    /// the handoff already marked the state dead — the connection is
    /// then discarded instead of registered (its registry entry was
    /// removed by the killer).
    fn register_conn(&mut self, state: Arc<ConnState>, stream: TcpStream) {
        let conn = state.conn;
        let dead_on_arrival = state.dead.load(Ordering::SeqCst)
            || self
                .poll
                .registry()
                .register(&stream, token_of(conn), Interest::READABLE)
                .is_err();
        if dead_on_arrival {
            self.shared.kill(&state, false);
            self.me.conn_count.fetch_sub(1, Ordering::Relaxed);
            return; // dropping `stream` closes the socket
        }
        let now = Instant::now();
        if let Some(liveness) = self.shared.config.liveness_timeout {
            self.wheel.schedule(conn, now + liveness);
        }
        self.conns.insert(
            conn,
            Conn {
                state,
                stream,
                rbuf: ReadBuf::new(),
                want_write: false,
                last_rx: now,
            },
        );
    }

    /// Reads until the socket is dry (or the fairness budget is spent),
    /// executing every complete RESP frame in place in the connection's
    /// buffer.
    fn service_read(&mut self, conn: u64) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        c.last_rx = Instant::now();
        let mut read_total = 0usize;
        let close = 'read: loop {
            match c.rbuf.fill(&mut c.stream) {
                Ok(0) => break 'read Some(Close::Client),
                Ok(n) => {
                    read_total += n;
                    // Process every complete frame in the buffer.
                    loop {
                        match resp::read_command(c.rbuf.unread()) {
                            Ok(Some((command, used))) => {
                                let open = handle_command(
                                    &c.state,
                                    command,
                                    &self.shared,
                                    &mut self.scratch,
                                );
                                c.rbuf.consume(used);
                                if !open {
                                    break 'read Some(Close::Command);
                                }
                            }
                            Ok(None) => break,
                            Err(_) => break 'read Some(Close::Protocol),
                        }
                    }
                    if read_total >= READ_BUDGET {
                        break 'read None;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break 'read None,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break 'read Some(Close::Read),
            }
        };
        match close {
            None => {}
            Some(Close::Client) => {
                self.shared.client_closes.fetch_add(1, Ordering::Relaxed);
                self.teardown(conn);
            }
            Some(Close::Read) => {
                self.shared.read_errors.fetch_add(1, Ordering::Relaxed);
                self.teardown(conn);
            }
            Some(Close::Protocol) => {
                self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = self.conns.get(&conn) {
                    let _ = c
                        .state
                        .outbox
                        .push(encode_frame(&Value::Error("ERR protocol error".into())));
                }
                self.teardown(conn);
            }
            Some(Close::Command) => self.teardown(conn),
        }
    }

    /// Flushes a connection's outbox, tracking write-readiness interest
    /// from the outcome: `Pending` arms `EPOLLOUT`, `Drained` disarms
    /// it (a drained connection must not wake the loop every tick just
    /// because its socket stays writable).
    fn service_write(&mut self, conn: u64) {
        let outcome = {
            let Some(c) = self.conns.get_mut(&conn) else {
                return;
            };
            c.state.outbox.flush_to(&mut (&c.stream), &self.me.stats)
        };
        match outcome {
            Flush::Drained => self.set_want_write(conn, false),
            Flush::Pending => self.set_want_write(conn, true),
            Flush::Failed => {
                self.shared.read_errors.fetch_add(1, Ordering::Relaxed);
                self.teardown(conn);
            }
        }
    }

    fn set_want_write(&mut self, conn: u64, want: bool) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if c.want_write == want {
            return;
        }
        c.want_write = want;
        let interest = if want {
            Interest::READABLE | Interest::WRITABLE
        } else {
            Interest::READABLE
        };
        let _ = self
            .poll
            .registry()
            .reregister(&c.stream, token_of(conn), interest);
    }

    /// Removes a connection from this loop: global kill (registry,
    /// index, outbox — a no-op when another thread killed it first),
    /// one best-effort flush so already-queued replies reach a willing
    /// socket, then the fd leaves the poller and closes.
    fn teardown(&mut self, conn: u64) {
        let Some(c) = self.conns.remove(&conn) else {
            return;
        };
        self.shared.kill(&c.state, false);
        let _ = c.state.outbox.flush_to(&mut (&c.stream), &self.me.stats);
        c.state.outbox.discard_remaining();
        let _ = self.poll.registry().deregister(&c.stream);
        self.me.conn_count.fetch_sub(1, Ordering::Relaxed);
    }

    /// Drains the inbox: registrations first (so a kill scheduled after
    /// a handoff in the same batch finds its connection), then kills,
    /// then flush requests.
    fn drain_inbox(&mut self) {
        let (new_conns, kills) = {
            let mut inbox = self.me.inbox.lock();
            std::mem::swap(&mut inbox.writable, &mut self.writable);
            (
                std::mem::take(&mut inbox.new_conns),
                std::mem::take(&mut inbox.kills),
            )
        };
        for (state, stream) in new_conns {
            self.register_conn(state, stream);
        }
        for conn in kills {
            self.teardown(conn);
        }
        let mut writable = std::mem::take(&mut self.writable);
        for &conn in &writable {
            self.service_write(conn);
        }
        writable.clear();
        self.writable = writable;
    }

    /// Fires due liveness deadlines. Cancellation is lazy: a deadline
    /// that fires for a connection that spoke since is rescheduled at
    /// `last_rx + liveness`, so the read path never touches the wheel.
    fn expire_timers(&mut self, expired: &mut Vec<u64>) {
        let Some(liveness) = self.shared.config.liveness_timeout else {
            return;
        };
        if self.wheel.len() == 0 {
            return;
        }
        expired.clear();
        let now = Instant::now();
        self.wheel.expire(now, expired);
        for &conn in expired.iter() {
            let Some(c) = self.conns.get(&conn) else {
                continue; // already gone; lazy-cancelled
            };
            let deadline = c.last_rx + liveness;
            if now >= deadline {
                self.shared.liveness_kills.fetch_add(1, Ordering::Relaxed);
                self.teardown(conn);
            } else {
                self.wheel.schedule(conn, deadline);
            }
        }
    }

    /// Shutdown: give every connection's queued frames a bounded chance
    /// to reach the kernel, then close everything.
    fn drain_and_close(mut self) {
        if let Some(l) = &self.listener {
            let _ = self.poll.registry().deregister(l);
        }
        // Absorb in-flight handoffs; their sockets close unserved (they
        // were accepted but never exchanged a command).
        let new_conns = std::mem::take(&mut self.me.inbox.lock().new_conns);
        for (state, _stream) in new_conns {
            self.shared.kill(&state, false);
            self.me.conn_count.fetch_sub(1, Ordering::Relaxed);
        }
        // Close every outbox (kill is idempotent): queued frames still
        // drain below, new pushes fail.
        for c in self.conns.values() {
            self.shared.kill(&c.state, false);
        }
        let deadline = Instant::now() + self.shared.config.shutdown_drain_timeout;
        loop {
            let mut pending = false;
            for c in self.conns.values_mut() {
                if c.state.outbox.is_empty() {
                    continue;
                }
                match c.state.outbox.flush_to(&mut (&c.stream), &self.me.stats) {
                    Flush::Drained | Flush::Failed => {}
                    Flush::Pending => pending = true,
                }
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            // Socket buffers full: retry on a short cadence instead of
            // re-arming EPOLLOUT for connections about to close anyway.
            std::thread::sleep(Duration::from_millis(5));
        }
        for (_, c) in self.conns.drain() {
            c.state.outbox.discard_remaining();
            let _ = self.poll.registry().deregister(&c.stream);
            self.me.conn_count.fetch_sub(1, Ordering::Relaxed);
        }
    }
}
