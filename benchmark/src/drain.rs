//! The receiving half of the generator thread: every raw socket through
//! one epoll set, every `RoutedClient` handle by polling, and the books
//! that say whether each publication arrived exactly once and in order.

use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

use dynamoth_pubsub::client::parse_payload;
use dynamoth_pubsub::resp::Value;
use dynamoth_pubsub::{ControlFrame, RoutedClient};
use mio::{Events, Interest, Poll, Token};

use crate::raw::{self, as_push, Inbound, SAMPLED_BIT, SETUP_SEQ};
use crate::shape::{publication_id, Shared, PROBE_BASE, SEC};
use crate::trace::{self, Recorder, Span};
use crate::workload::{channel_index, RawRole, RawSubscriber, Workload};

/// A delivery slower than this counts against `gen.over_limit_share`.
const LATENCY_LIMIT_NS: u64 = 100_000_000;
const ACK_TOKEN_BASE: usize = 1 << 20;
/// Ready sockets handled, and messages taken from one handle, before the
/// publishing half gets to look at its schedule again.
const EVENTS_PER_STEP: usize = 32;
const MESSAGES_PER_STEP: u64 = 64;
/// The `RoutedClient` handles are polled this often and no oftener. A poll
/// reads the cache lines the router's pump thread writes on every delivery;
/// polled flat out from the generator's core they bounce between the two
/// cores millions of times a second, and what that costs the pump depends
/// on where the host has put the two virtual cores. Against a 14 ms
/// delivery, 20 us of receive-stamp granularity is a seventh of a per cent.
const HANDLE_POLL_GAP_NS: u64 = 20_000;

/// Exactly-once and FIFO bookkeeping of one subscriber: a bitmap over each
/// channel's sequence numbers.
pub struct Checker {
    seen: Vec<Vec<u64>>,
    highest: Vec<Option<u64>>,
    pub unique: u64,
    pub duplicates: u64,
    pub inversions: u64,
}

impl Checker {
    fn new(channels: usize) -> Checker {
        Checker {
            seen: vec![Vec::new(); channels],
            highest: vec![None; channels],
            unique: 0,
            duplicates: 0,
            inversions: 0,
        }
    }

    fn note(&mut self, channel: usize, seq: u64) {
        let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
        let bits = &mut self.seen[channel];
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        if bits[word] & bit != 0 {
            self.duplicates += 1;
            return;
        }
        bits[word] |= bit;
        self.unique += 1;
        match self.highest[channel] {
            Some(h) if seq < h => self.inversions += 1,
            _ => self.highest[channel] = Some(seq),
        }
    }
}

pub struct DrainOut {
    /// One per parsed subscriber: raw socket or `RoutedClient` handle.
    pub checkers: Vec<Checker>,
    /// Bytes left on raw subscriber sockets that take frames by length: a
    /// whole number of frames arrived exactly when this is all zero.
    pub split_bytes: Vec<usize>,
    /// Latencies (ns) by the second their publication was due in; kept
    /// for the seconds of open-loop phases only.
    pub lat_windows: Vec<Vec<u32>>,
    /// Deliveries by the second they were received in.
    pub recv_windows: Vec<u64>,
    /// `(acknowledgements so far, when)` per raw publisher: one entry per
    /// read in a traced run, only the latest otherwise.
    pub ack_logs: Vec<Vec<(u64, u64)>>,
    pub refused: u64,
    pub protocol_errors: u64,
    pub spans: Vec<Span>,
}

pub struct Drain<'a> {
    w: &'a Workload,
    shared: &'a Shared,
    traced: bool,
    poll: Poll,
    events: Events,
    /// Tokens of the sockets the last poll found readable.
    ready: Vec<usize>,
    /// Whether second `s` of the run belongs to an open-loop phase, whose
    /// latencies are kept.
    timed_windows: Vec<bool>,
    raws: Vec<RawSubscriber>,
    acks: Vec<Inbound>,
    handles: Vec<Arc<RoutedClient>>,
    next_handle_poll_ns: u64,
    per_handle: Vec<u64>,
    frame_len: usize,
    /// Scratch for the stamps of one read's frames.
    stamps: Vec<Option<(u64, u64)>>,
    rec: Recorder,
    out: DrainOut,
}

impl<'a> Drain<'a> {
    pub fn new(
        w: &'a Workload,
        shared: &'a Shared,
        traced: bool,
        raws: Vec<RawSubscriber>,
        acks: Vec<Inbound>,
        handles: Vec<Arc<RoutedClient>>,
        timed_windows: Vec<bool>,
    ) -> io::Result<Drain<'a>> {
        let poll = Poll::new()?;
        for (i, r) in raws.iter().enumerate() {
            poll.registry()
                .register(&r.inbound.stream, Token(i), Interest::READABLE)?;
        }
        for (p, a) in acks.iter().enumerate() {
            poll.registry()
                .register(&a.stream, Token(ACK_TOKEN_BASE + p), Interest::READABLE)?;
        }
        let subscribers = if w.routed() {
            handles.len()
        } else {
            raws.len()
        };
        Ok(Drain {
            w,
            shared,
            traced,
            poll,
            events: Events::with_capacity(EVENTS_PER_STEP),
            ready: Vec::with_capacity(EVENTS_PER_STEP),
            next_handle_poll_ns: 0,
            per_handle: vec![0; handles.len()],
            frame_len: raw::push_frame_len(&w.channels[0], w.payload_len),
            stamps: Vec::new(),
            rec: Recorder::new("bm-gen", 2),
            out: DrainOut {
                checkers: (0..subscribers)
                    .map(|_| Checker::new(w.channels.len()))
                    .collect(),
                split_bytes: Vec::new(),
                lat_windows: vec![Vec::new(); timed_windows.len()],
                recv_windows: vec![0; timed_windows.len()],
                ack_logs: vec![Vec::new(); acks.len()],
                refused: 0,
                protocol_errors: 0,
                spans: Vec::new(),
            },
            timed_windows,
            raws,
            acks,
            handles,
        })
    }

    /// Publications that have finished, as the closed loop counts them:
    /// acknowledged on the raw publisher socket, or delivered to every
    /// subscriber through the routers.
    pub fn finished_publications(&self) -> u64 {
        if self.w.routed() {
            self.per_handle.iter().copied().min().unwrap_or(0)
        } else {
            self.out.ack_logs[0].last().map_or(0, |&(n, _)| n)
        }
    }

    /// Books one delivery; returns the publication id when it was sampled.
    fn deliver(
        &mut self,
        sub: usize,
        channel: usize,
        due: u64,
        word: u64,
        recv: u64,
    ) -> Option<u64> {
        if word == SETUP_SEQ || channel >= self.w.channels.len() {
            return None;
        }
        let seq = word & !SAMPLED_BIT;
        self.out.checkers[sub].note(channel, seq);
        let lat = recv.saturating_sub(due);
        if lat > LATENCY_LIMIT_NS {
            self.shared.over_limit.fetch_add(1, Relaxed);
        }
        let window = (due / SEC) as usize;
        if self.timed_windows.get(window) == Some(&true) {
            self.out.lat_windows[window].push(lat.min(u32::MAX as u64) as u32);
        }
        self.count_received(recv, 1);
        (word & SAMPLED_BIT != 0).then(|| publication_id(channel, seq))
    }

    fn count_received(&mut self, recv: u64, n: u64) {
        if let Some(w) = self.out.recv_windows.get_mut((recv / SEC) as usize) {
            *w += n;
        }
        self.shared.deliveries.fetch_add(n, Relaxed);
    }

    /// One readable raw subscriber socket: one `read`, then every whole
    /// frame it completed. Returns `false` once the socket is of no more
    /// use (the broker closed it, which no workload here provokes).
    fn on_raw(&mut self, i: usize) -> bool {
        let read_start = self.shared.now_ns();
        match self.raws[i].inbound.fill() {
            Ok(0) => {
                self.out.protocol_errors += 1;
                return false;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return true
            }
            Err(_) => {
                self.out.protocol_errors += 1;
                return false;
            }
        }
        let recv = self.shared.now_ns();
        let role = self.raws[i].role;
        if let RawRole::Subscriber { sub, parsed: false } = role {
            // Every frame on this socket has the same length, and its
            // payload ends two bytes before the frame does: read the stamp
            // where it must be instead of decoding.
            let (frame_len, payload_len) = (self.frame_len, self.w.payload_len);
            let frames = self.raws[i].inbound.take_whole(frame_len);
            let mut stamps = std::mem::take(&mut self.stamps);
            stamps.extend(frames.chunks_exact(frame_len).map(|f| {
                let well_formed = f.starts_with(b"*3\r\n") && f.ends_with(b"\r\n");
                raw::read_stamp(&f[frame_len - 2 - payload_len..]).filter(|_| well_formed)
            }));
            for stamp in stamps.drain(..) {
                match stamp {
                    Some((due, word)) => {
                        self.deliver(sub, 0, due, word, recv);
                    }
                    None => self.out.protocol_errors += 1,
                }
            }
            self.stamps = stamps;
            return true;
        }
        loop {
            let t0 = if self.traced { self.shared.now_ns() } else { 0 };
            let frame = match self.raws[i].inbound.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    self.out.protocol_errors += 1;
                    break;
                }
            };
            let t1 = if self.traced { self.shared.now_ns() } else { 0 };
            let Some((b"message", channel, Some(payload))) = as_push(&frame) else {
                continue;
            };
            let sampled = match role {
                RawRole::Subscriber { sub, .. } => {
                    let (Some(ch), Some((due, word))) =
                        (channel_index(channel), raw::read_stamp(payload))
                    else {
                        self.out.protocol_errors += 1;
                        continue;
                    };
                    self.deliver(sub, ch, due, word, recv)
                }
                RawRole::Tap { .. } if channel.starts_with(b"bm-probe") => {
                    raw::read_stamp(payload).map(|(_, word)| PROBE_BASE + (word & !SAMPLED_BIT) + 1)
                }
                RawRole::Tap { .. } => {
                    // Routed payloads carry the wire-id header; sidecars'
                    // control frames share the channel and are not ours.
                    let body = parse_payload(payload).1;
                    if body.len() != self.w.payload_len || ControlFrame::decode(body).is_some() {
                        continue;
                    }
                    if let (Some(ch), Some((_, word))) =
                        (channel_index(channel), raw::read_stamp(body))
                    {
                        if word != SETUP_SEQ && word & SAMPLED_BIT != 0 {
                            let publication = publication_id(ch, word & !SAMPLED_BIT);
                            let root = trace::root_id(publication);
                            self.rec.span("tap.recv", root, publication, recv, recv);
                        }
                    }
                    None
                }
            };
            if let Some(publication) = sampled {
                let root = trace::root_id(publication);
                let r = self
                    .rec
                    .span("broker.read", root, publication, read_start, t1);
                self.rec.span("resp.decode", r, publication, t0, t1);
            }
        }
        true
    }

    /// One readable publisher socket: count the acknowledgements. Returns
    /// `false` once the socket is closed.
    fn on_acks(&mut self, p: usize) -> bool {
        match self.acks[p].fill() {
            Ok(0) => {
                self.out.protocol_errors += 1;
                return false;
            }
            Ok(_) => {}
            Err(_) => return true,
        }
        let recv = self.shared.now_ns();
        let mut acked = 0;
        loop {
            match self.acks[p].next_frame() {
                Ok(Some(Value::Integer(_))) => acked += 1,
                Ok(Some(_)) => self.out.refused += 1,
                Ok(None) => break,
                Err(_) => {
                    self.out.protocol_errors += 1;
                    break;
                }
            }
        }
        let log = &mut self.out.ack_logs[p];
        let total = log.last().map_or(0, |&(n, _)| n) + acked;
        if !self.traced {
            log.clear();
        }
        log.push((total, recv));
        true
    }

    /// Takes what each `RoutedClient` handle has queued, a bounded number
    /// per handle so one busy subscriber cannot hold up the others'
    /// receive stamps. Returns whether any had a message.
    fn poll_handles(&mut self) -> bool {
        let mut any = false;
        for h in 0..self.handles.len() {
            let mut got = 0;
            let mut polls = 0;
            while got < MESSAGES_PER_STEP {
                let t0 = self.shared.now_ns();
                polls += 1;
                let Some(msg) = self.handles[h].try_message() else {
                    break;
                };
                let t1 = self.shared.now_ns();
                got += 1;
                let (Some(ch), Some((due, word))) = (
                    channel_index(msg.channel.as_bytes()),
                    raw::read_stamp(&msg.payload),
                ) else {
                    self.out.protocol_errors += 1;
                    continue;
                };
                if word != SETUP_SEQ {
                    self.per_handle[h] += 1;
                }
                if let Some(publication) = self.deliver(h, ch, due, word, t1) {
                    let root = trace::root_id(publication);
                    self.rec
                        .span("router.try_message", root, publication, t0, t1);
                }
            }
            self.shared.polls.fetch_add(polls, Relaxed);
            self.shared.poll_hits.fetch_add(got, Relaxed);
            any |= got > 0;
        }
        any
    }

    /// Receives whatever has arrived, without waiting. Returns whether
    /// anything had.
    pub fn step(&mut self) -> io::Result<bool> {
        self.ready.clear();
        // An untraced `routed_*` run holds no socket of the benchmark's
        // own: no system call per turn for an empty set.
        if !(self.raws.is_empty() && self.acks.is_empty()) {
            self.poll.poll(&mut self.events, Some(Duration::ZERO))?;
            self.ready.extend(self.events.iter().map(|e| e.token().0));
        }
        let mut any = !self.ready.is_empty();
        for k in 0..self.ready.len() {
            let token = self.ready[k];
            let open = if token >= ACK_TOKEN_BASE {
                self.on_acks(token - ACK_TOKEN_BASE)
            } else {
                self.on_raw(token)
            };
            if !open {
                let stream = if token >= ACK_TOKEN_BASE {
                    &self.acks[token - ACK_TOKEN_BASE].stream
                } else {
                    &self.raws[token].inbound.stream
                };
                self.poll.registry().deregister(stream)?;
            }
        }
        if !self.handles.is_empty() {
            let now = self.shared.now_ns();
            if now >= self.next_handle_poll_ns {
                self.next_handle_poll_ns = now + HANDLE_POLL_GAP_NS;
                any |= self.poll_handles();
            }
        }
        Ok(any)
    }

    pub fn finish(mut self) -> DrainOut {
        self.out.spans = self.rec.spans;
        self.out.split_bytes = self.raws.iter().map(|r| r.inbound.pending()).collect();
        self.out
    }
}
