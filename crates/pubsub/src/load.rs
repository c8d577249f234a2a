//! Broker-side load measurement — the TCP tier's Local Load Analyzer
//! (§III-A of the paper), which the paper registers "as an observer on
//! every channel".
//!
//! The counters live where the channel lives: every entry of the
//! broker's subscription index (`shard.rs`) carries one set of
//! **cumulative relaxed atomics** (publications, deliveries, bytes
//! in/out). PUBLISH resolves its channel once and bumps the counters of
//! the entry it already holds — no second map, no broker-wide counter.
//!
//! Harvesting ([`TcpBroker::load_report`](crate::TcpBroker::load_report))
//! walks the index once and diffs each entry's counters against that
//! entry's snapshot from the previous harvest. Because every counter is
//! monotone and each harvest telescopes against the last, **every
//! increment is counted in exactly one report** — concurrent publishes
//! during a harvest land either in this report or the next, never in
//! both and never nowhere. The subscriber gauge is read in the same
//! pass, so channels with subscribers but no traffic still appear
//! (exactly once) and the balancer sees them. A report's broker totals
//! are the sums of its per-channel deltas.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::balance::metrics::ChannelTick;

/// Cumulative per-channel counters, bumped with relaxed ordering on the
/// publish hot path.
#[derive(Default)]
pub(crate) struct LoadCounters {
    publications: AtomicU64,
    deliveries: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl LoadCounters {
    /// Records one publication that carried `bytes_in` in, fanned out
    /// `bytes_out` of encoded frames and reached `delivered` outboxes.
    pub fn note(&self, bytes_in: u64, bytes_out: u64, delivered: u64) {
        self.publications.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        if delivered > 0 {
            self.deliveries.fetch_add(delivered, Ordering::Relaxed);
            self.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        }
    }

    pub fn read(&self) -> Totals {
        Totals {
            publications: self.publications.load(Ordering::Relaxed),
            deliveries: self.deliveries.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of one channel's cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Totals {
    publications: u64,
    deliveries: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl Totals {
    /// The interval since `last`, with the channel's current subscriber
    /// gauge.
    pub fn delta_since(&self, last: &Totals, subscribers: u32) -> ChannelTick {
        ChannelTick {
            publications: self.publications - last.publications,
            deliveries: self.deliveries - last.deliveries,
            bytes_in: self.bytes_in - last.bytes_in,
            bytes_out: self.bytes_out - last.bytes_out,
            // Distinct-publisher counting would need a per-channel set
            // on the hot path; the live balancing algorithms read
            // publications and subscribers, not publishers.
            publishers: 0,
            subscribers,
        }
    }
}

/// One harvest interval of broker load, as produced by
/// [`TcpBroker::load_report`](crate::TcpBroker::load_report). All
/// counter fields are **deltas** since the previous report; the
/// per-channel `subscribers` field is a current gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokerLoadReport {
    /// Monotone report number (0-based).
    pub tick: u64,
    /// Bytes of encoded push frames handed to subscriber outboxes this
    /// interval — the `M_i` numerator of the load ratio.
    pub egress_bytes: u64,
    /// Bytes of publication payloads (plus channel names) received.
    pub ingress_bytes: u64,
    /// Push frames handed to subscriber outboxes.
    pub sent_messages: u64,
    /// Per-channel deltas, sorted by channel name. Every channel with
    /// traffic this interval or with a current subscriber appears
    /// exactly once.
    pub channels: Vec<(String, ChannelTick)>,
}

impl BrokerLoadReport {
    /// Report number `tick` over `channels`, sorted by name, with the
    /// broker totals summed from them.
    pub(crate) fn new(tick: u64, mut channels: Vec<(String, ChannelTick)>) -> BrokerLoadReport {
        channels.sort_by(|a, b| a.0.cmp(&b.0));
        let sum = |f: fn(&ChannelTick) -> u64| channels.iter().map(|(_, t)| f(t)).sum();
        BrokerLoadReport {
            tick,
            egress_bytes: sum(|t| t.bytes_out),
            ingress_bytes: sum(|t| t.bytes_in),
            sent_messages: sum(|t| t.deliveries),
            channels,
        }
    }
}
