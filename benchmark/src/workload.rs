//! The four workloads and the system under test each one runs against.
//!
//! The system is fixed for every workload: in-process brokers with one I/O
//! loop (this host has two cores; multi-loop scaling is not measurable
//! here), and routers, clients and sidecars on their defaults. Only
//! `io_loops` and `seed` are ever named, so a later change that deletes a
//! tuning knob does not have to edit the benchmark.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    channel_id_of, install_channel, BrokerConfig, DispatcherSidecar, Ring, RoutedClient,
    RouterConfig, ServerId, SidecarConfig, TcpBroker, DEFAULT_VNODES,
};

use crate::raw::{self, Inbound};
use crate::sched::ChannelChoice;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BrokerFanout,
    BrokerUnicast,
    RoutedSteady,
    RoutedMigration,
}

/// One workload: the inputs, not the program's settings.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Open-loop rates of `r1` and `r2`, publications per second.
    pub r1: f64,
    pub r2: f64,
    /// Closed-loop window of `cl`; `None` when the workload has no `cl`.
    pub cl_in_flight: Option<u64>,
    pub payload_len: usize,
    pub channels: Vec<String>,
    pub choice: ChannelChoice,
    /// Subscribers every publication is owed to.
    pub fanout: usize,
}

pub const WORKLOAD_NAMES: [&str; 4] = [
    "broker_fanout",
    "broker_unicast",
    "routed_steady",
    "routed_migration",
];

const BROKER_SUBSCRIBERS: usize = 64;
const ROUTED_SUBSCRIBERS: usize = 4;
const ROUTED_BROKERS: usize = 3;

fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}-{i:03}")).collect()
}

pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "broker_fanout" => Workload {
            name: "broker_fanout",
            why: "one channel, 64 subscriber sockets, 64 B: per-delivery cost (snapshot, outbox push, writev coalescing)",
            kind: Kind::BrokerFanout,
            r1: 2_000.0,
            r2: 3_000.0,
            cl_in_flight: Some(32),
            payload_len: 64,
            channels: names("fan", 1),
            choice: ChannelChoice::RoundRobin,
            fanout: BROKER_SUBSCRIBERS,
        },
        "broker_unicast" => Workload {
            name: "broker_unicast",
            why: "64 channels of one subscriber, 16 B: per-publish cost (parse, shard lookup, sequence, ack, one wake-up per frame), nothing to coalesce",
            kind: Kind::BrokerUnicast,
            r1: 5_000.0,
            r2: 20_000.0,
            cl_in_flight: Some(32),
            payload_len: raw::STAMP_LEN,
            channels: names("uni", BROKER_SUBSCRIBERS),
            choice: ChannelChoice::RoundRobin,
            fanout: 1,
        },
        "routed_steady" => Workload {
            name: "routed_steady",
            why: "3 brokers, idle sidecars, RoutedClient publisher and 4 subscribers on 12 channels: the whole client path (worker tick, router pump, dedup)",
            kind: Kind::RoutedSteady,
            r1: 1_000.0,
            r2: 16_000.0,
            cl_in_flight: Some(2_048),
            payload_len: 64,
            channels: names("tile", 12),
            choice: ChannelChoice::Uniform,
            fanout: ROUTED_SUBSCRIBERS,
        },
        "routed_migration" => Workload {
            name: "routed_migration",
            why: "routed_steady plus one channel migration per second: wrong-home detection, switch/MOVED, forwarding, grace double subscription, cross-broker dedup",
            kind: Kind::RoutedMigration,
            r1: 1_000.0,
            r2: 16_000.0,
            cl_in_flight: None,
            payload_len: 64,
            channels: names("tile", 12),
            choice: ChannelChoice::Uniform,
            fanout: ROUTED_SUBSCRIBERS,
        },
        _ => return None,
    })
}

impl Workload {
    pub fn routed(&self) -> bool {
        matches!(self.kind, Kind::RoutedSteady | Kind::RoutedMigration)
    }
}

/// Index of a benchmark channel: its three-digit suffix.
pub fn channel_index(name: &[u8]) -> Option<usize> {
    let digits = name.get(name.len().checked_sub(3)?..)?;
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// The channel a traced `routed_*` run sends its raw probe publications
/// on, one per broker.
pub fn probe_channel(broker: usize) -> String {
    format!("bm-probe-{broker:03}")
}

/// The write half of a raw publisher socket (the generator's), whose
/// acknowledgements the drain thread reads from the other half.
pub struct RawPublisher {
    pub stream: TcpStream,
    pub acks: Inbound,
}

impl RawPublisher {
    fn connect(addr: SocketAddr) -> io::Result<RawPublisher> {
        let stream = raw::connect(addr)?;
        let acks = Inbound::new(stream.try_clone()?);
        Ok(RawPublisher { stream, acks })
    }
}

/// What a raw subscriber socket is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawRole {
    /// Subscriber `sub` of a `broker_*` workload; `parsed` sockets decode
    /// every frame, the others take frames by their fixed length.
    Subscriber { sub: usize, parsed: bool },
    /// The tap on broker `broker` of a traced `routed_*` run.
    Tap { broker: usize },
}

pub struct RawSubscriber {
    pub role: RawRole,
    pub inbound: Inbound,
}

/// The running system plus the benchmark's own sockets into it.
pub struct Sut {
    pub brokers: Vec<TcpBroker>,
    pub sidecars: Vec<DispatcherSidecar>,
    pub publisher: Option<Arc<RoutedClient>>,
    pub subscribers: Vec<Arc<RoutedClient>>,
    pub raw_publishers: Vec<RawPublisher>,
    pub raw_subscribers: Vec<RawSubscriber>,
    /// Directory index of each channel's home broker.
    pub homes: Vec<usize>,
}

/// What set-up timed on the way: `(span name, start, end)` as offsets from
/// the start of set-up.
pub type SetupSpans = Vec<(&'static str, Duration, Duration)>;

const SETUP_TIMEOUT: Duration = Duration::from_secs(10);
const DRAIN_READ_TIMEOUT: Duration = Duration::from_millis(10);

fn timed_out(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, format!("set-up: {what}"))
}

fn setup_payload(len: usize) -> Vec<u8> {
    let mut payload = vec![b'.'; len];
    raw::write_stamp(&mut payload, 0, raw::SETUP_SEQ);
    payload
}

/// Brings the system up until every subscription is confirmed on the
/// brokers and one publication per channel has reached every subscriber.
/// `traced` adds the taps and probe publishers of a traced `routed_*` run.
pub fn setup(w: &Workload, traced: bool) -> io::Result<(Sut, SetupSpans)> {
    let started = Instant::now();
    let mut spans = SetupSpans::new();
    let n_brokers = if w.routed() { ROUTED_BROKERS } else { 1 };
    let brokers = (0..n_brokers)
        .map(|_| {
            TcpBroker::bind_with(
                "127.0.0.1:0",
                BrokerConfig {
                    io_loops: 1,
                    ..Default::default()
                },
            )
        })
        .collect::<io::Result<Vec<_>>>()?;
    let directory: Vec<SocketAddr> = brokers.iter().map(TcpBroker::local_addr).collect();
    let servers: Vec<ServerId> = (0..n_brokers).map(ServerId::from_index).collect();
    let ring = Ring::new(&servers, DEFAULT_VNODES);
    let homes = w
        .channels
        .iter()
        .map(|c| ring.server_for(channel_id_of(c)).index())
        .collect();
    let mut sut = Sut {
        brokers,
        sidecars: Vec::new(),
        publisher: None,
        subscribers: Vec::new(),
        raw_publishers: Vec::new(),
        raw_subscribers: Vec::new(),
        homes,
    };

    let subscribe_raw = |inbound: &mut Inbound, channel: &str, spans: &mut SetupSpans| {
        let at = started.elapsed();
        let took = inbound.subscribe_blocking(channel)?;
        spans.push(("broker.subscribe", at, at + took));
        io::Result::Ok(())
    };

    if !w.routed() {
        let addr = directory[0];
        // One socket in sixteen decodes its frames on the fan-out (every
        // delivery of a publication is the same frame; the rest read the
        // stamp at its fixed offset); every socket where each carries its
        // own channel.
        let parsed_every = if w.kind == Kind::BrokerFanout { 16 } else { 1 };
        for sub in 0..BROKER_SUBSCRIBERS {
            let stream = raw::connect(addr)?;
            stream.set_read_timeout(Some(SETUP_TIMEOUT))?;
            let mut inbound = Inbound::new(stream);
            subscribe_raw(
                &mut inbound,
                &w.channels[sub % w.channels.len()],
                &mut spans,
            )?;
            sut.raw_subscribers.push(RawSubscriber {
                role: RawRole::Subscriber {
                    sub,
                    parsed: sub % parsed_every == 0,
                },
                inbound,
            });
        }
        let mut publisher = RawPublisher::connect(addr)?;
        publisher
            .acks
            .stream
            .set_read_timeout(Some(SETUP_TIMEOUT))?;
        let mut wire = Vec::new();
        for channel in &w.channels {
            raw::encode_publish(channel, &setup_payload(w.payload_len), &mut wire);
        }
        publisher.stream.write_all(&wire)?;
        publisher.acks.acks_blocking(w.channels.len())?;
        for s in &mut sut.raw_subscribers {
            s.inbound.message_blocking()?;
        }
        sut.raw_publishers.push(publisher);
    } else {
        sut.sidecars = servers
            .iter()
            .map(|&me| DispatcherSidecar::start(me, directory.clone(), SidecarConfig::default()))
            .collect();
        // The routers' seeds are part of the fixed system, not of the
        // generated input: `--seed` never reaches them.
        let router = |seed: u64| {
            Arc::new(RoutedClient::connect(
                directory.clone(),
                RouterConfig {
                    seed: Some(seed),
                    ..Default::default()
                },
            ))
        };
        let subscribing = started.elapsed();
        for s in 0..ROUTED_SUBSCRIBERS {
            let sub = router(0x5B00 + s as u64);
            for channel in &w.channels {
                sub.subscribe(channel);
            }
            sut.subscribers.push(sub);
        }
        let publisher = router(0x9B00);
        if traced {
            for (broker, &addr) in directory.iter().enumerate() {
                let stream = raw::connect(addr)?;
                stream.set_read_timeout(Some(SETUP_TIMEOUT))?;
                let mut inbound = Inbound::new(stream);
                let probe = probe_channel(broker);
                for channel in w.channels.iter().chain([&probe]) {
                    subscribe_raw(&mut inbound, channel, &mut spans)?;
                }
                sut.raw_subscribers.push(RawSubscriber {
                    role: RawRole::Tap { broker },
                    inbound,
                });
                let probe_publisher = RawPublisher::connect(addr)?;
                sut.raw_publishers.push(probe_publisher);
            }
        }
        // Confirmed on the brokers: every subscriber's twelve channels,
        // the taps' if any, and each sidecar's install channel.
        let taps = if traced { n_brokers } else { 0 };
        let want = w.channels.len() * (ROUTED_SUBSCRIBERS + taps);
        let deadline = Instant::now() + SETUP_TIMEOUT;
        loop {
            let have: usize = w
                .channels
                .iter()
                .flat_map(|c| sut.brokers.iter().map(move |b| b.channel_subscribers(c)))
                .sum();
            let sidecars_ready = sut
                .brokers
                .iter()
                .enumerate()
                .all(|(i, b)| b.channel_subscribers(&install_channel(i)) == 1);
            if have == want && sidecars_ready {
                break;
            }
            if Instant::now() > deadline {
                return Err(timed_out("subscriptions never confirmed"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        spans.push(("router.subscribe_ready", subscribing, started.elapsed()));
        let payload = setup_payload(w.payload_len);
        for channel in &w.channels {
            publisher.publish(channel, &payload);
        }
        for sub in &sut.subscribers {
            for _ in &w.channels {
                sub.message_timeout(SETUP_TIMEOUT)
                    .ok_or_else(|| timed_out("warm-up publication never delivered"))?;
            }
        }
        sut.publisher = Some(publisher);
    }
    // From here on the drain thread reads these sockets, and only when
    // epoll says they are readable; the short timeout bounds a spurious
    // wake-up. They stay blocking: `O_NONBLOCK` is shared with the
    // generator's write half of a publisher socket.
    for s in &sut.raw_subscribers {
        s.inbound
            .stream
            .set_read_timeout(Some(DRAIN_READ_TIMEOUT))?;
    }
    for p in &sut.raw_publishers {
        p.acks.stream.set_read_timeout(Some(DRAIN_READ_TIMEOUT))?;
    }
    Ok((sut, spans))
}

impl Sut {
    /// Stops every thread the system started and waits for it.
    pub fn shutdown(self) {
        drop(self.raw_publishers);
        drop(self.raw_subscribers);
        drop(self.publisher);
        drop(self.subscribers);
        for sidecar in self.sidecars {
            sidecar.shutdown();
        }
        for broker in self.brokers {
            broker.shutdown();
        }
    }
}
