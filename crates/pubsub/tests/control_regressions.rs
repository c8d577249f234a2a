//! Regression tests for control-plane bugs:
//!
//! 1. `DispatcherSidecar` used to `expect()` its broker connections at
//!    startup — an unreachable broker aborted the pump thread. It now
//!    rides the client's reconnect machinery, surfaces an exhausted
//!    retry budget as [`SidecarEvent::PeerUnavailable`], and heals once
//!    the broker is reachable again.
//! 2. `RoutedClient` used to record ring-fallback resolutions at the
//!    same plan version its staleness check compared against, so the
//!    *first* control frame for a never-explicitly-mapped channel could
//!    be dropped as stale and the client stayed wedged on the ring
//!    mapping forever. Fallback entries are now provisional (version 0)
//!    and never shadow a real frame.
//! 3. The pump tore the watch down after a `GaveUp` (`watch = None`) but
//!    later code paths still `unwrap()`ed it — an `install()` landing
//!    during the outage panicked the pump thread, killing the sidecar
//!    for good. The watch accessor now rebuilds the client in place
//!    (`get_or_insert_with`), so no path can observe a missing watch.
//! 4. The pump accepted an install naming a broker outside its
//!    directory — `DMINST1` frames are payload-space input — and the
//!    next publication on that channel indexed past the directory when
//!    forwarding, killing the pump thread. Such installs are now
//!    dropped, as `RoutedClient` already drops such control frames.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    channel_id_of, install_channel, ChannelMapping, ChaosProxy, ClientConfig, ControlFrame,
    DispatcherSidecar, InstallFrame, PlanId, Ring, RoutedClient, RouterConfig, ServerId,
    SidecarConfig, SidecarEvent, TcpBroker, TcpPubSubClient, DEFAULT_VNODES,
};

fn seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE00)
}

/// Hard watchdog: a wedged client, sidecar or broker fails fast.
fn with_deadline(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("test exceeded its {secs}s watchdog deadline")
        }
    }
}

/// Polls `pred` until it holds; panics at the deadline.
fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn sid(i: usize) -> ServerId {
    ServerId::from_index(i)
}

/// The sidecar's broker connections go through a `ChaosProxy` that
/// black-holes mid-test. With a finite retry budget the watch gives up;
/// the sidecar must report `PeerUnavailable` (not panic, not wedge) and
/// must rebuild the watch — subscriptions included — once the path
/// heals. Pre-fix, the `expect()` on the initial connect aborted the
/// pump thread outright.
#[test]
fn sidecar_survives_broker_outage_and_reports_it() {
    with_deadline(120, || {
        let seed = seed();
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
        let proxy = ChaosProxy::spawn(broker.local_addr(), seed).expect("proxy");
        let directory: Vec<SocketAddr> = vec![proxy.local_addr()];

        let cfg = SidecarConfig {
            ttl: Duration::from_secs(10),
            tick: Duration::from_millis(5),
            client: ClientConfig {
                reconnect_base: Duration::from_millis(10),
                reconnect_cap: Duration::from_millis(50),
                connect_timeout: Duration::from_millis(300),
                heartbeat_interval: Duration::from_millis(50),
                liveness_timeout: Duration::from_millis(400),
                tick: Duration::from_millis(5),
                max_reconnect_attempts: Some(2),
                seed: Some(seed),
                ..ClientConfig::default()
            },
        };
        let sidecar = DispatcherSidecar::start(sid(0), directory, cfg);

        // The watch comes up eagerly and subscribes its install channel.
        wait_until("watch subscription", Duration::from_secs(10), || {
            broker.channel_subscribers(&install_channel(0)) >= 1
        });

        // Outage: existing connections die and every reconnect attempt
        // lands in a black hole until the retry budget is spent.
        proxy.set_black_hole(true);
        proxy.reset_all();
        wait_until("PeerUnavailable event", Duration::from_secs(30), || {
            matches!(
                sidecar.try_event(),
                Some(SidecarEvent::PeerUnavailable { broker: 0 })
            )
        });

        // Heal the path: the pump rebuilds the watch from scratch and
        // re-subscribes, with no external kick.
        proxy.set_black_hole(false);
        wait_until("watch resubscription", Duration::from_secs(30), || {
            broker.channel_subscribers(&install_channel(0)) >= 1
        });

        // The sidecar is still fully functional: an install takes
        // effect (the watch subscribes the migrated channel).
        sidecar.install(
            dynamoth_pubsub::ChannelChange {
                channel: "migrant".to_owned(),
                old: ChannelMapping::Single(sid(0)),
                new: ChannelMapping::Single(sid(0)),
            },
            PlanId(1),
        );
        wait_until("post-recovery install", Duration::from_secs(10), || {
            broker.channel_subscribers("migrant") >= 1
        });

        sidecar.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}

/// An `install()` that lands *while the watch is torn down* (its retry
/// budget spent, `watch == None`) used to hit the pump's
/// `self.watch.as_ref().unwrap()` and abort the thread — the sidecar
/// looked alive but never processed another install. The pump must
/// instead rebuild the watch in place, surface the outage as
/// [`SidecarEvent::PeerUnavailable`], and apply the queued install once
/// the path heals.
#[test]
fn install_during_watch_outage_rebuilds_instead_of_panicking() {
    with_deadline(120, || {
        let seed = seed();
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
        let proxy = ChaosProxy::spawn(broker.local_addr(), seed ^ 0xA5).expect("proxy");
        let directory: Vec<SocketAddr> = vec![proxy.local_addr()];

        let cfg = SidecarConfig {
            ttl: Duration::from_secs(30),
            tick: Duration::from_millis(5),
            client: ClientConfig {
                reconnect_base: Duration::from_millis(10),
                reconnect_cap: Duration::from_millis(50),
                connect_timeout: Duration::from_millis(300),
                heartbeat_interval: Duration::from_millis(50),
                liveness_timeout: Duration::from_millis(400),
                tick: Duration::from_millis(5),
                max_reconnect_attempts: Some(2),
                seed: Some(seed),
                ..ClientConfig::default()
            },
        };
        let sidecar = DispatcherSidecar::start(sid(0), directory, cfg);
        wait_until("watch subscription", Duration::from_secs(10), || {
            broker.channel_subscribers(&install_channel(0)) >= 1
        });

        // Spend the watch's retry budget.
        proxy.set_black_hole(true);
        proxy.reset_all();
        wait_until("PeerUnavailable event", Duration::from_secs(30), || {
            matches!(
                sidecar.try_event(),
                Some(SidecarEvent::PeerUnavailable { broker: 0 })
            )
        });

        // The poison pill: an install while the watch is down. Pre-fix
        // this panicked the pump on the unwrap; post-fix it records the
        // channel state and subscribes once the watch is rebuilt.
        sidecar.install(
            dynamoth_pubsub::ChannelChange {
                channel: "outage-install".to_owned(),
                old: ChannelMapping::Single(sid(0)),
                new: ChannelMapping::Single(sid(0)),
            },
            PlanId(1),
        );
        // The pump is still alive and tracking the install.
        wait_until("install recorded", Duration::from_secs(10), || {
            sidecar.stats().active_channels == 1
        });

        proxy.set_black_hole(false);
        wait_until(
            "post-outage watch and install subscriptions",
            Duration::from_secs(30),
            || {
                broker.channel_subscribers(&install_channel(0)) >= 1
                    && broker.channel_subscribers("outage-install") >= 1
            },
        );

        sidecar.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}

/// A `DMINST1` frame whose new home is outside the directory (one
/// broker, `new: Single(5)`) used to be installed like any other; the
/// next publication on the channel then reached `directory[5]` in the
/// forwarding path and the pump thread died, leaving a sidecar that
/// looked alive but never applied another install. The frame must be
/// dropped and the pump must keep serving valid installs.
#[test]
fn install_naming_a_broker_outside_the_directory_is_dropped() {
    with_deadline(60, || {
        let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
        let directory: Vec<SocketAddr> = vec![broker.local_addr()];
        let sidecar = DispatcherSidecar::start(sid(0), directory.clone(), SidecarConfig::default());
        wait_until("watch subscription", Duration::from_secs(10), || {
            broker.channel_subscribers(&install_channel(0)) >= 1
        });

        // Anyone who can publish can send an install frame. The valid
        // frame behind the hostile one is a barrier: frames on one
        // connection arrive in order, so once "ok" is installed the
        // hostile frame has been seen too.
        let outsider = TcpPubSubClient::connect_addr(directory[0], ClientConfig::default());
        let install = |channel: &str, new: usize| InstallFrame {
            plan: PlanId(1),
            channel: channel.to_owned(),
            old: ChannelMapping::Single(sid(0)),
            new: ChannelMapping::Single(sid(new)),
            quarantine: Vec::new(),
        };
        outsider.publish(&install_channel(0), &install("hot", 5).encode());
        outsider.publish(&install_channel(0), &install("ok", 0).encode());
        wait_until("barrier install", Duration::from_secs(10), || {
            broker.channel_subscribers("ok") >= 1
        });

        // Pre-fix the sidecar is now watching "hot" as its old home and
        // this publication panics the pump on `directory[5]`.
        outsider.publish("hot", b"boom");

        sidecar.install(
            dynamoth_pubsub::ChannelChange {
                channel: "later".to_owned(),
                old: ChannelMapping::Single(sid(0)),
                new: ChannelMapping::Single(sid(0)),
            },
            PlanId(1),
        );
        wait_until(
            "install after the hostile frame",
            Duration::from_secs(10),
            || sidecar.stats().active_channels == 2 && broker.channel_subscribers("later") >= 1,
        );
        assert_eq!(broker.channel_subscribers("hot"), 0);

        outsider.shutdown();
        sidecar.shutdown();
        broker.shutdown();
    });
}

/// A channel the router only ever resolved through the ring fallback
/// must still accept its first control frame — even one carrying plan
/// version 0 — and follow later ones. Pre-fix the fallback entry was
/// recorded at the comparison version, so `known >= frame` dropped the
/// frame as stale and the channel never migrated.
#[test]
fn ring_fallback_entries_never_shadow_control_frames() {
    with_deadline(120, || {
        let seed = seed();
        let brokers: Vec<TcpBroker> = (0..2)
            .map(|_| TcpBroker::bind("127.0.0.1:0").expect("bind broker"))
            .collect();
        let directory: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();

        let sub = RoutedClient::connect(
            directory.clone(),
            RouterConfig {
                client: ClientConfig {
                    seed: Some(seed),
                    tick: Duration::from_millis(5),
                    ..ClientConfig::default()
                },
                switch_grace: Duration::from_millis(200),
                seed: Some(seed),
                ..RouterConfig::default()
            },
        );

        const CH: &str = "wanderer";
        let ring: Vec<ServerId> = (0..2).map(sid).collect();
        let home = Ring::new(&ring, DEFAULT_VNODES)
            .server_for(channel_id_of(CH))
            .index();
        let other = 1 - home;

        // Subscribing resolves through the ring: a provisional local
        // entry at version 0 on the ring-chosen home.
        sub.subscribe(CH);
        wait_until(
            "ring-fallback subscription",
            Duration::from_secs(10),
            || brokers[home].channel_subscribers(CH) >= 1,
        );
        assert_eq!(
            sub.local_mapping(CH),
            Some((ChannelMapping::Single(sid(home)), PlanId(0)))
        );

        // A switch frame at the *same* version (0) arrives on the
        // channel — exactly what a freshly restarted balancer's first
        // bootstrap-era frame looks like. It must apply.
        let helper = TcpPubSubClient::connect_addr(directory[home], ClientConfig::default());
        let frame = ControlFrame::Switch {
            plan: PlanId(0),
            mapping: ChannelMapping::Single(sid(other)),
            channel: CH.to_owned(),
            quarantine: Vec::new(),
        };
        let target = (ChannelMapping::Single(sid(other)), PlanId(0));
        wait_until("plan-0 switch applied", Duration::from_secs(20), || {
            helper.publish(CH, &frame.encode());
            std::thread::sleep(Duration::from_millis(20));
            sub.local_mapping(CH).as_ref() == Some(&target)
        });
        assert!(sub.stats().switches_applied >= 1);

        // The subscription really moved: traffic published straight to
        // the new home reaches the subscriber.
        wait_until("subscription on new home", Duration::from_secs(10), || {
            brokers[other].channel_subscribers(CH) >= 1
        });
        let publisher = TcpPubSubClient::connect_addr(directory[other], ClientConfig::default());
        publisher.publish(CH, b"over-here");
        wait_until("delivery via new home", Duration::from_secs(10), || {
            while let Some(msg) = sub.try_message() {
                if msg.payload == b"over-here" {
                    return true;
                }
            }
            false
        });

        // Higher-versioned frames still win over the (still
        // provisional) entry, and genuinely stale ones still drop.
        let upgrade = ControlFrame::Switch {
            plan: PlanId(7),
            mapping: ChannelMapping::Single(sid(home)),
            channel: CH.to_owned(),
            quarantine: Vec::new(),
        };
        let target = (ChannelMapping::Single(sid(home)), PlanId(7));
        wait_until("plan-7 switch applied", Duration::from_secs(20), || {
            publisher.publish(CH, &upgrade.encode());
            std::thread::sleep(Duration::from_millis(20));
            sub.local_mapping(CH).as_ref() == Some(&target)
        });
        let stale = ControlFrame::Switch {
            plan: PlanId(3),
            mapping: ChannelMapping::Single(sid(other)),
            channel: CH.to_owned(),
            quarantine: Vec::new(),
        };
        let before = sub.stats().stale_control_frames;
        publisher.publish(CH, &stale.encode());
        wait_until("stale frame counted", Duration::from_secs(10), || {
            sub.stats().stale_control_frames > before
        });
        assert_eq!(sub.local_mapping(CH), Some(target));

        helper.shutdown();
        publisher.shutdown();
        sub.shutdown();
        for broker in brokers {
            broker.shutdown();
        }
    });
}
