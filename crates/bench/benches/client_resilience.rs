//! Client resilience benchmark: `TcpPubSubClient` → `ChaosProxy` →
//! `TcpBroker` over loopback. Measures (a) publish→deliver round-trip
//! throughput on a clean path and (b) recovery time — reset injection
//! to first post-reconnect delivery — across repeated proxy resets.
//! Prints both series as CSV.
//!
//! ```text
//! cargo bench -p dynamoth-bench --bench client_resilience
//! ```
//!
//! `DYNAMOTH_BENCH_MS` bounds the throughput window (default 1000 ms);
//! `CHAOS_SEED` picks the jitter schedule (default 1).

use std::time::{Duration, Instant};

use dynamoth_pubsub::{ChaosProxy, ClientConfig, TcpBroker, TcpPubSubClient, Timing};

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn cfg(seed: u64) -> ClientConfig {
    ClientConfig {
        timing: Timing::new(Duration::from_millis(20), Duration::from_secs(1), 3)
            .expect("valid timing"),
        tick: Duration::from_millis(2),
        seed: Some(seed),
        ..ClientConfig::default()
    }
}

fn main() {
    let window = Duration::from_millis(env_u64("DYNAMOTH_BENCH_MS", 1_000));
    let seed = env_u64("CHAOS_SEED", 1);

    let broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
    let proxy = ChaosProxy::spawn(broker.local_addr(), seed).expect("spawn proxy");
    let sub = TcpPubSubClient::connect_with(proxy.local_addr(), cfg(seed ^ 1)).expect("subscriber");
    sub.subscribe("bench");
    let publisher =
        TcpPubSubClient::connect_with(proxy.local_addr(), cfg(seed ^ 2)).expect("publisher");
    let settle = Instant::now() + Duration::from_secs(10);
    while broker.subscription_count() != 1 {
        assert!(Instant::now() < settle, "subscription never registered");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Throughput: keep a bounded number of publications in flight and
    // count deliveries for the window.
    const IN_FLIGHT: u64 = 64;
    let payload = vec![b'x'; 64];
    let mut published = 0u64;
    let mut delivered = 0u64;
    let start = Instant::now();
    while start.elapsed() < window {
        while published - delivered < IN_FLIGHT {
            publisher.publish("bench", &payload);
            published += 1;
        }
        if sub.message_timeout(Duration::from_millis(100)).is_some() {
            delivered += 1;
        }
        while sub.try_message().is_some() {
            delivered += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    println!("series,metric,value");
    println!("throughput,msgs_per_sec,{:.0}", delivered as f64 / secs);

    // Recovery: reset every proxied connection, then measure how long
    // until a fresh publication makes it through the reconnected +
    // resubscribed path.
    for round in 0..5 {
        while sub.try_message().is_some() {}
        proxy.reset_all();
        let injected = Instant::now();
        let marker = format!("recovery-{round}");
        let deadline = injected + Duration::from_secs(30);
        let mut recovered = None;
        while recovered.is_none() {
            assert!(Instant::now() < deadline, "client never recovered");
            publisher.publish("bench", marker.as_bytes());
            let round_end = Instant::now() + Duration::from_millis(100);
            while Instant::now() < round_end {
                let Some(msg) = sub.message_timeout(Duration::from_millis(20)) else {
                    continue;
                };
                if msg.payload == marker.as_bytes() {
                    recovered = Some(injected.elapsed());
                    break;
                }
            }
        }
        println!(
            "recovery,reset_to_delivery_ms,{:.1}",
            recovered.expect("recovered").as_secs_f64() * 1e3
        );
    }

    sub.shutdown();
    publisher.shutdown();
    proxy.shutdown();
    broker.shutdown();
}
