//! Criterion micro-benchmarks of the middleware hot paths: consistent
//! hashing lookups, plan resolution, the client publish path, duplicate
//! suppression, and the two load-balancing algorithms. These are not
//! paper figures; they document the cost of the mechanisms that run per
//! message (lookups, dedup) versus per rebalance (Algorithms 1 and 2).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use dynamoth_core::balancer::channel_level;
use dynamoth_core::balancer::estimator::LoadView;
use dynamoth_core::balancer::high_load;
use dynamoth_core::{
    ChannelAggregate, ChannelId, ChannelMapping, ChannelTick, DynamothClient, DynamothConfig,
    LlaReport, MetricsStore, Plan, Ring, ServerId,
};
use dynamoth_sim::{NodeId, SimRng, SimTime};

fn sid(i: usize) -> ServerId {
    ServerId(NodeId::from_index(i))
}

fn servers(n: usize) -> Vec<ServerId> {
    (0..n).map(sid).collect()
}

fn bench_ring(c: &mut Criterion) {
    let ring = Ring::new(&servers(8), 100);
    let mut i = 0u64;
    c.bench_function("ring_lookup", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(ring.server_for(ChannelId(i % 10_000)))
        })
    });
}

fn bench_plan_resolve(c: &mut Criterion) {
    let ring = Ring::new(&servers(8), 100);
    let mut plan = Plan::bootstrap();
    for ch in 0..100 {
        plan.set(
            ChannelId(ch),
            ChannelMapping::Single(sid((ch % 8) as usize)),
        );
    }
    let mut i = 0u64;
    c.bench_function("plan_resolve_mapped", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(plan.resolve(ChannelId(i % 100), &ring))
        })
    });
    c.bench_function("plan_resolve_fallback", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(plan.resolve(ChannelId(1_000 + i % 1_000), &ring))
        })
    });
}

fn bench_client_publish(c: &mut Criterion) {
    let ring = Arc::new(Ring::new(&servers(8), 100));
    let cfg = Arc::new(DynamothConfig::default());
    let mut client = DynamothClient::new(NodeId::from_index(99), ring, cfg);
    let mut rng = SimRng::new(1);
    c.bench_function("client_publish", |b| {
        b.iter(|| {
            let (id, out) = client.publish(SimTime::ZERO, &mut rng, ChannelId(7), 600);
            black_box((id, out))
        })
    });
}

fn bench_dedup(c: &mut Criterion) {
    let ring = Arc::new(Ring::new(&servers(1), 16));
    let cfg = Arc::new(DynamothConfig::default());
    c.bench_function("client_dedup_delivery", |b| {
        b.iter_batched(
            || {
                (
                    DynamothClient::new(
                        NodeId::from_index(99),
                        Arc::clone(&ring),
                        Arc::clone(&cfg),
                    ),
                    SimRng::new(1),
                )
            },
            |(mut client, mut rng)| {
                for seq in 0..1_000u64 {
                    let p = dynamoth_core::Publication {
                        channel: ChannelId(1),
                        id: dynamoth_core::MessageId {
                            origin: NodeId::from_index(1),
                            seq,
                        },
                        payload: 100,
                        sent_at: SimTime::ZERO,
                        publisher: NodeId::from_index(1),
                        hops: 0,
                    };
                    black_box(client.on_message(
                        SimTime::ZERO,
                        &mut rng,
                        NodeId::from_index(0),
                        dynamoth_core::Msg::Deliver(p),
                    ));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn synthetic_store(n_servers: usize, n_channels: usize) -> MetricsStore {
    let mut store = MetricsStore::new(3);
    for tick in 0..3 {
        for s in 0..n_servers {
            let channels: Vec<(ChannelId, ChannelTick)> = (0..n_channels)
                .filter(|ch| ch % n_servers == s)
                .map(|ch| {
                    (
                        ChannelId(ch as u64),
                        ChannelTick {
                            publications: 30,
                            deliveries: 300 + (ch as u64 * 17) % 900,
                            bytes_in: 20_000,
                            bytes_out: 200_000 + (ch as u64 * 31_337) % 800_000,
                            publishers: 10,
                            subscribers: 10,
                        },
                    )
                })
                .collect();
            let egress: u64 = channels.iter().map(|(_, t)| t.bytes_out).sum();
            store.record(LlaReport {
                server: sid(s),
                tick,
                measured_egress_bytes: egress,
                capacity_bytes: 8_000_000.0,
                cpu_busy_micros: 0,
                channels,
            });
        }
    }
    store
}

fn bench_algorithms(c: &mut Criterion) {
    let cfg = DynamothConfig::default();
    let agg = ChannelAggregate {
        publications_per_tick: 2_000.0,
        subscribers: 1.0,
        deliveries_per_tick: 2_000.0,
        bytes_out_per_tick: 4_000_000.0,
        publishers: 200.0,
    };
    c.bench_function("algorithm1_decide", |b| {
        b.iter(|| black_box(channel_level::decide(&agg, &cfg)))
    });

    let store = synthetic_store(8, 100);
    let active = servers(8);
    c.bench_function("load_view_build_8s_100c", |b| {
        b.iter(|| {
            black_box(LoadView::from_store(
                &store,
                &active,
                cfg.capacity_per_tick(),
            ))
        })
    });

    let ring = Ring::new(&active, 100);
    c.bench_function("algorithm2_rebalance_8s_100c", |b| {
        b.iter_batched(
            || LoadView::from_store(&store, &active, 1_000_000.0), // overloaded
            |mut view| {
                black_box(high_load::rebalance(
                    &Plan::bootstrap(),
                    &mut view,
                    &ring,
                    &cfg,
                    &[],
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

/// One channel, `n_subs` subscribers, 8 publishers firing in lock-step
/// (so same-instant bursts reach the server and the batch path forms
/// real multi-entry batches). Returns the cluster plus the subscriber
/// nodes for delivery accounting.
fn fanout_cluster(n_subs: usize, batching: bool) -> (dynamoth_core::Cluster, Vec<NodeId>) {
    use dynamoth_core::{BalancerStrategy, Cluster, ClusterConfig};
    use dynamoth_net::CloudTransportConfig;
    use dynamoth_sim::SimDuration;
    use dynamoth_workloads::{micro, Publisher, Subscriber};

    let mut cluster = Cluster::build(ClusterConfig {
        pool_size: 1,
        initial_active: 1,
        strategy: BalancerStrategy::Manual,
        transport: CloudTransportConfig::fast_lan(),
        dynamoth: DynamothConfig {
            delivery_batching: batching,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut subs = Vec::with_capacity(n_subs);
    for _ in 0..n_subs {
        let node = NodeId::from_index(cluster.world.node_count());
        let client = cluster.client_library(node);
        let actor = Subscriber::new(client, ChannelId(0), cluster.trace.clone());
        cluster.add_client(Box::new(actor));
        cluster
            .world
            .schedule_timer(node, SimTime::ZERO, micro::TAG_START);
        subs.push(node);
    }
    for _ in 0..8 {
        let node = NodeId::from_index(cluster.world.node_count());
        let client = cluster.client_library(node);
        let actor = Publisher::new(client, ChannelId(0), 10.0, 200);
        cluster.add_client(Box::new(actor));
        // No stagger: all eight publish at the very same instants.
        cluster
            .world
            .schedule_timer(node, SimTime::from_secs(1), micro::TAG_START);
    }
    cluster.run_for(SimDuration::from_secs(2)); // subscribe + warm up
    (cluster, subs)
}

/// The fan-out fast path: one simulated second of a 1-channel burst
/// workload, per-message vs batched delivery, at increasing fan-out.
/// Throughput is simulated-work per wall second, so the batched path's
/// advantage is the event/allocation volume it avoids.
fn bench_fanout(c: &mut Criterion) {
    use dynamoth_sim::SimDuration;
    use dynamoth_workloads::Subscriber;

    for &n_subs in &[10usize, 100, 1_000] {
        for (label, batching) in [("per_message", false), ("batched", true)] {
            c.bench_function(&format!("fanout_1ch_{n_subs}subs_{label}"), |b| {
                b.iter_batched(
                    || fanout_cluster(n_subs, batching).0,
                    |mut cluster| {
                        cluster.run_for(SimDuration::from_secs(1));
                        black_box(cluster.world.stats())
                    },
                    BatchSize::PerIteration,
                )
            });
        }
    }

    // Ablation sanity check (the knob must not change outcomes): same
    // workload, both knob positions, identical delivery counts and
    // duplicate-suppression statistics.
    let totals = |batching: bool| {
        let (mut cluster, subs) = fanout_cluster(100, batching);
        cluster.run_for(SimDuration::from_secs(3));
        let mut delivered = 0u64;
        let mut duplicates = 0u64;
        for &s in &subs {
            let sub: &Subscriber = cluster.world.actor(s).unwrap();
            delivered += sub.received();
            duplicates += sub.client().stats().duplicates_suppressed;
        }
        (delivered, duplicates)
    };
    assert_eq!(
        totals(true),
        totals(false),
        "delivery batching changed observable outcomes"
    );
}

fn bench_simulation_throughput(c: &mut Criterion) {
    use dynamoth_core::{Cluster, ClusterConfig};
    use dynamoth_net::CloudTransportConfig;
    use dynamoth_sim::SimDuration;
    use dynamoth_workloads::setup::spawn_hot_channel;

    c.bench_function("sim_one_second_100clients", |b| {
        b.iter_batched(
            || {
                let mut cluster = Cluster::build(ClusterConfig {
                    pool_size: 3,
                    initial_active: 3,
                    transport: CloudTransportConfig::fast_lan(),
                    ..Default::default()
                });
                spawn_hot_channel(&mut cluster, ChannelId(0), 50, 10.0, 200, 50, SimTime::ZERO);
                cluster.run_for(SimDuration::from_secs(2)); // warm up
                cluster
            },
            |mut cluster| {
                cluster.run_for(SimDuration::from_secs(1));
                black_box(cluster.world.stats())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_ring,
    bench_plan_resolve,
    bench_client_publish,
    bench_dedup,
    bench_algorithms,
    bench_fanout,
    bench_simulation_throughput
);
criterion_main!(benches);
