//! Conflation × retention interplay: a broker running
//! [`OverflowPolicy::ConflateByChannel`] against a stalled subscriber
//! must (1) deliver strictly increasing sequence numbers on the
//! conflated channel — conflation advances the PR-6 sequence stream, it
//! never reorders it; (2) count every shed frame in
//! `per_connection_drops` so delivered + dropped equals published; (3)
//! spare frames of *other* channels while same-channel victims exist;
//! and (4) leave the retention ring untouched, so a later `DMSEQ1`
//! resume replays exactly the retained suffix with no spurious
//! `DMGAP1`.
//!
//! Deterministic per seed: run with `CHAOS_SEED=<n>` for a different
//! schedule (CI runs two).

use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    BrokerConfig, ChaosProxy, ClientConfig, ClientEvent, Direction, OverflowPolicy, TcpBroker,
    TcpPubSubClient,
};

mod common;

use common::{seed, timing, wait_until, with_deadline};

const FEED: &str = "prices.feed";
const OTHER: &str = "slow.other";
/// Warm-up messages delivered before the stall.
const WARMUP: u64 = 5;
/// Flood messages published into the stall.
const FLOOD: u64 = 2000;
const PAYLOAD: usize = 8 * 1024;

/// The test stalls the subscriber's path for 3 s, which must not read as
/// a dead connection: a 500 ms round-trip bound puts the liveness deadline
/// at 15 s.
fn client_cfg(seed: u64) -> ClientConfig {
    ClientConfig {
        timing: timing(Duration::from_millis(500)),
        tick: Duration::from_millis(5),
        seed: Some(seed),
        ..ClientConfig::default()
    }
}

#[test]
fn conflation_advances_sequences_and_resume_replays_survivors() {
    with_deadline(180, || {
        let seed = seed(0x0D15_EA5E);
        let config = BrokerConfig {
            // Small enough that the flood overflows it by orders of
            // magnitude; holds ~4 payload frames.
            outbox_limit_bytes: 32 * 1024,
            overflow_policy: OverflowPolicy::ConflateByChannel,
            // Large enough to retain the entire run: conflation must
            // shed from outboxes only, never from retention.
            retention_frames: 4096,
            retention_bytes: 64 * 1024 * 1024,
            ..BrokerConfig::default()
        };
        let broker = TcpBroker::bind_with("127.0.0.1:0", config).expect("bind broker");
        let proxy = ChaosProxy::spawn(broker.local_addr(), seed).expect("proxy");

        let sub = TcpPubSubClient::connect_addr(proxy.local_addr(), client_cfg(seed ^ 1));
        sub.subscribe_from(FEED, 0);
        sub.subscribe(OTHER);
        wait_until("subscriptions", Duration::from_secs(10), || {
            broker.channel_subscribers(FEED) == 1 && broker.channel_subscribers(OTHER) == 1
        });

        let publisher = TcpPubSubClient::connect_addr(broker.local_addr(), client_cfg(seed ^ 2));
        let payload = vec![b'x'; PAYLOAD];

        // Warm-up: the subscriber sees the first sequences live. Small
        // frames — a burst of flood-sized ones could overflow the tiny
        // outbox before the reactor flushes and conflate the warm-up
        // itself away.
        for _ in 0..WARMUP {
            publisher.publish(FEED, b"warmup");
        }
        let mut feed_seqs: Vec<u64> = Vec::new();
        let mut other_count = 0u64;
        let drain = |feed_seqs: &mut Vec<u64>, other_count: &mut u64| {
            while let Some(msg) = sub.try_message() {
                match msg.channel.as_str() {
                    FEED => feed_seqs.push(msg.seq.expect("sequenced subscription")),
                    OTHER => *other_count += 1,
                    ch => panic!("unexpected channel {ch}"),
                }
            }
        };
        wait_until("warm-up deliveries", Duration::from_secs(20), || {
            drain(&mut feed_seqs, &mut other_count);
            feed_seqs.len() as u64 >= WARMUP
        });

        // Stall the broker→subscriber path and flood the feed channel.
        // The outbox overflows and conflation sheds stale feed frames;
        // the lone OTHER frame must survive every eviction round.
        let stall = Duration::from_secs(3);
        let stall_over = Instant::now() + stall;
        proxy.stall(Direction::ServerToClient, stall);
        publisher.publish(OTHER, b"sentinel");
        for _ in 0..FLOOD {
            publisher.publish(FEED, &payload);
        }

        // Wait out the stall, then drain until the stream goes quiet
        // for a full second — only then is delivered-vs-dropped
        // accounting settled.
        while Instant::now() < stall_over {
            drain(&mut feed_seqs, &mut other_count);
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut last_progress = Instant::now();
        let mut seen = feed_seqs.len();
        loop {
            drain(&mut feed_seqs, &mut other_count);
            if feed_seqs.len() != seen {
                seen = feed_seqs.len();
                last_progress = Instant::now();
            }
            if last_progress.elapsed() > Duration::from_secs(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        let published = WARMUP + FLOOD;
        // (1) Strictly increasing sequences, starting at the beginning
        // of the stream: skips are allowed (the conflated frames),
        // regressions and repeats are not.
        assert!(!feed_seqs.is_empty());
        assert_eq!(feed_seqs[0], 0, "warm-up must start the stream");
        for w in feed_seqs.windows(2) {
            assert!(w[0] < w[1], "sequence regression: {} then {}", w[0], w[1]);
        }
        let delivered = feed_seqs.len() as u64;
        assert!(
            delivered < published,
            "the stall never overflowed the outbox; nothing was conflated"
        );
        // (2) Conservation: every published feed frame was delivered or
        // counted as dropped on the stalled connection. (OTHER and the
        // control markers flowed before/around the stall; nothing else
        // was shed.)
        let drops: u64 = broker.per_connection_drops().iter().map(|(_, d)| *d).sum();
        assert_eq!(
            delivered + drops,
            published,
            "per_connection_drops does not account for the conflated frames"
        );
        // (3) The foreign channel survived conflation.
        assert_eq!(other_count, 1, "conflation shed a foreign channel's frame");
        // No Gap was surfaced: conflation skips are silent seq advances.
        let mut resumed = 0;
        while let Some(ev) = sub.try_event() {
            match ev {
                ClientEvent::Gap { .. } => panic!("spurious gap event: {ev:?}"),
                ClientEvent::Resumed { .. } => resumed += 1,
                _ => {}
            }
        }
        assert_eq!(resumed, 1, "the initial subscribe_from resume marker");
        // (4) Retention is untouched by outbox conflation: every
        // published frame is still retained.
        let (retained, next_seq) = broker.channel_retention(FEED);
        assert_eq!(retained as u64, published);
        assert_eq!(next_seq, published);

        // A late joiner resumes from a retained sequence: the replay is
        // exactly the retained suffix — contiguous, complete, and
        // without a DMGAP1 (the requested frame survived in retention
        // even though the stalled outbox conflated it away).
        let resume_from = published - 3;
        let resumer = TcpPubSubClient::connect_addr(broker.local_addr(), client_cfg(seed ^ 3));
        resumer.subscribe_from(FEED, resume_from);
        let mut replayed: Vec<u64> = Vec::new();
        let mut resume_done = false;
        wait_until("resume replay", Duration::from_secs(20), || {
            while let Some(msg) = resumer.try_message() {
                replayed.push(msg.seq.expect("sequenced replay"));
            }
            while let Some(ev) = resumer.try_event() {
                match ev {
                    ClientEvent::Gap { .. } => panic!("spurious gap on resume: {ev:?}"),
                    ClientEvent::Resumed { replayed: n, .. } => {
                        assert_eq!(n, 3, "replay must cover exactly the requested suffix");
                        resume_done = true;
                    }
                    _ => {}
                }
            }
            resume_done
        });
        assert_eq!(
            replayed,
            vec![resume_from, resume_from + 1, resume_from + 2]
        );

        sub.shutdown();
        publisher.shutdown();
        resumer.shutdown();
        proxy.shutdown();
        broker.shutdown();
    });
}
