//! Helpers the live-tier suites share: the fault-schedule seed, a
//! watchdog, a poll loop, the deployment [`Timing`] for the round trips
//! a suite's injected faults allow, and the process's threads with their
//! wake-up counts.

// Each suite uses a subset.
#![allow(dead_code)]

use std::sync::mpsc;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{ServerId, Timing};

/// The seed of a suite's proxies and client PRNGs: `CHAOS_SEED=<n>`
/// replays a different, still deterministic, fault schedule (CI runs
/// two); `default` otherwise.
pub fn seed(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Runs `body` on its own thread under a hard watchdog: a wedged client,
/// router, sidecar, reporter, balancer or broker fails the test instead
/// of hanging CI.
pub fn with_deadline(secs: u64, body: impl FnOnce() + Send + 'static) {
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
pub fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

pub fn sid(i: usize) -> ServerId {
    ServerId::from_index(i)
}

/// The timing of a deployment whose round trips stay under `rtt`, on the
/// default report clock. A `ChaosProxy` stall is such a round trip.
pub fn timing(rtt: Duration) -> Timing {
    let d = Timing::default();
    Timing::new(rtt, d.report_interval(), d.suspect_after()).expect("valid timing")
}

/// `(tid, name)` of every live thread of this process.
#[cfg(target_os = "linux")]
pub fn threads() -> Vec<(String, String)> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .flatten()
        .filter_map(|task| {
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            let tid = task.file_name().into_string().ok()?;
            Some((tid, comm.trim_end().to_owned()))
        })
        .collect()
}

/// How often thread `tid` has blocked so far: each is one wake-up.
#[cfg(target_os = "linux")]
pub fn voluntary_switches(tid: &str) -> u64 {
    let status =
        std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).expect("thread status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches")
}
