//! The live tier's one timing model.
//!
//! Every timeout, interval and window of the routed tier depends on one
//! of two clocks: the **network** (how long a round trip to a broker can
//! take) and the **report clock** (how often each broker's
//! [`LoadReporter`](crate::LoadReporter) publishes its load). A
//! [`Timing`] holds those two inputs plus the failure detector's
//! `suspect_after`, and derives everything else from them. It rides in
//! [`ClientConfig::timing`](crate::ClientConfig::timing), which every
//! component embeds, so one deployment-wide value keeps the
//! cross-component orders below true by construction.
//!
//! Each derived quantity's doc comment gives its formula; `DESIGN.md`
//! §17 tabulates them with their defaults.
//!
//! The named orders, each one a reason for a derivation above:
//!
//! - `liveness_timeout ≥ 2·heartbeat_interval`: a silent broker misses
//!   several heartbeats before its connection is declared dead;
//! - `switch_grace > forwarding_hop + rtt`: the superseded subscription
//!   outlives one forwarded copy plus the new subscription's round trip;
//! - `forward_back_window > switch_grace`: a subscriber that switched on
//!   the first `<switch>` keeps its live feed until its new-home
//!   subscription delivers;
//! - `ttl > max(forward_back_window, install_refresh, switch_grace)`: the
//!   sidecar's per-channel state outlives every window that reads it;
//! - the router's `failover_after` equals the balancer's suspect bound
//!   `suspect_after × report_interval`, so both sides of the tier call a
//!   broker dead on the same evidence.
//!
//! [`Timing::new`] checks the inputs these orders need and names the one
//! a rejected input would break; the derivations make the rest hold for
//! every accepted input.

use std::time::Duration;

/// The deployment's timing inputs and everything derived from them (see
/// the module docs). The fields are private: a `Timing` that exists has
/// passed [`Timing::new`]'s checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    rtt: Duration,
    report_interval: Duration,
    suspect_after: u32,
}

/// Why [`Timing::new`] rejected its inputs: the order each would break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingError {
    /// `switch_grace > forwarding_hop + rtt` fails: a zero round-trip
    /// bound leaves no grace at all for a subscription to move.
    GraceWithinHandoff,
    /// `suspect_after × report_interval ≥ report_interval > 0` fails: the
    /// detector would suspect a broker before it missed one report.
    DetectorBelowOneReport,
    /// A derived quantity does not fit in a [`Duration`].
    Overflow,
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TimingError::GraceWithinHandoff => {
                "switch_grace must exceed one forwarding hop plus one round trip (rtt > 0)"
            }
            TimingError::DetectorBelowOneReport => {
                "suspect_after × report_interval must cover at least one non-zero report interval"
            }
            TimingError::Overflow => "a derived timeout does not fit in a Duration",
        })
    }
}

impl std::error::Error for TimingError {}

impl Timing {
    /// A timing for paths whose round trip stays under `rtt`, brokers that
    /// report every `report_interval`, and a detector that suspects a
    /// broker after `suspect_after` missed reports.
    ///
    /// # Errors
    ///
    /// The [`TimingError`] naming the order the inputs would break.
    pub fn new(
        rtt: Duration,
        report_interval: Duration,
        suspect_after: u32,
    ) -> Result<Timing, TimingError> {
        let timing = Timing {
            rtt,
            report_interval,
            suspect_after,
        };
        // The longest derivations: ttl ≤ 2·forward_back_window = 40·rtt
        // when the network dominates, ≤ 10·report_interval otherwise, and
        // the detection bound.
        let fits = rtt.checked_mul(40).is_some()
            && report_interval
                .checked_mul(suspect_after.max(10))
                .and_then(|d| d.checked_add(rtt * 5))
                .is_some();
        if !fits {
            return Err(TimingError::Overflow);
        }
        if timing.switch_grace() <= timing.forwarding_hop() + rtt {
            return Err(TimingError::GraceWithinHandoff);
        }
        if report_interval.is_zero() || suspect_after == 0 {
            return Err(TimingError::DetectorBelowOneReport);
        }
        Ok(timing)
    }

    /// Upper bound on one round trip between any two components.
    pub fn rtt(&self) -> Duration {
        self.rtt
    }

    /// How often each broker's load reporter publishes, which is also the
    /// balancer's evaluation cadence.
    pub fn report_interval(&self) -> Duration {
        self.report_interval
    }

    /// Missed report intervals before the balancer suspects a broker (K in
    /// [`Self::detect_bound`]).
    pub fn suspect_after(&self) -> u32 {
        self.suspect_after
    }

    /// `rtt/2`: the first reconnect backoff ceiling; doubles per failed
    /// attempt.
    pub fn reconnect_base(&self) -> Duration {
        self.rtt / 2
    }

    /// `20·rtt`: upper bound of the reconnect backoff ceiling.
    pub fn reconnect_cap(&self) -> Duration {
        self.rtt * 20
    }

    /// `10·rtt`: TCP connect timeout per attempt.
    pub fn connect_timeout(&self) -> Duration {
        self.rtt * 10
    }

    /// `5·rtt`: how often a client sends `PING` on an otherwise idle
    /// connection.
    pub fn heartbeat_interval(&self) -> Duration {
        self.rtt * 5
    }

    /// `30·rtt`: a connection that has received nothing for this long is
    /// declared dead — six missed heartbeats.
    pub fn liveness_timeout(&self) -> Duration {
        self.rtt * 30
    }

    /// `rtt`: one sidecar forwarding hop, the longest a forwarded copy
    /// takes to reach its new home, and so the hold that fences a handoff.
    pub fn forwarding_hop(&self) -> Duration {
        self.rtt
    }

    /// `10·rtt`: how long a router keeps a superseded subscription after a
    /// switch.
    pub fn switch_grace(&self) -> Duration {
        self.rtt * 10
    }

    /// `2·switch_grace`: how long a new home forwards publications back to
    /// the channel's old home(s), counted from the first install of the
    /// (channel, plan).
    pub fn forward_back_window(&self) -> Duration {
        self.switch_grace() * 2
    }

    /// `5·rtt`: connect timeout of a death-confirmation probe, for routers
    /// and the balancer alike.
    pub fn probe_timeout(&self) -> Duration {
        self.rtt * 5
    }

    /// `20·rtt`: minimum spacing between a router's probes of the same
    /// broker.
    pub fn reprobe_interval(&self) -> Duration {
        self.rtt * 20
    }

    /// The balancer's suspect bound `suspect_after × report_interval`,
    /// which is also how long a router's broker connection must stay down
    /// before the router probes the broker.
    pub fn failover_after(&self) -> Duration {
        self.report_interval * self.suspect_after
    }

    /// `3·report_interval`: how long the balancer re-publishes a plan
    /// delta after installing it, refreshing the sidecars' TTL across the
    /// window.
    pub fn install_refresh(&self) -> Duration {
        self.report_interval * 3
    }

    /// How long a sidecar keeps a channel's forwarding and switch state
    /// after its last install: ten report intervals, or twice the longest
    /// window that reads the state if that is more.
    pub fn ttl(&self) -> Duration {
        let longest = self
            .forward_back_window()
            .max(self.install_refresh())
            .max(self.switch_grace());
        (self.report_interval * 10).max(longest * 2)
    }

    /// `failover_after + probe_timeout`: the kill-to-dead bound, since a
    /// broker is suspect after `suspect_after` missed reports and dead once
    /// its confirmation probe fails.
    pub fn detect_bound(&self) -> Duration {
        self.failover_after() + self.probe_timeout()
    }
}

impl Default for Timing {
    /// Loopback-scale defaults: rtt 100 ms, one report per second, suspect
    /// after three missed reports.
    fn default() -> Self {
        Timing::new(Duration::from_millis(100), Duration::from_secs(1), 3)
            .expect("the default timing satisfies every order")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn defaults_match_the_loopback_literals() {
        let t = Timing::default();
        assert_eq!(t.reconnect_base(), ms(50));
        assert_eq!(t.reconnect_cap(), ms(2_000));
        assert_eq!(t.connect_timeout(), ms(1_000));
        assert_eq!(t.heartbeat_interval(), ms(500));
        assert_eq!(t.liveness_timeout(), ms(3_000));
        assert_eq!(t.switch_grace(), ms(1_000));
        assert_eq!(t.forward_back_window(), ms(2_000));
        assert_eq!(t.probe_timeout(), ms(500));
        assert_eq!(t.reprobe_interval(), ms(2_000));
        assert_eq!(t.failover_after(), ms(3_000));
        assert_eq!(t.report_interval(), ms(1_000));
        assert_eq!(t.install_refresh(), ms(3_000));
        assert_eq!(t.ttl(), ms(10_000));
        assert_eq!(t.forwarding_hop(), ms(100));
        assert_eq!(t.detect_bound(), ms(3_500));
    }

    #[test]
    fn zero_rtt_leaves_no_switch_grace() {
        assert_eq!(
            Timing::new(Duration::ZERO, ms(1_000), 3),
            Err(TimingError::GraceWithinHandoff)
        );
    }

    #[test]
    fn zero_suspect_after_suspects_before_a_missed_report() {
        assert_eq!(
            Timing::new(ms(100), ms(1_000), 0),
            Err(TimingError::DetectorBelowOneReport)
        );
    }

    #[test]
    fn an_rtt_near_duration_max_overflows() {
        assert_eq!(
            Timing::new(Duration::MAX / 2, ms(1_000), 3),
            Err(TimingError::Overflow)
        );
    }

    #[test]
    fn a_long_rtt_raises_the_ttl_past_the_forward_back_window() {
        let t = Timing::new(ms(500), ms(1_000), 3).expect("valid");
        assert_eq!(t.forward_back_window(), ms(10_000));
        assert_eq!(t.ttl(), ms(20_000));
    }

    proptest! {
        /// Every round-trip bound from 0.1 ms to 500 ms, at the default
        /// report clock, builds and keeps every named order.
        #[test]
        fn every_rtt_in_range_keeps_the_named_orders(rtt_us in 100u64..500_001) {
            let d = Timing::default();
            let t = Timing::new(Duration::from_micros(rtt_us), d.report_interval(), d.suspect_after())
                .expect("valid timing");
            prop_assert!(t.liveness_timeout() >= t.heartbeat_interval() * 2);
            prop_assert!(t.switch_grace() > t.forwarding_hop() + t.rtt());
            prop_assert!(t.forward_back_window() > t.switch_grace());
            prop_assert!(
                t.ttl() > t.forward_back_window().max(t.install_refresh()).max(t.switch_grace())
            );
            prop_assert_eq!(t.failover_after(), t.report_interval() * t.suspect_after());
        }
    }
}
