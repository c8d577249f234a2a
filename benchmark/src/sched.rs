//! The generator's only source of randomness: a SplitMix64 stream seeded
//! from `--seed`, and the Poisson arrival schedule drawn from it. The
//! program under test never sees the seed, only the publications.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so its logarithm is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn next_below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One publication the generator owes: when it is due (ns since the run's
/// epoch) and on which channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub channel: usize,
}

/// How the generator picks a publication's channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelChoice {
    /// Channel `i mod n` for the `i`-th publication of the run.
    RoundRobin,
    /// Uniform over the channels, drawn from the seed.
    Uniform,
}

impl ChannelChoice {
    /// The channel of the run's `index`-th publication, of `channels`.
    pub fn pick(self, index: u64, channels: usize, rng: &mut SplitMix64) -> usize {
        match self {
            ChannelChoice::RoundRobin => (index % channels as u64) as usize,
            ChannelChoice::Uniform => rng.next_below(channels as u64) as usize,
        }
    }
}

/// Poisson arrivals at `rate` per second over `[start_ns, end_ns)`: a pure
/// function of the seed. A fixed period would alias with the client
/// worker's 20 ms tick; exponential gaps do not.
pub struct Poisson {
    rng: SplitMix64,
    mean_gap_ns: f64,
    t_ns: f64,
    end_ns: u64,
    channels: usize,
    choice: ChannelChoice,
    issued: u64,
}

impl Poisson {
    /// `first_index` is the run-wide index of this phase's first
    /// publication, so round-robin continues across phases.
    pub fn new(
        seed: u64,
        rate: f64,
        start_ns: u64,
        end_ns: u64,
        channels: usize,
        choice: ChannelChoice,
        first_index: u64,
    ) -> Poisson {
        Poisson {
            // Decorrelate phases that share a seed.
            rng: SplitMix64::new(seed ^ start_ns.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            mean_gap_ns: 1e9 / rate,
            t_ns: start_ns as f64,
            end_ns,
            channels,
            choice,
            issued: first_index,
        }
    }
}

impl Iterator for Poisson {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        self.t_ns += -self.rng.next_unit().ln() * self.mean_gap_ns;
        let due_ns = self.t_ns as u64;
        if due_ns >= self.end_ns {
            return None;
        }
        let channel = self.choice.pick(self.issued, self.channels, &mut self.rng);
        self.issued += 1;
        Some(Arrival { due_ns, channel })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64) -> Vec<Arrival> {
        Poisson::new(
            seed,
            5_000.0,
            2_000_000_000,
            4_000_000_000,
            12,
            ChannelChoice::Uniform,
            0,
        )
        .collect()
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn schedule_holds_the_rate_and_stays_inside_the_phase() {
        let arrivals = take(3);
        // 5 000/s over 2 s: 10 000 expected, σ = 100.
        assert!(
            (9_500..=10_500).contains(&arrivals.len()),
            "{}",
            arrivals.len()
        );
        assert!(arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(arrivals
            .iter()
            .all(|a| (2_000_000_000..4_000_000_000).contains(&a.due_ns) && a.channel < 12));
    }

    #[test]
    fn round_robin_continues_from_the_first_index() {
        let got: Vec<usize> = Poisson::new(
            1,
            1_000.0,
            0,
            1_000_000_000,
            64,
            ChannelChoice::RoundRobin,
            62,
        )
        .take(4)
        .map(|a| a.channel)
        .collect();
        assert_eq!(got, vec![62, 63, 0, 1]);
    }
}
