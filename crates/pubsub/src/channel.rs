//! Channel (topic) identifiers.
//!
//! Applications address channels by name (`"tile_3_4"`, `"player_42"`),
//! but plans, rings and load reports move millions of entries, so
//! everything below the name-keyed subscription index refers to a
//! channel by a compact [`Channel`] id: the simulator's workloads number
//! their channels directly, the live tier hashes the name with
//! [`channel_id_of`](crate::channel_id_of).

use std::fmt;

/// A compact channel (topic) identifier.
///
/// # Examples
///
/// ```
/// use dynamoth_pubsub::{channel_id_of, Channel};
///
/// assert_eq!(channel_id_of("tile_3_4"), channel_id_of("tile_3_4")); // stable
/// assert_eq!(Channel(7).to_string(), "ch7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel(pub u64);

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}
