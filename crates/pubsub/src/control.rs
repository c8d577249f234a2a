//! Control frames of the routed TCP tier (§IV of the paper): the
//! `<switch>` and `MOVED` reconfiguration notifications, the live
//! balancer's plan installs and its brokers' load reports. Their bytes
//! live in the crate's one wire module; `docs/PROTOCOL.md` lays them out.

use crate::channel::Channel;

pub use crate::wire::{
    control_channel, decode_report, encode_report, install_channel, is_control_channel,
    lla_channel, ControlFrame, InstallFrame, Quarantine,
};

/// Derives the plan/ring key of a channel *name*. Stable across
/// processes (FNV-1a), so every router and sidecar agrees on the key —
/// the routed tier addresses channels by name on the wire and by
/// [`Channel`] in plans. A hash collision merely co-locates two names on
/// the same servers; it cannot misdeliver because brokers match full
/// names.
pub fn channel_id_of(name: &str) -> Channel {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Channel(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_ids_are_stable_and_name_sensitive() {
        assert_eq!(channel_id_of("tile_1"), channel_id_of("tile_1"));
        assert_ne!(channel_id_of("tile_1"), channel_id_of("tile_2"));
        // Pinned value: routers and sidecars in different processes must
        // agree forever.
        assert_eq!(channel_id_of(""), Channel(0xcbf2_9ce4_8422_2325));
    }
}
