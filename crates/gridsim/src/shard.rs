//! Kernel shards: partitions of the world advanced under a conservative
//! lookahead protocol.
//!
//! A [`Shard`] owns everything event execution touches that is naturally
//! node-local: a calendar [`EventQueue`], a local clock, the per-link FIFO
//! clamp state for links *originating* on its nodes, the cancelled-timer
//! set for timers owned by its components, and its processed-event count.
//! The coordinator in [`crate::world::World`] assigns every node to exactly
//! one shard (shard 0 — the *home* shard — hosts the agent side plus any
//! unassigned node) and routes each scheduled event to the shard of the
//! node it fires on, so a shard's queue holds only events it will execute.
//!
//! Cross-shard sends are timestamped channel messages: the sender's shard
//! stamps the delivery with the sampled source→dest WAN link latency and
//! files it straight into the destination shard's queue. Because every
//! inter-node link carries at least the network model's minimum latency
//! ([`crate::network::Network::lookahead`]), and a shard sends only while
//! executing one of its own events, a shard whose next local event lies at
//! or before
//!
//! ```text
//! safe(S) = min over other shards S' with a pending event of  next(S') + lookahead
//! ```
//!
//! can execute it without ever receiving an earlier cross-shard message —
//! the Chandy–Misra lower bound on incoming timestamps ([`safe_horizon`]).
//! A peer with an empty queue can send nothing, so it imposes no bound. The
//! coordinator *commits* events in the global `(time, seq)` order (seq is
//! allocated from one world-wide counter), which keeps traces, RNG draws
//! and digests byte-identical for every shard count; the horizon is used to
//! measure how many shards are concurrently runnable (`shard.runnable`),
//! i.e. how much parallelism the partition exposes.

use crate::component::{NodeId, TimerId};
use crate::event::EventQueue;
use crate::time::{Duration, SimTime};
use std::collections::{HashMap, HashSet};

/// One partition of the world: a site group's nodes (or the agent side's,
/// for shard 0) plus the execution state their events need.
#[derive(Debug, Default)]
pub struct Shard {
    /// Pending events firing on this shard's nodes. Sequence numbers come
    /// from the world-global counter, so merging shard queues by
    /// `(time, seq)` reproduces the single-queue total order exactly.
    pub(crate) queue: EventQueue,
    /// Local clock: the timestamp of the last event this shard executed.
    pub(crate) clock: SimTime,
    /// Per directed link *from* this shard's nodes: the latest scheduled
    /// control-message delivery, enforcing FIFO ordering like the TCP
    /// connections the real protocols run over. Keyed identically to the
    /// old world-global map; since every send is applied on the sender's
    /// shard, the partition of that map by sender node is exact.
    pub(crate) fifo: HashMap<(NodeId, NodeId), SimTime>,
    /// Cancelled timers owned by this shard's components (timers only ever
    /// fire on the component that set them, so the set is shard-local).
    pub(crate) cancelled: HashSet<TimerId>,
    /// Events this shard has executed.
    pub(crate) events: u64,
}

impl Shard {
    /// A fresh shard with an empty queue and a zero clock.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// Events executed by this shard so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// This shard's local clock (timestamp of its last executed event).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Pending events in this shard's queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// The conservative safe horizon for shard `s`: the earliest instant at
/// which a cross-shard message could still arrive, i.e. the minimum over
/// every other shard of its next pending event time plus the WAN lookahead
/// (`next[i]` is `None` for an empty queue, which bounds nothing). An event
/// at or before this bound can run without waiting for null messages. With
/// a single shard there is no inbound link, so the horizon is unbounded.
pub fn safe_horizon(next: &[Option<SimTime>], s: usize, lookahead: Duration) -> SimTime {
    next.iter()
        .enumerate()
        .filter(|&(i, _)| i != s)
        .filter_map(|(_, t)| t.map(|t| t + lookahead))
        .min()
        .unwrap_or(SimTime::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_shard_is_always_runnable() {
        // Whatever the peers hold, the shard with the globally earliest
        // pending event has nothing earlier left to receive.
        let l = Duration::from_micros(20);
        let cases: [&[Option<SimTime>]; 4] = [
            &[Some(SimTime(100)), Some(SimTime(50)), Some(SimTime(200))],
            &[Some(SimTime(7)), Some(SimTime(7))],
            &[None, Some(SimTime(1_000_000)), None],
            &[Some(SimTime(0)), Some(SimTime(5)), Some(SimTime(10))],
        ];
        for next in cases {
            let (s, t) = next
                .iter()
                .enumerate()
                .filter_map(|(s, t)| t.map(|t| (s, t)))
                .min_by_key(|&(_, t)| t)
                .unwrap();
            assert!(t <= safe_horizon(next, s, l), "{next:?}");
        }
    }

    #[test]
    fn horizon_is_min_pending_peer_plus_lookahead() {
        let next = [Some(SimTime(100)), None, Some(SimTime(200))];
        let l = Duration::from_micros(20);
        assert_eq!(safe_horizon(&next, 0, l), SimTime(220));
        assert_eq!(safe_horizon(&next, 1, l), SimTime(120));
        assert_eq!(safe_horizon(&next, 2, l), SimTime(120));
    }

    #[test]
    fn single_shard_horizon_is_unbounded() {
        let next = [Some(SimTime(5))];
        assert_eq!(safe_horizon(&next, 0, Duration::from_secs(1)), SimTime::MAX);
    }
}
