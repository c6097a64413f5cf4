//! The event queue.
//!
//! Events are keyed by `(time, seq)`: `seq` is a monotonically increasing
//! sequence number assigned at push time, so simultaneous events fire in the
//! order they were scheduled. That total order is the root of the kernel's
//! determinism guarantee.
//!
//! The implementation is a two-level calendar queue tuned for the timer-dense
//! workloads grid components generate (heartbeats, retries, polling):
//!
//! * an **active heap** holding every event in the current 1024 µs slot,
//! * **L0**: 1024 buckets of 1024 µs each — exactly one L1 slot (~1.05 s),
//!   aligned to the L1 boundary,
//! * **L1**: 1024 buckets of ~1.05 s each (~18 simulated minutes), aligned,
//! * an **overflow heap** for everything beyond the L1 horizon.
//!
//! Pushes and pops are O(1) amortised: most events land directly in an L0/L1
//! bucket and are only heap-ordered once they reach the (small) active heap.
//! Bucket windows are *aligned*, not sliding, so an event can never be filed
//! into a bucket that drains after a later-keyed event — the pop sequence is
//! exactly the `(time, seq)` order a single binary heap would produce, which
//! the determinism tests assert byte-for-byte.

use crate::component::{Addr, AnyMsg, NodeId, TimerId};
use crate::time::{EventKey, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver `msg` to `to` (dropped if the target is dead).
    Deliver {
        /// Sender.
        from: Addr,
        /// Receiver.
        to: Addr,
        /// Payload.
        msg: AnyMsg,
    },
    /// Fire timer `id` with `tag` on `on` (dropped if cancelled, dead, or
    /// belonging to an earlier incarnation of a restarted component).
    Timer {
        /// Owning component.
        on: Addr,
        /// Timer handle (for cancellation checks).
        id: TimerId,
        /// Caller-chosen discriminator.
        tag: u64,
        /// Owner incarnation at scheduling time.
        epoch: u32,
    },
    /// Crash a node (scripted by a fault plan or an operator component).
    NodeCrash {
        /// The node.
        node: NodeId,
    },
    /// Restart a crashed node.
    NodeRestart {
        /// The node.
        node: NodeId,
    },
    /// Begin a network partition between the two groups.
    PartitionStart {
        /// One side.
        group_a: Vec<NodeId>,
        /// The other side.
        group_b: Vec<NodeId>,
    },
    /// Heal a network partition.
    PartitionEnd {
        /// One side.
        group_a: Vec<NodeId>,
        /// The other side.
        group_b: Vec<NodeId>,
    },
    /// Change the global message-loss probability.
    SetLossRate {
        /// New rate (NaN restores the configured default).
        rate: f64,
    },
    /// A flow-mode bulk transfer's completion deadline. Valid only if the
    /// flow still exists *and* its current deadline equals the fire time —
    /// rate changes reschedule by pushing a fresh event and letting the
    /// old one go stale (no queue surgery).
    FlowDone {
        /// The flow id.
        flow: u64,
    },
    /// Take a flow-mode topology link down (crossing flows abort).
    LinkDown {
        /// The link name.
        link: String,
    },
    /// Bring a downed flow-mode link back up.
    LinkUp {
        /// The link name.
        link: String,
    },
    /// Override a flow-mode link's capacity; active flows rescale.
    LinkBandwidth {
        /// The link name.
        link: String,
        /// New capacity in bytes/s (NaN restores the configured value).
        capacity: f64,
    },
}

/// Causal-provenance sentinel: "no observable cause" (external stimulus,
/// fault-plan injection, or a chain on which nothing was ever traced).
/// Event sequence numbers start at 0, so `u64::MAX` can never collide.
pub const NO_CAUSE: u64 = u64::MAX;

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Push-order tie-breaker.
    pub seq: u64,
    /// Sequence number of the nearest *observable* causal ancestor — the
    /// most recent event on this event's trigger chain during whose
    /// processing a trace record was emitted — or [`NO_CAUSE`]. Captured
    /// automatically by the kernel at scheduling time; components never
    /// see or set it. The trace layer exports `(id, cause)` pairs and
    /// `obs::causality` rebuilds the happens-before DAG from them.
    pub cause: u64,
    /// The action.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the L0 bucket width in microseconds (1024 µs ≈ 1 ms).
const B0: u32 = 10;
/// log2 of the L1 bucket width in microseconds (~1.05 s). Must equal
/// `B0 + log2(N0)` so L0 covers exactly one L1 slot.
const B1: u32 = 20;
/// Buckets per level (a power of two, for cheap modular indexing).
const N: usize = 1024;
/// Words in each occupancy bitmap.
const WORDS: usize = N / 64;

/// First set bucket index `>= from`, or `None`.
fn scan(bits: &[u64; WORDS], from: usize) -> Option<usize> {
    if from >= N {
        return None;
    }
    let mut w = from / 64;
    let mut word = bits[w] & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == WORDS {
            return None;
        }
        word = bits[w];
    }
}

/// Earliest-first event queue with deterministic tie-breaking.
#[derive(Debug)]
pub struct EventQueue {
    /// Events in L0 slots `<= cur0`, heap-ordered by `(time, seq)`.
    active: BinaryHeap<Event>,
    /// One bucket per L0 slot of the current L1 slot (index `slot0 % N`).
    l0: Vec<Vec<Event>>,
    l0_bits: [u64; WORDS],
    /// One bucket per L1 slot of the current horizon (index `slot1 % N`).
    /// Invariant: every event in a bucket shares the same absolute slot1,
    /// which lies in `(cur1, cur1 + N)`.
    l1: Vec<Vec<Event>>,
    l1_bits: [u64; WORDS],
    /// Events beyond the L1 horizon at push time.
    overflow: BinaryHeap<Event>,
    /// The L0 slot currently drained into `active`.
    cur0: u64,
    len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue {
            active: BinaryHeap::new(),
            l0: (0..N).map(|_| Vec::new()).collect(),
            l0_bits: [0; WORDS],
            l1: (0..N).map(|_| Vec::new()).collect(),
            l1_bits: [0; WORDS],
            overflow: BinaryHeap::new(),
            cur0: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedule `kind` at `time`, recording `cause` as its causal ancestor
    /// (use [`NO_CAUSE`] for external stimuli).
    pub fn push(&mut self, time: SimTime, kind: EventKind, cause: u64) {
        let seq = self.next_seq;
        self.push_with_seq(time, seq, kind, cause);
    }

    /// Schedule `kind` at `time` with an externally allocated sequence
    /// number. The sharded kernel allocates one *global* seq stream across
    /// every shard's queue so that cross-shard ties still break in push
    /// order — the same total order a single queue would produce. The
    /// internal counter is kept ahead of `seq` so mixing with
    /// [`EventQueue::push`] stays sound.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, kind: EventKind, cause: u64) {
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
        self.len += 1;
        let event = Event {
            time,
            seq,
            cause,
            kind,
        };
        let s0 = time.0 >> B0;
        if s0 <= self.cur0 {
            // Current (or already-drained) slot: compete in the heap.
            self.active.push(event);
        } else if s0 >> (B1 - B0) == self.cur0 >> (B1 - B0) {
            // Later slot of the current L1 slot: direct L0 filing.
            let idx = (s0 as usize) & (N - 1);
            self.l0[idx].push(event);
            self.l0_bits[idx / 64] |= 1 << (idx % 64);
        } else {
            let s1 = time.0 >> B1;
            let cur1 = self.cur0 >> (B1 - B0);
            if s1 - cur1 < N as u64 {
                // Within the L1 horizon: direct L1 filing.
                let idx = (s1 as usize) & (N - 1);
                self.l1[idx].push(event);
                self.l1_bits[idx / 64] |= 1 << (idx % 64);
            } else {
                self.overflow.push(event);
            }
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        loop {
            if let Some(event) = self.active.pop() {
                self.len -= 1;
                return Some(event);
            }
            if self.len == 0 {
                // Run dry: release the last drained bucket's allocation.
                self.active = BinaryHeap::new();
                return None;
            }
            self.advance();
        }
    }

    /// Move the next non-empty bucket into the active heap. Only called
    /// when `active` is empty and at least one event remains.
    fn advance(&mut self) {
        // Later L0 bucket within the current L1 slot?
        let base0 = self.cur0 & !(N as u64 - 1);
        let lo = (self.cur0 - base0) as usize + 1;
        if let Some(idx) = scan(&self.l0_bits, lo) {
            self.drain_l0(base0, idx);
            return;
        }
        // Advance to the next occupied L1 slot: the earliest of the first
        // set L1 bucket and the overflow heap's front. Both can hold events
        // for the same slot (filed at different horizons), so drain both.
        let cur1 = self.cur0 >> (B1 - B0);
        let bucket_s1 = {
            let lo1 = ((cur1 as usize) & (N - 1)) + 1;
            // Buckets wrap modulo N: scan above the cursor, then below.
            scan(&self.l1_bits, lo1)
                .map(|idx| base_plus(cur1, lo1, idx))
                .or_else(|| scan(&self.l1_bits, 0).map(|idx| base_plus(cur1, 0, idx)))
        };
        let overflow_s1 = self.overflow.peek().map(|e| e.time.0 >> B1);
        let target = match (bucket_s1, overflow_s1) {
            (Some(b), Some(o)) => b.min(o),
            (Some(b), None) => b,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 with every level empty"),
        };
        // Redistribute the slot's events into L0 buckets.
        self.cur0 = target << (B1 - B0);
        let base0 = self.cur0;
        if bucket_s1 == Some(target) {
            let idx = (target as usize) & (N - 1);
            self.l1_bits[idx / 64] &= !(1 << (idx % 64));
            // Consume the bucket so its allocation is freed, not parked
            // in the emptied slot.
            for event in std::mem::take(&mut self.l1[idx]) {
                let i = ((event.time.0 >> B0) as usize) & (N - 1);
                self.l0[i].push(event);
                self.l0_bits[i / 64] |= 1 << (i % 64);
            }
        }
        while let Some(e) = self.overflow.peek() {
            if e.time.0 >> B1 != target {
                break;
            }
            let event = self.overflow.pop().expect("peeked");
            let i = ((event.time.0 >> B0) as usize) & (N - 1);
            self.l0[i].push(event);
            self.l0_bits[i / 64] |= 1 << (i % 64);
        }
        let idx = scan(&self.l0_bits, 0).expect("slot chosen because occupied");
        self.drain_l0(base0, idx);
    }

    /// Drain L0 bucket `idx` (absolute slot `base0 + idx`) into the heap.
    /// The heap is empty here, so the bucket's `Vec` becomes the heap in
    /// place and the heap's previous allocation is freed: the slot keeps
    /// no capacity once its events have left it.
    fn drain_l0(&mut self, base0: u64, idx: usize) {
        debug_assert!(self.active.is_empty());
        self.cur0 = base0 + idx as u64;
        self.l0_bits[idx / 64] &= !(1 << (idx % 64));
        self.active = BinaryHeap::from(std::mem::take(&mut self.l0[idx]));
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|k| k.0)
    }

    /// `(time, seq)` of the earliest event without removing it — exactly
    /// the key [`EventQueue::pop`] would return next. The shard coordinator
    /// N-way merges queues by this key, so it must be precise under ties:
    /// same-time events across shards fire in global push (seq) order.
    pub fn peek_key(&self) -> Option<EventKey> {
        if let Some(event) = self.active.peek() {
            return Some((event.time, event.seq));
        }
        if self.len == 0 {
            return None;
        }
        let base0 = self.cur0 & !(N as u64 - 1);
        let lo = (self.cur0 - base0) as usize + 1;
        if let Some(idx) = scan(&self.l0_bits, lo) {
            return bucket_min(&self.l0[idx]);
        }
        // The earliest remaining event is in the first occupied L1 bucket
        // or the overflow heap — slots are disjoint time ranges, so the
        // earlier slot wins; for a shared slot, the earlier minimum.
        let cur1 = self.cur0 >> (B1 - B0);
        let lo1 = ((cur1 as usize) & (N - 1)) + 1;
        let bucket = scan(&self.l1_bits, lo1)
            .or_else(|| scan(&self.l1_bits, 0))
            .and_then(|idx| bucket_min(&self.l1[idx]));
        let overflow = self.overflow.peek().map(|e| (e.time, e.seq));
        match (bucket, overflow) {
            (Some(b), Some(o)) => Some(b.min(o)),
            (b, o) => b.or(o),
        }
    }

    /// Number of pending events across *every* level of the calendar —
    /// the active heap, all L0/L1 buckets, and the overflow heap. The
    /// count is maintained on push/pop (bucket redistribution in
    /// [`advance`](Self::advance) moves events between levels without
    /// touching it), so the profiler's queue-depth samples always see the
    /// true total, not just the active slot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Event slots reserved across every level of the calendar.
    #[cfg(test)]
    fn reserved(&self) -> usize {
        let buckets: usize = self.l0.iter().chain(&self.l1).map(Vec::capacity).sum();
        self.active.capacity() + self.overflow.capacity() + buckets
    }
}

/// Absolute L1 slot for bucket `idx` found scanning from `lo` with the
/// cursor at `cur1`: the smallest slot `> cur1` congruent to `idx` mod N.
fn base_plus(cur1: u64, lo: usize, idx: usize) -> u64 {
    let base = cur1 & !(N as u64 - 1);
    let abs = base + idx as u64;
    debug_assert!(lo == 0 || idx >= lo);
    if abs > cur1 {
        abs
    } else {
        abs + N as u64
    }
}

/// Earliest `(time, seq)` key in an unsorted bucket.
fn bucket_min(bucket: &[Event]) -> Option<EventKey> {
    bucket.iter().map(|e| (e.time, e.seq)).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{CompId, NodeId};

    fn timer_at(q: &mut EventQueue, t: u64, tag: u64) {
        q.push(
            SimTime(t),
            EventKind::Timer {
                on: Addr {
                    node: NodeId(0),
                    comp: CompId(0),
                },
                id: TimerId(tag),
                tag,
                epoch: 0,
            },
            NO_CAUSE,
        );
    }

    fn pop_tag(q: &mut EventQueue) -> (u64, u64) {
        match q.pop().unwrap() {
            Event {
                time,
                kind: EventKind::Timer { tag, .. },
                ..
            } => (time.0, tag),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The original single-binary-heap queue, kept as the reference model
    /// for the calendar queue's pop order.
    #[derive(Default)]
    pub(crate) struct BaselineQueue {
        heap: BinaryHeap<Event>,
        next_seq: u64,
    }

    impl BaselineQueue {
        pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Event {
                time,
                seq,
                cause: NO_CAUSE,
                kind,
            });
        }
        pub(crate) fn pop(&mut self) -> Option<Event> {
            self.heap.pop()
        }
    }

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 30, 3);
        timer_at(&mut q, 10, 1);
        timer_at(&mut q, 20, 2);
        assert_eq!(pop_tag(&mut q), (10, 1));
        assert_eq!(pop_tag(&mut q), (20, 2));
        assert_eq!(pop_tag(&mut q), (30, 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_fire_in_push_order() {
        let mut q = EventQueue::new();
        for tag in 0..100 {
            timer_at(&mut q, 5, tag);
        }
        for tag in 0..100 {
            assert_eq!(pop_tag(&mut q), (5, tag));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 42, 0);
        timer_at(&mut q, 7, 1);
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 2);
        let _ = q.pop();
        assert_eq!(q.peek_time(), Some(SimTime(42)));
    }

    #[test]
    fn order_spans_every_level() {
        // One event per region: active slot, later L0 bucket, near L1
        // bucket, far L1 bucket, overflow — pushed out of order.
        let day = 86_400_000_000u64; // far beyond the L1 horizon
        let times = [day, 3, 5_000_000, 900, 2_000_000_000, day + 1, 200_000];
        let mut q = EventQueue::new();
        for (tag, &t) in times.iter().enumerate() {
            timer_at(&mut q, t, tag as u64);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        for &expect in &sorted {
            assert_eq!(q.peek_time(), Some(SimTime(expect)));
            assert_eq!(pop_tag(&mut q).0, expect);
        }
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn len_counts_events_parked_in_every_level() {
        // Regression guard for queue-depth sampling: events parked in L0
        // buckets, L1 buckets, and the overflow heap must all be visible
        // through `len()`, not only the active heap's contents.
        let day = 86_400_000_000u64;
        let mut q = EventQueue::new();
        timer_at(&mut q, 3, 0); // active slot
        timer_at(&mut q, 500_000, 1); // later L0 bucket
        timer_at(&mut q, 600_000_000, 2); // L1 bucket
        timer_at(&mut q, day, 3); // overflow heap
        assert_eq!(q.len(), 4, "all levels counted");
        assert!(!q.is_empty());
        let _ = q.pop();
        assert_eq!(q.len(), 3, "pop decrements by exactly one");
        // Redistribution (L1 -> L0 -> active) must not change the count.
        assert_eq!(pop_tag(&mut q), (500_000, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(pop_tag(&mut q), (600_000_000, 2));
        assert_eq!(q.len(), 1);
        assert_eq!(pop_tag(&mut q), (day, 3));
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn drained_buckets_release_their_allocation() {
        // A burst into one L0 slot and one L1 slot must not leave either
        // bucket (or the active heap) holding its capacity once drained:
        // what the queue reserves follows what it holds, not its history.
        const BURST: u64 = 100_000;
        let mut q = EventQueue::new();
        for tag in 0..BURST {
            timer_at(&mut q, 500_000, tag); // later L0 slot
            timer_at(&mut q, 600_000_000, BURST + tag); // L1 slot
        }
        for tag in 0..10 {
            timer_at(&mut q, 900_000_000, 2 * BURST + tag); // a later slot
        }
        assert!(q.reserved() >= 2 * BURST as usize);
        // Both bursts plus the first event of the later slot.
        for _ in 0..=2 * BURST {
            let _ = q.pop();
        }
        assert_eq!(q.len(), 9);
        assert!(
            q.reserved() <= q.len() + 64,
            "{} slots reserved for {} pending events",
            q.reserved(),
            q.len()
        );
        while q.pop().is_some() {}
        assert_eq!(q.reserved(), 0);
    }

    #[test]
    fn interleaved_push_pop_matches_reference() {
        // Deterministic pseudo-random schedule with re-pushes after pops,
        // exercising bucket wrap-around and overflow migration.
        let mut q = EventQueue::new();
        let mut r = BaselineQueue::default();
        let mut x = 0x9e3779b97f4a7c15u64;
        let step = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        };
        let mut now = 0u64;
        for round in 0..5_000u64 {
            let n = step(&mut x) % 4;
            for _ in 0..n {
                // Mix of near (same ms), mid (seconds), and far (hours).
                let delta = match step(&mut x) % 5 {
                    0 => step(&mut x) % 1_000,
                    1..=2 => step(&mut x) % 5_000_000,
                    3 => step(&mut x) % 2_000_000_000,
                    _ => step(&mut x) % 100_000_000_000,
                };
                timer_at(&mut q, now + delta, round);
                r.push(
                    SimTime(now + delta),
                    EventKind::Timer {
                        on: Addr {
                            node: NodeId(0),
                            comp: CompId(0),
                        },
                        id: TimerId(round),
                        tag: round,
                        epoch: 0,
                    },
                );
            }
            if step(&mut x) % 3 != 0 {
                match (q.pop(), r.pop()) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.time, a.seq), (b.time, b.seq), "round {round}");
                        now = a.time.0;
                    }
                    (None, None) => {}
                    (a, b) => panic!("one queue empty: {:?} vs {:?}", a.is_some(), b.is_some()),
                }
            }
        }
        loop {
            match (q.pop(), r.pop()) {
                (Some(a), Some(b)) => assert_eq!((a.time, a.seq), (b.time, b.seq)),
                (None, None) => break,
                (a, b) => panic!("one queue empty: {:?} vs {:?}", a.is_some(), b.is_some()),
            }
        }
    }
}
