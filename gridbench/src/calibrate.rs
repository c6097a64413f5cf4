//! Host-speed probe: a fixed loop that shares no code with the simulator.
//!
//! On a shared host the same campaign can run at half its speed for tens
//! of seconds while a neighbour is busy. The probe does the kind of work a
//! discrete-event kernel does (pop the earliest event from a binary heap,
//! update a hash-map record, schedule a follow-up event), always the same
//! amount of it, so its time tracks the host's speed and nothing else.
//! Timing the probe between slices of a campaign turns the campaign's host
//! seconds into reference seconds: the seconds it would have taken on a
//! host where one probe takes [`REFERENCE_PROBE_S`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Records in the probe's table: about 1.3 MiB with the map's overhead.
const RECORDS: u64 = 1 << 14;
/// Events in flight in the probe's queue.
const IN_FLIGHT: u64 = 1 << 14;
/// Probes run and discarded when the probe is built.
const WARM_UP: usize = 3;
/// Events one probe runs.
pub const PROBE_EVENTS: u64 = 50_000;
/// Host seconds one probe takes on the reference host, by definition.
pub const REFERENCE_PROBE_S: f64 = 0.0075;

/// The probe's state, built once per process.
pub struct Probe {
    table: HashMap<u64, [u64; 4]>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    rng: u64,
}

impl Probe {
    pub fn new() -> Probe {
        let mut p = Probe {
            table: HashMap::with_capacity(RECORDS as usize),
            queue: BinaryHeap::with_capacity(IN_FLIGHT as usize),
            rng: 0x9e37_79b9_7f4a_7c15,
        };
        for k in 0..RECORDS {
            p.table.insert(k, [k; 4]);
        }
        for id in 0..IN_FLIGHT {
            let t = p.next() % 1_000_000;
            p.queue.push(Reverse((t, id)));
        }
        // The first probes of a process run slow (cold caches, page
        // faults); only warm ones measure the host.
        for _ in 0..WARM_UP {
            p.time();
        }
        p
    }

    /// xorshift64.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Run one probe of [`PROBE_EVENTS`] events; returns its host seconds.
    pub fn time(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..PROBE_EVENTS {
            let Reverse((t, id)) = self.queue.pop().expect("queue never drains");
            let key = self.next() % RECORDS;
            let rec = self.table.get_mut(&key).expect("every key present");
            rec[(id & 3) as usize] = rec[(id & 3) as usize].wrapping_add(t);
            let dt = 1 + (rec[0] ^ self.rng) % 1000;
            self.queue.push(Reverse((t + dt, id)));
        }
        black_box(&self.table);
        started.elapsed().as_secs_f64()
    }
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

/// Reference seconds of a run timed in `slices`, where `probes[i]` and
/// `probes[i + 1]` are the probe times just before and just after slice
/// `i`: each slice is scaled by the reference probe time over the mean of
/// the two probes around it.
pub fn reference_seconds(slices: &[f64], probes: &[f64]) -> f64 {
    assert_eq!(
        probes.len(),
        slices.len() + 1,
        "one probe around every slice"
    );
    slices
        .iter()
        .zip(probes.windows(2))
        .map(|(s, p)| s * REFERENCE_PROBE_S / ((p[0] + p[1]) / 2.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_reference_speed_keeps_its_seconds() {
        let s = reference_seconds(&[1.0, 2.0], &[REFERENCE_PROBE_S; 3]);
        assert!((s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_slice_is_scaled_by_the_probes_around_it() {
        // The host ran at half speed around the first slice and at the
        // reference speed after the second.
        let r = REFERENCE_PROBE_S;
        let s = reference_seconds(&[2.0, 1.0], &[2.0 * r, 2.0 * r, r]);
        assert!((s - (1.0 + 1.0 / 1.5)).abs() < 1e-12);
    }

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let mut a = Probe::new();
        let mut b = Probe::new();
        a.time();
        b.time();
        assert_eq!(a.rng, b.rng);
        assert_eq!(a.queue.peek(), b.queue.peek());
    }
}
