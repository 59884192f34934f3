//! Network interface model: per-node serializing resources in virtual time.
//!
//! Each node owns one NIC with **two independent lanes** — transmit and
//! receive — because real interconnects are full duplex: an incoming stream
//! does not steal bandwidth from an outgoing one, but two outgoing streams
//! share the TX lane. A message that crosses the network reserves occupancy
//! on the source's TX lane and the destination's RX lane, following the
//! classic resource rule of discrete-event models:
//!
//! ```text
//! begin = max(lane_busy_until, requested_start)
//! lane_busy_until = begin + occupancy
//! ```
//!
//! With one active pair per node the reservation never waits and the model
//! degenerates to latency + size/bandwidth. With k pairs sharing a node
//! (the paper's 16-pair tests) occupancy serializes and per-pair bandwidth
//! approaches 1/k of the link — exactly the contention effect Figures 2, 3,
//! 6 and 7 of the paper measure.

use parking_lot::Mutex;

/// Which direction of the full-duplex link a reservation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Egress: this node is sending.
    Tx,
    /// Ingress: this node is receiving.
    Rx,
}

/// Outcome of a NIC reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Virtual time at which the message actually started occupying the lane.
    pub begin: u64,
    /// Virtual time at which the lane becomes free again.
    pub end: u64,
}

/// One direction of a NIC: its frontier and its traffic totals, all moved by
/// a reservation under the one lock it takes.
#[derive(Debug, Default)]
struct LaneState {
    busy_until: u64,
    messages: u64,
    bytes: u64,
    busy_ns: u64,
}

/// One node's NIC.
#[derive(Debug, Default)]
pub struct Nic {
    tx: Mutex<LaneState>,
    rx: Mutex<LaneState>,
}

impl Nic {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `occupancy_ns` on `lane` no earlier than `start`.
    pub fn reserve(&self, lane: Lane, start: u64, occupancy_ns: u64, bytes: usize) -> Reservation {
        let mut lane = match lane {
            Lane::Tx => self.tx.lock(),
            Lane::Rx => self.rx.lock(),
        };
        let begin = lane.busy_until.max(start);
        let end = begin + occupancy_ns;
        lane.busy_until = end;
        lane.messages += 1;
        lane.bytes += bytes as u64;
        lane.busy_ns += occupancy_ns;
        Reservation { begin, end }
    }

    /// Reserve on the transmit lane.
    pub fn reserve_tx(&self, start: u64, occupancy_ns: u64, bytes: usize) -> Reservation {
        self.reserve(Lane::Tx, start, occupancy_ns, bytes)
    }

    /// Reserve on the receive lane.
    pub fn reserve_rx(&self, start: u64, occupancy_ns: u64, bytes: usize) -> Reservation {
        self.reserve(Lane::Rx, start, occupancy_ns, bytes)
    }

    /// Number of messages that crossed this NIC (both lanes).
    pub fn messages(&self) -> u64 {
        self.tx.lock().messages + self.rx.lock().messages
    }

    /// Total bytes that crossed this NIC (both lanes; a message between two
    /// nodes is counted once per endpoint, so whole-machine sums count each
    /// transfer twice — once at each NIC it occupied).
    pub fn bytes(&self) -> u64 {
        self.tx.lock().bytes + self.rx.lock().bytes
    }

    /// Total virtual ns the NIC's lanes spent occupied.
    pub fn busy_ns(&self) -> u64 {
        self.tx.lock().busy_ns + self.rx.lock().busy_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_reservation_starts_on_time() {
        let nic = Nic::new();
        let r = nic.reserve_tx(1000, 50, 400);
        assert_eq!(r, Reservation { begin: 1000, end: 1050 });
        // A later, non-overlapping request is also unaffected.
        let r2 = nic.reserve_tx(2000, 10, 80);
        assert_eq!(r2, Reservation { begin: 2000, end: 2010 });
    }

    #[test]
    fn overlapping_reservations_serialize_within_a_lane() {
        let nic = Nic::new();
        let a = nic.reserve_tx(100, 100, 800);
        let b = nic.reserve_tx(100, 100, 800);
        let c = nic.reserve_tx(150, 100, 800);
        assert_eq!(a.end, 200);
        assert_eq!(b.begin, 200);
        assert_eq!(b.end, 300);
        assert_eq!(c.begin, 300);
        assert_eq!(c.end, 400);
    }

    #[test]
    fn lanes_are_full_duplex() {
        let nic = Nic::new();
        let tx = nic.reserve_tx(100, 1000, 8000);
        let rx = nic.reserve_rx(100, 1000, 8000);
        assert_eq!(tx.begin, 100, "TX unaffected by RX");
        assert_eq!(rx.begin, 100, "RX unaffected by TX");
        // But a second reservation on the same lane waits.
        assert_eq!(nic.reserve_rx(100, 10, 80).begin, 1100);
    }

    #[test]
    fn stats_accumulate_across_lanes() {
        let nic = Nic::new();
        nic.reserve_tx(0, 10, 100);
        nic.reserve_rx(0, 20, 200);
        assert_eq!(nic.messages(), 2);
        assert_eq!(nic.bytes(), 300);
        assert_eq!(nic.busy_ns(), 30);
    }

    #[test]
    fn concurrent_reservations_on_one_lane_tile_it_exactly() {
        // A `Nic` is `Sync` on its own, whatever the arbiter above it
        // serializes: 8 threads reserve on one lane at once. Every request
        // starts at 0, so the lane never idles and the reservations must tile
        // [0, Σ occupancy) with no overlap and no gap.
        const THREADS: u64 = 8;
        const EACH: u64 = 10_000;
        let nic = Nic::new();
        let occupancy = |thread: u64, i: u64| 1 + (thread * 7 + i * 13) % 29;
        let mut slots: Vec<Reservation> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let nic = &nic;
                    scope.spawn(move || {
                        (0..EACH)
                            .map(|i| nic.reserve_tx(0, occupancy(thread, i), 8))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("reserver panicked")).collect()
        });
        let total: u64 = (0..THREADS).flat_map(|t| (0..EACH).map(move |i| occupancy(t, i))).sum();
        assert_eq!(nic.messages(), THREADS * EACH);
        assert_eq!(nic.bytes(), THREADS * EACH * 8);
        assert_eq!(nic.busy_ns(), total);
        slots.sort_by_key(|r| r.begin);
        assert_eq!(slots[0].begin, 0);
        assert!(slots.windows(2).all(|w| w[0].end == w[1].begin), "a gap or an overlap");
        assert_eq!(slots.last().unwrap().end, total, "final frontier = Σ occupancy");
        assert_eq!(nic.reserve_rx(0, 1, 0).begin, 0, "the other lane saw none of it");
    }

    #[test]
    fn k_way_sharing_divides_lane_bandwidth() {
        // k back-to-back transfers issued at the same instant should finish
        // k times later than one alone — the emergent 1/k bandwidth share.
        let nic = Nic::new();
        let k = 16;
        let occ = 1_000;
        let mut last_end = 0;
        for _ in 0..k {
            last_end = nic.reserve_tx(0, occ, 4096).end;
        }
        assert_eq!(last_end, k * occ);
    }
}
