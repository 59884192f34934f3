//! Virtual-time cost model: composes a machine's wire parameters with a
//! conduit profile and performs NIC reservations.
//!
//! Inter-node transfers are pipelined through both endpoint NICs: the
//! destination reservation is requested at `source begin + wire latency`, so
//! an uncontended large message costs `latency + size/bandwidth` while k
//! flows sharing a NIC degrade towards `1/k` of the link — the behaviour the
//! paper's 1-pair vs 16-pair panels exhibit.
//!
//! Each transfer has one formula. It reserves on a lane source: the
//! machine's NICs, or idle lanes that grant every reservation at its
//! requested begin and record nothing. The `*_estimate*` probes the strided
//! planner prices plans with are the reserving calls on idle lanes at
//! `start = 0`, so they cannot drift from what a real transfer costs.

use crate::profile::{AmoSupport, ConduitProfile, StridedSupport};
use pgas_machine::config::WireParams;
use pgas_machine::machine::{Machine, PeId};
use pgas_machine::nic::{Lane, Reservation};

/// Completion times of a one-sided write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutTiming {
    /// When the call returns on the source (source buffer reusable).
    pub local_complete: u64,
    /// When the data is globally visible at the target (what `quiet` waits
    /// for).
    pub remote_complete: u64,
}

/// Completion times of a remote atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmoTiming {
    /// When the call returns on the source (with the fetched value, if any).
    pub local_complete: u64,
    /// When the operation has executed at the target.
    pub remote_complete: u64,
}

/// Completion times of an active-message request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmTiming {
    /// When the request has left the source NIC (the caller may proceed;
    /// like a put's local completion).
    pub local_complete: u64,
    /// When the handler's effects are visible at the target (what `quiet`
    /// waits for).
    pub executed: u64,
}

/// Wire framing charged per active message and per coalesced op: handler id
/// / opcode, target offset, and length fields.
pub const AM_HEADER_BYTES: usize = 16;

/// Observability breakdown of one transfer, computed from the same NIC
/// reservations the timing comes from.
///
/// Every reserving method returns one beside its timing. It costs nothing
/// to produce — every field is arithmetic on reservation values the cost
/// model already holds — and a caller that records no breakdown drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowDetail {
    /// Total time the transfer waited in NIC queues behind earlier traffic
    /// (reservation `begin - requested start`, summed over the lanes hit).
    pub queue_ns: u64,
    /// Total time the transfer occupied NIC lanes (service time).
    pub service_ns: u64,
    /// Delivery window at the remote side, virtual ns. `remote_end` equals
    /// the operation's remote completion; both are 0 if nothing remote
    /// happened.
    pub remote_begin: u64,
    pub remote_end: u64,
}

/// Where a cost model's reservations are granted.
#[derive(Clone, Copy)]
enum Lanes {
    /// The machine's NICs: a reservation queues behind earlier traffic,
    /// each transfer's reservations are one arbiter turn, and payload
    /// occupancy stretches inside the fault plan's degradation windows.
    Nics,
    /// Idle NICs: every reservation is granted at its requested begin. No
    /// turn, no degradation, nothing recorded.
    Idle,
}

/// One message pipelined through two NICs: the sender's TX lane, then the
/// receiver's RX lane requested one wire latency after the TX began.
#[derive(Clone, Copy)]
struct Leg {
    tx: Reservation,
    rx: Reservation,
    /// Time spent queued on both lanes.
    queue_ns: u64,
}

impl Leg {
    fn service_ns(&self) -> u64 {
        (self.tx.end - self.tx.begin) + (self.rx.end - self.rx.begin)
    }

    /// The leg as a whole transfer, delivered over the RX reservation.
    fn detail(&self) -> FlowDetail {
        FlowDetail {
            queue_ns: self.queue_ns,
            service_ns: self.service_ns(),
            remote_begin: self.rx.begin,
            remote_end: self.rx.end,
        }
    }
}

/// Cost model for one (machine, profile) pair.
#[derive(Clone, Copy)]
pub struct CostModel<'m> {
    machine: &'m Machine,
    profile: ConduitProfile,
    lanes: Lanes,
}

impl<'m> CostModel<'m> {
    pub fn new(machine: &'m Machine, profile: ConduitProfile) -> Self {
        CostModel { machine, profile, lanes: Lanes::Nics }
    }

    pub fn profile(&self) -> &ConduitProfile {
        &self.profile
    }

    pub fn machine(&self) -> &'m Machine {
        self.machine
    }

    /// The same model on idle lanes.
    fn idle(&self) -> Self {
        CostModel { lanes: Lanes::Idle, ..*self }
    }

    #[inline]
    fn wire(&self) -> &WireParams {
        &self.machine.config().wire
    }

    /// NIC occupancy of a message carrying `bytes` of payload.
    #[inline]
    fn occupancy_ns(&self, bytes: usize) -> f64 {
        self.wire().nic_msg_overhead_ns
            + self.profile.msg_occupancy_ns
            + bytes as f64 / (self.wire().inter.bytes_per_ns * self.profile.bandwidth_efficiency)
    }

    /// Occupancy of a control message (no payload).
    #[inline]
    fn control_occupancy_ns(&self) -> f64 {
        self.occupancy_ns(8)
    }

    /// Stretch a payload occupancy by the fault plan's NIC-degradation
    /// factor for a reservation on `node` beginning around `begin_ns`.
    /// Identity (and branch-free past one comparison) on machines without
    /// an active fault plan, so fault-free timings are unchanged.
    ///
    /// The factor is sampled at the requested begin instant; a window is a
    /// coarse model of a sick NIC, not a cycle-accurate rate limiter.
    #[inline]
    fn degraded_occ(&self, node: usize, begin_ns: u64, occ: u64) -> u64 {
        let f = self.machine.degradation_factor(node, begin_ns);
        if f >= 1.0 {
            occ
        } else {
            (occ as f64 / f).round() as u64
        }
    }

    /// Run one transfer's reservations, requested by `pe` from `start`, as
    /// one arbiter turn (see [`Machine::nic_turn`]).
    #[inline]
    fn turn<R>(&self, pe: PeId, start: u64, f: impl FnOnce() -> R) -> R {
        match self.lanes {
            Lanes::Nics => self.machine.nic_turn(pe, start, f),
            Lanes::Idle => f(),
        }
    }

    /// Reserve `occ` on `lane` of `node`'s NIC no earlier than `begin`. A
    /// `payload` occupancy stretches under NIC degradation; a control
    /// message's does not.
    #[inline]
    fn reserve(
        &self,
        lane: Lane,
        node: usize,
        begin: u64,
        occ: u64,
        bytes: usize,
        payload: bool,
    ) -> Reservation {
        match self.lanes {
            Lanes::Nics => {
                let occ = if payload { self.degraded_occ(node, begin, occ) } else { occ };
                self.machine.nic(node).reserve(lane, begin, occ, bytes)
            }
            Lanes::Idle => Reservation { begin, end: begin + occ },
        }
    }

    /// One message of `bytes` from node `from` to node `to`, leaving no
    /// earlier than `begin` (see [`Leg`]).
    #[inline]
    fn leg(
        &self,
        from: usize,
        to: usize,
        begin: u64,
        occ: u64,
        bytes: usize,
        payload: bool,
    ) -> Leg {
        let tx = self.reserve(Lane::Tx, from, begin, occ, bytes, payload);
        let rx_start = tx.begin + self.latency();
        let rx = self.reserve(Lane::Rx, to, rx_start, occ, bytes, payload);
        Leg { tx, rx, queue_ns: (tx.begin - begin) + (rx.begin - rx_start) }
    }

    /// A payload leg from `from`'s node to `to`'s, as one turn of `pe`.
    #[inline]
    fn send(&self, pe: PeId, from: PeId, to: PeId, begin: u64, occ: u64, bytes: usize) -> Leg {
        let (from, to) = (self.machine.node_of(from), self.machine.node_of(to));
        self.turn(pe, begin, || self.leg(from, to, begin, occ, bytes, true))
    }

    /// An intra-node delivery of `occ` ns of copying that starts one fabric
    /// latency after `begin`. No NIC is involved.
    #[inline]
    fn intra(&self, begin: u64, occ: u64) -> FlowDetail {
        let t = begin + self.wire().intra.latency_ns.round() as u64 + occ;
        FlowDetail { queue_ns: 0, service_ns: occ, remote_begin: t - occ, remote_end: t }
    }

    /// Rounded intra-node copy time of `bytes`.
    #[inline]
    fn intra_occ(&self, bytes: usize) -> u64 {
        self.wire().intra.occupancy_ns(bytes).round() as u64
    }

    /// Public view of the control-message occupancy (used to account for
    /// polling traffic of spin-based locks).
    pub fn control_msg_occupancy_ns(&self) -> f64 {
        self.control_occupancy_ns()
    }

    #[inline]
    fn latency(&self) -> u64 {
        self.wire().inter.latency_ns.round() as u64
    }

    /// Rendezvous handshake cost paid before large payloads flow.
    #[inline]
    fn rendezvous_ns(&self, bytes: usize) -> u64 {
        if bytes > self.profile.rendezvous_threshold {
            (2.0 * self.wire().inter.latency_ns + 2.0 * self.control_occupancy_ns()).round() as u64
        } else {
            0
        }
    }

    /// Timing of a contiguous put of `bytes` from `src` to `dst`, issued at
    /// virtual time `start` but with data flow not beginning before `floor`
    /// (used by `fence` to order deliveries), with the queue/service/delivery
    /// breakdown of the same reservations.
    pub fn put(
        &self,
        src: PeId,
        dst: PeId,
        bytes: usize,
        start: u64,
        floor: u64,
    ) -> (PutTiming, FlowDetail) {
        let issue_done = start + self.profile.put_issue_ns.round() as u64;
        if self.machine.same_node(src, dst) {
            let d = self.intra(issue_done.max(floor), self.intra_occ(bytes));
            let t = d.remote_end;
            return (PutTiming { local_complete: t, remote_complete: t }, d);
        }
        let flow_start = (issue_done + self.rendezvous_ns(bytes)).max(floor);
        let leg =
            self.send(src, src, dst, flow_start, self.occupancy_ns(bytes).round() as u64, bytes);
        let t = PutTiming { local_complete: leg.tx.end, remote_complete: leg.rx.end };
        (t, leg.detail())
    }

    /// Completion time of a blocking get of `bytes` of `dst`'s memory into
    /// `src` (the caller), issued at `start`, with the queue/service
    /// breakdown; the delivery window is the target NIC streaming the
    /// payload back.
    pub fn get(&self, src: PeId, dst: PeId, bytes: usize, start: u64) -> (u64, FlowDetail) {
        let issue_done = start + self.profile.get_issue_ns.round() as u64;
        if self.machine.same_node(src, dst) {
            let d = self.intra(issue_done, self.intra_occ(bytes));
            return (d.remote_end, d);
        }
        let src_node = self.machine.node_of(src);
        let dst_node = self.machine.node_of(dst);
        let req_occ = self.control_occupancy_ns().round() as u64;
        let data_occ = self.occupancy_ns(bytes).round() as u64;
        let (req, data) = self.turn(src, issue_done, || {
            // Request message out, then the target NIC streams the payload
            // back through the source NIC.
            let req = self.reserve(Lane::Tx, src_node, issue_done, req_occ, 8, false);
            let data_start = req.end + self.latency();
            (req, self.leg(dst_node, src_node, data_start, data_occ, bytes, true))
        });
        let d = FlowDetail {
            queue_ns: (req.begin - issue_done) + data.queue_ns,
            service_ns: (req.end - req.begin) + data.service_ns(),
            remote_begin: data.tx.begin,
            remote_end: data.tx.end,
        };
        (data.rx.end, d)
    }

    /// Timing of a remote atomic on an 8-byte word of `dst`'s memory, with
    /// the queue/service breakdown. `fetching` operations block for the
    /// result; non-fetching ones return after local completion like a small
    /// put. Control messages do not stretch under NIC degradation.
    pub fn amo(&self, src: PeId, dst: PeId, fetching: bool, start: u64) -> (AmoTiming, FlowDetail) {
        let wire = *self.wire();
        let issue_done = start + self.profile.put_issue_ns.round() as u64;
        if self.machine.same_node(src, dst) {
            let t = issue_done
                + match self.profile.amo {
                    AmoSupport::Native { extra_ns } => {
                        (wire.intra.latency_ns + wire.amo_ns + extra_ns).round() as u64
                    }
                    AmoSupport::AmEmulated { handler_ns } => {
                        (2.0 * wire.intra.latency_ns + handler_ns).round() as u64
                    }
                };
            let d = FlowDetail { remote_begin: t, remote_end: t, ..Default::default() };
            return (AmoTiming { local_complete: t, remote_complete: t }, d);
        }
        let src_node = self.machine.node_of(src);
        let dst_node = self.machine.node_of(dst);
        let ctrl = self.control_occupancy_ns().round() as u64;
        match self.profile.amo {
            AmoSupport::Native { extra_ns } => {
                let occ = (self.control_occupancy_ns() + extra_ns).round() as u64;
                let out = self.turn(src, issue_done, || {
                    self.leg(src_node, dst_node, issue_done, occ, 8, false)
                });
                let executed = out.rx.end + wire.amo_ns.round() as u64;
                // A fetched result rides a small reply back.
                let local = if fetching { executed + self.latency() + ctrl } else { out.tx.end };
                let d = FlowDetail { remote_end: executed, ..out.detail() };
                (AmoTiming { local_complete: local, remote_complete: executed }, d)
            }
            AmoSupport::AmEmulated { handler_ns } => {
                // Request AM -> software handler at target -> reply AM.
                // Always a full round trip, fetching or not (the handler
                // must acknowledge to preserve atomicity).
                let handler = handler_ns.round() as u64;
                let (out, reply) = self.turn(src, issue_done, || {
                    let out = self.leg(src_node, dst_node, issue_done, ctrl, 8, false);
                    let reply_start = out.rx.end + handler + self.latency();
                    (out, self.reserve(Lane::Rx, src_node, reply_start, ctrl, 8, false))
                });
                let executed = out.rx.end + handler;
                let d = FlowDetail {
                    queue_ns: out.queue_ns + (reply.begin - (executed + self.latency())),
                    service_ns: out.service_ns() + (reply.end - reply.begin),
                    remote_begin: out.rx.begin,
                    remote_end: executed,
                };
                (AmoTiming { local_complete: reply.end, remote_complete: executed }, d)
            }
        }
    }

    /// Timing of a NIC-native 1-D strided put (`shmem_iput` on Cray SHMEM):
    /// one descriptor, per-element scatter cost at the wire.
    ///
    /// Returns `None` when the profile implements strided transfers as a
    /// software loop — the caller must loop over contiguous puts itself
    /// (that is the observable behaviour the paper reports for MVAPICH2-X).
    pub fn strided_put_native(
        &self,
        src: PeId,
        dst: PeId,
        nelems: usize,
        elem_bytes: usize,
        start: u64,
        floor: u64,
    ) -> Option<(PutTiming, FlowDetail)> {
        let StridedSupport::Native { per_elem_ns } = self.profile.strided else {
            return None;
        };
        let bytes = nelems * elem_bytes;
        let flow_start = (start + self.profile.put_issue_ns.round() as u64).max(floor);
        let scatter = per_elem_ns * nelems as f64;
        if self.machine.same_node(src, dst) {
            let d = self.intra(flow_start, self.intra_occ(bytes) + scatter.round() as u64);
            let t = d.remote_end;
            return Some((PutTiming { local_complete: t, remote_complete: t }, d));
        }
        let occ = (self.occupancy_ns(bytes) + scatter).round() as u64;
        let leg = self.send(src, src, dst, flow_start, occ, bytes);
        Some((PutTiming { local_complete: leg.tx.end, remote_complete: leg.rx.end }, leg.detail()))
    }

    /// Like [`Self::strided_put_native`] but for gets.
    pub fn strided_get_native(
        &self,
        src: PeId,
        dst: PeId,
        nelems: usize,
        elem_bytes: usize,
        start: u64,
    ) -> Option<(u64, FlowDetail)> {
        let StridedSupport::Native { per_elem_ns } = self.profile.strided else {
            return None;
        };
        let (done, d) = self.get(src, dst, nelems * elem_bytes, start);
        Some((done + (per_elem_ns * nelems as f64).round() as u64, d))
    }

    /// Software unpack/pack cost of an AM handler touching `n` pieces at
    /// the target: one dispatch plus two local ops per piece.
    #[inline]
    fn unpack_ns(&self, n: usize) -> u64 {
        (self.profile.am_handler_ns + n as f64 * self.machine.config().compute.local_op_ns * 2.0)
            .round() as u64
    }

    /// Cost of an AM-packed put: `bytes` travel as one contiguous message
    /// and a software handler unpacks `pieces` at the target, extending the
    /// delivery window there. This models GASNet's VIS / "with-AM" strided
    /// path, and the flush of a coalescing buffer (payload plus per-op
    /// headers, one piece per staged op).
    pub fn am_packed_put(
        &self,
        src: PeId,
        dst: PeId,
        bytes: usize,
        pieces: usize,
        start: u64,
        floor: u64,
    ) -> (PutTiming, FlowDetail) {
        let (t, d) = self.put(src, dst, bytes, start, floor);
        let remote_complete = t.remote_complete + self.unpack_ns(pieces);
        (PutTiming { remote_complete, ..t }, FlowDetail { remote_end: remote_complete, ..d })
    }

    /// Cost of an AM-packed gather-get: one small request, the target's
    /// handler packs `pieces` pieces, one contiguous reply of `bytes`.
    pub fn am_packed_get(
        &self,
        src: PeId,
        dst: PeId,
        bytes: usize,
        pieces: usize,
        start: u64,
    ) -> (u64, FlowDetail) {
        self.get(src, dst, bytes, start + self.unpack_ns(pieces))
    }

    /// Timing of an active-message request: one wire transfer of the
    /// argument payload, then the registered handler (profile dispatch cost
    /// plus `handler_extra_ns` of target-side compute) executes at the
    /// target. No round trip — that is the whole point: a get–compute–put
    /// sequence collapses into a single request message. `executed` is when
    /// the handler's effects are visible at the target (what `quiet` waits
    /// for); `local_complete` is when the request left the source NIC.
    pub fn am_request(
        &self,
        src: PeId,
        dst: PeId,
        arg_bytes: usize,
        handler_extra_ns: f64,
        start: u64,
        floor: u64,
    ) -> (AmTiming, FlowDetail) {
        let handler_ns = (self.profile.am_handler_ns + handler_extra_ns).round() as u64;
        let bytes = AM_HEADER_BYTES + arg_bytes;
        let flow_start = (start + self.profile.put_issue_ns.round() as u64).max(floor);
        let (local_complete, d) = if self.machine.same_node(src, dst) {
            let d = self.intra(flow_start, self.intra_occ(bytes));
            (d.remote_end, d)
        } else {
            let occ = self.occupancy_ns(bytes).round() as u64;
            let leg = self.send(src, src, dst, flow_start, occ, bytes);
            (leg.tx.end, leg.detail())
        };
        let executed = d.remote_end + handler_ns;
        (AmTiming { local_complete, executed }, FlowDetail { remote_end: executed, ..d })
    }

    /// Timing of an active-message reply: the target streams `reply_bytes`
    /// back to the caller `src` once the handler finished at `executed`.
    /// Returns when the reply is delivered at the caller, with the reply
    /// leg's own breakdown (its delivery window is at the caller).
    pub fn am_reply(
        &self,
        src: PeId,
        dst: PeId,
        reply_bytes: usize,
        executed: u64,
    ) -> (u64, FlowDetail) {
        let bytes = AM_HEADER_BYTES + reply_bytes;
        let d = if self.machine.same_node(src, dst) {
            self.intra(executed, self.intra_occ(bytes))
        } else {
            self.send(src, dst, src, executed, self.occupancy_ns(bytes).round() as u64, bytes)
                .detail()
        };
        (d.remote_end, d)
    }

    // ---- probe estimators ----------------------------------------------------
    //
    // The reserving entry points above move the shared NIC timelines, so a
    // planner that wants to *compare* candidate transfer shapes cannot call
    // them on the machine's lanes without perturbing the simulation. Each
    // estimator is the reserving call on idle lanes at `start = 0`,
    // `floor = 0`: what the transfer costs when nothing else is in flight.

    /// [`Self::put`] of `bytes` from `src` to `dst` on idle lanes.
    pub fn put_estimate(&self, src: PeId, dst: PeId, bytes: usize) -> PutTiming {
        self.idle().put(src, dst, bytes, 0, 0).0
    }

    /// [`Self::get`] of `bytes` on idle lanes.
    pub fn get_estimate_ns(&self, src: PeId, dst: PeId, bytes: usize) -> u64 {
        self.idle().get(src, dst, bytes, 0).0
    }

    /// The fetching [`Self::amo`] on idle lanes: what an uncontended
    /// compare-and-swap or fetch-add costs the caller.
    pub fn amo_estimate_ns(&self, src: PeId, dst: PeId) -> u64 {
        self.idle().amo(src, dst, true, 0).0.local_complete
    }

    /// [`Self::strided_get_native`] on idle lanes (`None` on software-loop
    /// profiles).
    pub fn strided_get_estimate_ns(
        &self,
        src: PeId,
        dst: PeId,
        nelems: usize,
        elem_bytes: usize,
    ) -> Option<u64> {
        Some(self.idle().strided_get_native(src, dst, nelems, elem_bytes, 0)?.0)
    }

    /// [`Self::am_packed_get`] of `nelems` pieces of `elem_bytes` on idle
    /// lanes.
    pub fn am_packed_get_estimate_ns(
        &self,
        src: PeId,
        dst: PeId,
        nelems: usize,
        elem_bytes: usize,
    ) -> u64 {
        self.idle().am_packed_get(src, dst, nelems * elem_bytes, nelems, 0).0
    }

    /// [`Self::strided_put_native`] on idle lanes (`None` on software-loop
    /// profiles).
    pub fn strided_put_estimate(
        &self,
        src: PeId,
        dst: PeId,
        nelems: usize,
        elem_bytes: usize,
    ) -> Option<PutTiming> {
        Some(self.idle().strided_put_native(src, dst, nelems, elem_bytes, 0, 0)?.0)
    }

    /// [`Self::am_packed_put`] of `nelems` pieces of `elem_bytes` on idle
    /// lanes.
    pub fn am_packed_put_estimate(
        &self,
        src: PeId,
        dst: PeId,
        nelems: usize,
        elem_bytes: usize,
    ) -> PutTiming {
        self.idle().am_packed_put(src, dst, nelems * elem_bytes, nelems, 0, 0).0
    }

    /// Cost of a dissemination barrier over `n` PEs.
    pub fn barrier_ns(&self, n: usize) -> f64 {
        if n <= 1 {
            return self.machine.config().compute.local_op_ns;
        }
        let rounds = (n as f64).log2().ceil();
        let link =
            if self.machine.config().nodes > 1 { self.wire().inter } else { self.wire().intra };
        rounds * (link.latency_ns + self.control_occupancy_ns() + self.profile.put_issue_ns)
    }

    /// Direct load/store copy cost on the local node (the `shmem_ptr` fast
    /// path the paper lists as future work).
    pub fn local_copy(&self, bytes: usize, start: u64) -> u64 {
        start + (self.wire().intra.occupancy_ns(bytes)).round() as u64 + 5
    }

    /// One element loaded or stored through a `shmem_ptr` view: about one
    /// cache transaction, a tenth of the intra-node latency.
    pub fn direct_access_ns(&self) -> f64 {
        self.wire().intra.latency_ns * 0.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_machine::{stampede, titan, MachineConfig, Platform};

    /// Launch `cfg` and hand every PE a cost model of `p`: `f(cm, pe)` makes
    /// that PE's own calls, if it has any, so every turn is requested by the
    /// PE it is for and tied starts are granted in PE order. The PEs' `Some`
    /// answers, in PE order.
    fn launch<R: Send>(
        cfg: MachineConfig,
        p: ConduitProfile,
        f: impl Fn(&CostModel, PeId) -> Option<R> + Send + Sync,
    ) -> Vec<R> {
        let out = pgas_machine::run(cfg, |pe| f(&CostModel::new(pe.machine(), p), pe.id()));
        out.results.into_iter().flatten().collect()
    }

    /// [`launch`] with only PE 0 making calls.
    fn on_pe0<R: Send>(
        cfg: MachineConfig,
        p: ConduitProfile,
        f: impl Fn(&CostModel) -> R + Send + Sync,
    ) -> R {
        launch(cfg, p, |cm, pe| (pe == 0).then(|| f(cm))).remove(0)
    }

    fn shmem() -> ConduitProfile {
        ConduitProfile::mvapich_shmem()
    }

    #[test]
    fn put_latency_grows_with_size() {
        let (small, large) = on_pe0(stampede(2, 16), shmem(), |cm| {
            let small = cm.put(0, 16, 8, 0, 0).0;
            (small, cm.put(0, 16, 1 << 20, small.remote_complete, 0).0)
        });
        let small_dur = small.remote_complete;
        let large_dur = large.remote_complete - small.remote_complete;
        assert!(large_dur > 10 * small_dur, "1 MiB ({large_dur}) vs 8 B ({small_dur})");
    }

    #[test]
    fn large_put_approaches_link_bandwidth() {
        let bytes = 8 << 20;
        let t = on_pe0(stampede(2, 16), shmem(), |cm| cm.put(0, 16, bytes, 0, 0).0);
        let gb_per_s = bytes as f64 / t.remote_complete as f64; // bytes/ns
        let wire_bw = stampede(2, 16).wire.inter.bytes_per_ns;
        assert!(gb_per_s > 0.8 * wire_bw, "sustained {gb_per_s:.2} of wire {wire_bw}");
        assert!(gb_per_s <= wire_bw);
    }

    #[test]
    fn intra_node_put_is_much_faster() {
        let done = launch(stampede(2, 16), shmem(), |cm, pe| match pe {
            0 => Some(cm.put(0, 1, 1024, 0, 0).0.remote_complete),
            2 => Some(cm.put(2, 17, 1024, 0, 0).0.remote_complete),
            _ => None,
        });
        let (local, remote) = (done[0], done[1]);
        assert!(local * 3 < remote, "local {local} remote {remote}");
    }

    #[test]
    fn put_local_completion_precedes_remote() {
        let t = on_pe0(stampede(2, 16), shmem(), |cm| cm.put(0, 16, 4096, 100, 0).0);
        assert!(t.local_complete < t.remote_complete);
        assert!(t.local_complete > 100);
    }

    #[test]
    fn fence_floor_delays_data_flow() {
        let unfenced = on_pe0(stampede(2, 16), shmem(), |cm| cm.put(0, 16, 64, 0, 0).0);
        // Fresh machine so NIC state doesn't carry over.
        let fenced = on_pe0(stampede(2, 16), shmem(), |cm| cm.put(0, 16, 64, 0, 50_000).0);
        assert!(fenced.remote_complete >= 50_000);
        assert!(fenced.remote_complete > unfenced.remote_complete);
    }

    #[test]
    fn get_costs_a_round_trip() {
        let put = on_pe0(stampede(2, 16), shmem(), |cm| cm.put(0, 16, 8, 0, 0).0.remote_complete);
        let get = on_pe0(stampede(2, 16), shmem(), |cm| cm.get(0, 16, 8, 0).0);
        let latency = stampede(2, 16).wire.inter.latency_ns as u64;
        assert!(get > put + latency, "get {get} put {put}");
    }

    #[test]
    fn contention_divides_bandwidth() {
        // 16 concurrent large puts through one NIC pair vs one alone.
        let bytes = 1 << 20;
        let done = launch(stampede(2, 16), shmem(), |cm, src| {
            (src < 16).then(|| cm.put(src, 16 + src, bytes, 0, 0).0.remote_complete)
        });
        let last = done.into_iter().max().unwrap();
        let alone =
            on_pe0(stampede(2, 16), shmem(), |cm| cm.put(0, 16, bytes, 0, 0).0.remote_complete);
        let ratio = last as f64 / alone as f64;
        assert!(ratio > 10.0 && ratio < 20.0, "16-way contention ratio {ratio:.1}");
    }

    #[test]
    fn native_amo_beats_am_emulated() {
        let amo = |p| on_pe0(titan(2, 16), p, |cm| cm.amo(0, 16, true, 0).0.local_complete);
        let t_native = amo(ConduitProfile::cray_shmem(Platform::Titan));
        let t_am = amo(ConduitProfile::gasnet(Platform::Titan));
        assert!(
            t_am as f64 > 1.2 * t_native as f64,
            "AM-emulated {t_am} should clearly exceed native {t_native}"
        );
    }

    #[test]
    fn nonfetching_amo_returns_early_on_native() {
        let amo = |fetching| {
            let p = ConduitProfile::cray_shmem(Platform::Titan);
            on_pe0(titan(2, 16), p, move |cm| cm.amo(0, 16, fetching, 0).0)
        };
        let t = amo(false);
        assert!(t.local_complete < t.remote_complete);
        let tf = amo(true);
        assert!(tf.local_complete > tf.remote_complete, "fetch waits for the reply");
    }

    #[test]
    fn strided_native_only_on_capable_profiles() {
        let cray = ConduitProfile::cray_shmem(Platform::Titan);
        assert!(
            on_pe0(titan(2, 16), cray, |cm| cm.strided_put_native(0, 16, 100, 8, 0, 0)).is_some()
        );
        let (put, get) = on_pe0(titan(2, 16), shmem(), |cm| {
            (cm.strided_put_native(0, 16, 100, 8, 0, 0), cm.strided_get_native(0, 16, 100, 8, 0))
        });
        assert!(put.is_none());
        assert!(get.is_none());
    }

    #[test]
    fn one_native_strided_beats_elementwise_puts() {
        let cray = ConduitProfile::cray_shmem(Platform::Titan);
        let n = 64;
        let strided = on_pe0(titan(2, 16), cray, |cm| {
            cm.strided_put_native(0, 16, n, 8, 0, 0).unwrap().0.remote_complete
        });
        let t = on_pe0(titan(2, 16), cray, |cm| {
            let mut t = 0;
            let mut clock = 0;
            for _ in 0..n {
                let pt = cm.put(0, 16, 8, clock, 0).0;
                clock = pt.local_complete;
                t = pt.remote_complete;
            }
            t
        });
        assert!(strided * 4 < t, "one iput {strided} vs {n} puts {t}");
    }

    #[test]
    fn rendezvous_adds_a_round_trip() {
        let p = ConduitProfile::mpi3(Platform::Stampede); // 8 KiB threshold
        let put = |bytes| on_pe0(stampede(2, 16), p, move |cm| cm.put(0, 16, bytes, 0, 0).0);
        let below = put(8 * 1024).remote_complete;
        let above = put(8 * 1024 + 1).remote_complete;
        let delta = above as i64 - below as i64;
        let latency = stampede(2, 16).wire.inter.latency_ns;
        assert!(delta as f64 > 1.5 * latency, "delta {delta}");
    }

    #[test]
    fn barrier_cost_grows_logarithmically() {
        let (b1, b2, b1024) = on_pe0(stampede(64, 16), shmem(), |cm| {
            (cm.barrier_ns(1), cm.barrier_ns(2), cm.barrier_ns(1024))
        });
        assert!((b1024 / b2 - 10.0).abs() < 0.01, "log2(1024)/log2(2) = 10, got {}", b1024 / b2);
        assert!(b1 < b2);
    }

    #[test]
    fn am_packed_put_charges_unpack_at_target() {
        let p = ConduitProfile::gasnet(Platform::Stampede);
        let plain = on_pe0(stampede(2, 16), p, |cm| cm.put(0, 16, 800, 0, 0).0);
        let packed = on_pe0(stampede(2, 16), p, |cm| cm.am_packed_put(0, 16, 800, 100, 0, 0).0);
        assert!(packed.remote_complete > plain.remote_complete);
        assert_eq!(packed.local_complete, plain.local_complete);
    }

    #[test]
    fn estimates_match_real_calls_on_idle_nics() {
        // Every estimator must equal the corresponding reserving call issued
        // at start = 0 on a fresh machine, for every profile family and for
        // both intra- and inter-node pairs.
        type Cfg = fn() -> MachineConfig;
        let cases: [(ConduitProfile, Cfg); 4] = [
            (ConduitProfile::cray_shmem(Platform::Titan), || titan(2, 16)),
            (ConduitProfile::mvapich_shmem(), || stampede(2, 16)),
            (ConduitProfile::gasnet(Platform::Stampede), || stampede(2, 16)),
            (ConduitProfile::mpi3(Platform::Stampede), || stampede(2, 16)),
        ];
        for (p, cfg) in cases {
            // Estimates reserve nothing, so each is issued beside its call
            // on one fresh machine.
            let (src, label) = (0, p.label());
            for dst in [1, 16] {
                let (est, real) = on_pe0(cfg(), p, |cm| {
                    (cm.amo_estimate_ns(src, dst), cm.amo(src, dst, true, 0).0.local_complete)
                });
                assert_eq!(est, real, "fetching amo {src}->{dst} on {label}");
                for bytes in [8usize, 800, 64 * 1024, 1 << 20] {
                    let (est, real) = on_pe0(cfg(), p, |cm| {
                        (cm.put_estimate(src, dst, bytes), cm.put(src, dst, bytes, 0, 0).0)
                    });
                    assert_eq!(est, real, "put {bytes}B {src}->{dst} on {label}");
                    let (est, real) = on_pe0(cfg(), p, |cm| {
                        (cm.get_estimate_ns(src, dst, bytes), cm.get(src, dst, bytes, 0).0)
                    });
                    assert_eq!(est, real, "get {bytes}B {src}->{dst} on {label}");
                }
                for n in [8usize, 100, 1024] {
                    let (est, real) = on_pe0(cfg(), p, |cm| {
                        let real = cm.strided_put_native(src, dst, n, 8, 0, 0).map(|r| r.0);
                        (cm.strided_put_estimate(src, dst, n, 8), real)
                    });
                    assert_eq!(est, real, "iput n={n} {src}->{dst} on {label}");
                    let (est, real) = on_pe0(cfg(), p, |cm| {
                        let real = cm.am_packed_put(src, dst, n * 8, n, 0, 0).0;
                        (cm.am_packed_put_estimate(src, dst, n, 8), real)
                    });
                    assert_eq!(est, real, "am n={n} {src}->{dst} on {label}");
                    let (est, real) = on_pe0(cfg(), p, |cm| {
                        let real = cm.strided_get_native(src, dst, n, 8, 0).map(|r| r.0);
                        (cm.strided_get_estimate_ns(src, dst, n, 8), real)
                    });
                    assert_eq!(est, real, "iget n={n} {src}->{dst} on {label}");
                    let (est, real) = on_pe0(cfg(), p, |cm| {
                        let real = cm.am_packed_get(src, dst, n * 8, n, 0).0;
                        (cm.am_packed_get_estimate_ns(src, dst, n, 8), real)
                    });
                    assert_eq!(est, real, "am get n={n} {src}->{dst} on {label}");
                }
            }
        }
    }

    #[test]
    fn degradation_window_stretches_transfers() {
        use pgas_machine::{DegradedWindow, FaultPlan};
        let put = |plan| {
            let cfg = stampede(2, 16).with_faults(plan);
            on_pe0(cfg, shmem(), |cm| cm.put(0, 16, 1 << 20, 0, 0).0.remote_complete)
        };
        let window = |node, begin_ns, end_ns| {
            let w = DegradedWindow { node, begin_ns, end_ns, bandwidth_factor: 0.25 };
            FaultPlan::new(5).with_degraded_window(w)
        };
        let slow = put(window(1, 0, u64::MAX));
        let fast = put(FaultPlan::none());
        assert!(slow > 2 * fast, "degraded rx {slow} vs nominal {fast}");

        // Outside the window (different node) nothing changes.
        let unaffected = put(window(0, 1 << 60, 1 << 61));
        assert_eq!(unaffected, fast);
    }

    #[test]
    fn estimates_do_not_reserve_nic_time() {
        // Probing must leave the shared timelines untouched: a real call after
        // a barrage of estimates sees the same timing as on a fresh machine.
        let after_probes = on_pe0(stampede(2, 16), shmem(), |cm| {
            for bytes in [8usize, 4096, 1 << 20] {
                let _ = cm.put_estimate(0, 16, bytes);
                let _ = cm.get_estimate_ns(0, 16, bytes);
                let _ = cm.strided_put_estimate(0, 16, bytes / 8, 8);
                let _ = cm.am_packed_put_estimate(0, 16, bytes / 8, 8);
                let _ = cm.strided_get_estimate_ns(0, 16, bytes / 8, 8);
                let _ = cm.am_packed_get_estimate_ns(0, 16, bytes / 8, 8);
            }
            cm.put(0, 16, 1 << 20, 0, 0).0
        });
        let fresh = on_pe0(stampede(2, 16), shmem(), |cm| cm.put(0, 16, 1 << 20, 0, 0).0);
        assert_eq!(after_probes, fresh);
    }

    #[test]
    fn estimates_ignore_busy_and_degraded_lanes() {
        use pgas_machine::{DegradedWindow, FaultPlan};
        // Node 1 at a quarter of its bandwidth throughout, and both NICs
        // busy for a while: real transfers wait and stretch, idle-lane
        // estimates do not.
        let estimates =
            |cm: &CostModel| (cm.put_estimate(0, 16, 4096), cm.get_estimate_ns(1, 17, 4096));
        let window =
            DegradedWindow { node: 1, begin_ns: 0, end_ns: u64::MAX, bandwidth_factor: 0.25 };
        let cfg = stampede(2, 16).with_faults(FaultPlan::new(5).with_degraded_window(window));
        let (busy, est, real) = on_pe0(cfg, shmem(), |cm| {
            let busy = cm.put(0, 16, 1 << 20, 0, 0).0;
            (busy, estimates(cm), cm.put(0, 16, 4096, 0, 0))
        });
        assert_eq!(est, on_pe0(stampede(2, 16), shmem(), estimates));
        assert!(real.0.remote_complete > busy.local_complete, "queued behind the 1 MiB put");
        assert!(real.1.queue_ns > 0);
    }

    #[test]
    fn an_am_reply_returns_its_own_leg() {
        // The caller's RX lane is busy with a 1 MiB put from node 1, which
        // PE 17 issues before a barrier that the caller, PE 0, replies after.
        let legs = launch(stampede(2, 16), shmem(), |cm, pe| {
            let inbound = (pe == 17).then(|| cm.put(17, 1, 1 << 20, 0, 0).0);
            cm.machine().barrier_all(pe, 0.0);
            match pe {
                0 => Some((None, Some((cm.am_reply(0, 16, 64, 0), cm.am_reply(0, 1, 64, 1_000))))),
                17 => Some((inbound, None)),
                _ => None,
            }
        });
        let ((done, reply), (local_done, local)) = legs[0].1.unwrap();
        let inbound = legs[1].0.unwrap();
        assert_eq!(reply.remote_end, done, "delivered at the caller");
        assert!(reply.remote_begin >= inbound.remote_complete, "behind the inbound put");
        let cm_occ =
            |cm: &CostModel| (cm.occupancy_ns(AM_HEADER_BYTES + 64).round() as u64, cm.latency());
        let (occ, latency) = on_pe0(stampede(2, 16), shmem(), cm_occ);
        assert_eq!(reply.service_ns, 2 * occ);
        assert_eq!(reply.queue_ns, reply.remote_begin - latency, "rx queue only");
        // Within a node: one copy, nothing queued.
        assert_eq!((local.queue_ns, local.remote_end), (0, local_done));
    }

    #[test]
    fn a_get_is_delivered_by_the_target_streaming_back() {
        let p = shmem();
        let (done, d, req, data, latency) = on_pe0(stampede(2, 16), p, |cm| {
            let (done, d) = cm.get(0, 16, 4096, 1_000);
            let req = cm.control_occupancy_ns().round() as u64;
            (done, d, req, cm.occupancy_ns(4096).round() as u64, cm.latency())
        });
        let issue_done = 1_000 + p.get_issue_ns.round() as u64;
        assert_eq!(d.remote_begin, issue_done + req + latency, "the target's TX lane");
        assert_eq!(d.remote_end, d.remote_begin + data);
        assert_eq!(done, d.remote_begin + latency + data, "through the caller's RX lane");
        assert_eq!((d.queue_ns, d.service_ns), (0, req + 2 * data));
    }
}
