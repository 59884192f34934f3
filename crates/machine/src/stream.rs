//! Live streaming snapshots: a bounded ring-buffer channel that samples the
//! machine's observable state at a virtual-time cadence *while the
//! simulation runs*, without moving a single virtual clock.
//!
//! The channel exists for tools like `examples/pgas_top.rs`: a consumer
//! thread drains [`StreamSample`]s out of a [`SnapshotRing`] and renders a
//! refreshing view of per-PE clocks, live metric counters, each PE's most
//! recent span and per-NIC traffic. A sample is taken by the first PE to
//! cross a cadence boundary. One PE runs at a time on either carrier, so
//! which PE that is, and what it sees, is part of the schedule: a program
//! streams the same samples on every run and on both carriers
//! (`stream_samples_are_the_same_on_both_engines_and_every_run`,
//! `streamed_samples_repeat_exactly`). Attaching a stream also changes no
//! virtual clock, with the same contract as the observability-off check:
//! sampling only ever reads.
//!
//! Enabling resolves like every other knob (see `crate::knobs`), minus the
//! environment layer — a stream without a consumer holding the ring is
//! useless, so there is nothing sensible an env var could do.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::launch::NicSnapshot;
use crate::metrics::WindowEntry;
use crate::trace::{ReqRecord, Span};

/// One sample of the machine's observable state at (or just past) a cadence
/// boundary in virtual time.
#[derive(Debug, Clone)]
pub struct StreamSample {
    /// Monotone sample index: how many samples the ring had been handed
    /// before this one (0 for the first sample of a fresh ring).
    pub seq: u64,
    /// Virtual time of the sampling PE when the sample was taken, ns.
    pub t_ns: u64,
    /// Every PE's virtual clock at sampling time, ns.
    pub clocks: Vec<u64>,
    /// Live counter totals (summed over PEs and peers), sorted by name.
    /// Empty when the machine runs without metrics.
    pub counters: Vec<(&'static str, u64)>,
    /// Each PE's most recently recorded span, if any. Empty when the
    /// machine runs without tracing.
    pub inflight: Vec<Option<Span>>,
    /// Per-node NIC traffic so far.
    pub nics: Vec<NicSnapshot>,
    /// The live windowed series of the metric named by
    /// [`StreamConfig::with_window_metric`], merged across PEs — what
    /// `pgas_top -- serve` renders p50/p99/p999 and burn rates from. Empty
    /// unless the machine records windowed metrics and a metric was named.
    pub windows: Vec<WindowEntry>,
    /// Every request completed so far, sorted `(pe, id)` — the live feed of
    /// `pgas_top -- serve`'s "top tail causes" panel. Empty unless the
    /// machine is traced, the workload marks requests, and the stream opted
    /// in via [`StreamConfig::with_requests`].
    pub requests: Vec<ReqRecord>,
}

#[derive(Debug, Default)]
struct RingInner {
    samples: VecDeque<StreamSample>,
    /// Samples evicted because the consumer fell behind.
    dropped: u64,
    /// Samples pushed over the ring's lifetime.
    total: u64,
}

/// Bounded MPSC ring carrying [`StreamSample`]s from the simulation to a
/// consumer. When full, the oldest sample is evicted (and counted), so a
/// slow consumer degrades to "recent view only" instead of stalling PEs.
#[derive(Debug)]
pub struct SnapshotRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl SnapshotRing {
    pub fn new(capacity: usize) -> SnapshotRing {
        assert!(capacity > 0, "snapshot ring needs a non-zero capacity");
        SnapshotRing { capacity, inner: Mutex::new(RingInner::default()) }
    }

    /// Append a sample, evicting the oldest if the ring is full.
    pub fn push(&self, sample: StreamSample) {
        self.push_with(|_| Some(sample));
    }

    /// Run `produce` under the ring's lock with the index of the next sample
    /// (the lifetime push count) and append what it returns, if anything.
    /// The machine claims a cadence boundary, numbers the sample and pushes
    /// it inside one such call, which is what keeps the ring in `seq` order.
    /// `produce` must not touch the ring.
    pub(crate) fn push_with(&self, produce: impl FnOnce(u64) -> Option<StreamSample>) {
        let mut inner = self.inner.lock();
        let Some(sample) = produce(inner.total) else { return };
        if inner.samples.len() == self.capacity {
            inner.samples.pop_front();
            inner.dropped += 1;
        }
        inner.samples.push_back(sample);
        inner.total += 1;
    }

    /// Take every buffered sample, oldest first.
    pub fn drain(&self) -> Vec<StreamSample> {
        self.inner.lock().samples.drain(..).collect()
    }

    /// Clone the most recent sample without consuming anything.
    pub fn latest(&self) -> Option<StreamSample> {
        self.inner.lock().samples.back().cloned()
    }

    /// Buffered (unconsumed) sample count.
    pub fn len(&self) -> usize {
        self.inner.lock().samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples lost to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Samples produced over the ring's lifetime (buffered + consumed +
    /// dropped).
    pub fn total(&self) -> u64 {
        self.inner.lock().total
    }
}

/// A registered push consumer: called with every sample as it is taken, in
/// `seq` order, on the sampling PE's thread and under the ring's lock just
/// before the sample lands in the ring. Must be cheap, non-blocking and must
/// not touch the ring — it runs inside the simulation.
pub type StreamConsumer = Arc<dyn Fn(&StreamSample) + Send + Sync>;

/// Configuration of the streaming snapshot channel: how often to sample (in
/// virtual nanoseconds) and the ring the samples land in. Clone-cheap — all
/// clones share the same ring (and consumer list), which is how the consumer
/// sees the samples.
#[derive(Clone)]
pub struct StreamConfig {
    cadence_ns: u64,
    ring: Arc<SnapshotRing>,
    consumers: Arc<Mutex<Vec<StreamConsumer>>>,
    /// Windowed metric to sample into [`StreamSample::windows`], if any.
    window_metric: Option<&'static str>,
    /// Sample completed request records into [`StreamSample::requests`].
    requests: bool,
}

impl std::fmt::Debug for StreamConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamConfig")
            .field("cadence_ns", &self.cadence_ns)
            .field("ring", &self.ring)
            .field("consumers", &self.consumers.lock().len())
            .finish()
    }
}

impl StreamConfig {
    /// A channel sampling every `cadence_ns` virtual nanoseconds into a
    /// fresh ring holding at most `capacity` samples.
    pub fn new(cadence_ns: u64, capacity: usize) -> StreamConfig {
        assert!(cadence_ns > 0, "stream cadence must be positive");
        StreamConfig {
            cadence_ns,
            ring: Arc::new(SnapshotRing::new(capacity)),
            consumers: Arc::new(Mutex::new(Vec::new())),
            window_metric: None,
            requests: false,
        }
    }

    /// Sample the live windowed series of histogram `name` into every
    /// [`StreamSample`] (requires the machine to record windowed metrics —
    /// see `MachineConfig::with_metrics_window`). Like every stream read,
    /// this moves no virtual clock.
    pub fn with_window_metric(mut self, name: &'static str) -> Self {
        self.window_metric = Some(name);
        self
    }

    /// The windowed metric this stream samples, if any.
    pub fn window_metric(&self) -> Option<&'static str> {
        self.window_metric
    }

    /// Sample completed request records into every [`StreamSample`] (needs
    /// tracing and request markers to produce anything). Off by default —
    /// cloning every completed request per sample is only worth it for
    /// consumers that attribute tails live.
    pub fn with_requests(mut self) -> Self {
        self.requests = true;
        self
    }

    /// Does this stream sample request records?
    pub fn requests_enabled(&self) -> bool {
        self.requests
    }

    /// Sampling cadence in virtual nanoseconds.
    pub fn cadence_ns(&self) -> u64 {
        self.cadence_ns
    }

    /// The shared ring; hold a clone of this on the consumer side.
    pub fn ring(&self) -> Arc<SnapshotRing> {
        Arc::clone(&self.ring)
    }

    /// Register a push consumer that sees every sample as it is taken —
    /// the subscription point external dashboards (and `pgas_top`'s live
    /// availability series) hang off. Consumers registered after the
    /// machine is built still see subsequent samples: the machine shares
    /// this list, it does not copy it.
    pub fn subscribe(&self, consumer: StreamConsumer) {
        self.consumers.lock().push(consumer);
    }

    /// Builder form of [`Self::subscribe`].
    pub fn with_consumer(self, consumer: StreamConsumer) -> Self {
        self.subscribe(consumer);
        self
    }

    /// Fan a freshly pushed sample out to every registered consumer.
    pub(crate) fn notify_consumers(&self, sample: &StreamSample) {
        for c in self.consumers.lock().iter() {
            c(sample);
        }
    }

    /// Number of registered push consumers.
    pub fn consumer_count(&self) -> usize {
        self.consumers.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> StreamSample {
        StreamSample {
            seq,
            t_ns: seq * 100,
            clocks: vec![seq * 100],
            counters: Vec::new(),
            inflight: Vec::new(),
            nics: Vec::new(),
            windows: Vec::new(),
            requests: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_when_full() {
        let ring = SnapshotRing::new(3);
        for i in 0..5 {
            ring.push(sample(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.total(), 5);
        let got = ring.drain();
        assert_eq!(got.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(ring.is_empty());
        assert_eq!(ring.total(), 5, "drain does not reset the lifetime count");
    }

    #[test]
    fn latest_peeks_without_consuming() {
        let ring = SnapshotRing::new(4);
        ring.push(sample(0));
        ring.push(sample(1));
        assert_eq!(ring.latest().unwrap().seq, 1);
        assert_eq!(ring.len(), 2, "latest() is a peek");
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn zero_cadence_is_rejected() {
        StreamConfig::new(0, 8);
    }

    #[test]
    fn consumers_see_every_notified_sample_and_are_shared_across_clones() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cfg = StreamConfig::new(100, 8);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        // Subscribe through a *clone* — the machine holds its own clone of
        // the config, so late subscriptions must still reach it.
        let clone = cfg.clone();
        clone.subscribe(Arc::new(move |s: &StreamSample| {
            seen2.fetch_add(s.seq + 1, Ordering::Relaxed);
        }));
        assert_eq!(cfg.consumer_count(), 1);
        cfg.notify_consumers(&sample(0));
        cfg.notify_consumers(&sample(2));
        assert_eq!(seen.load(Ordering::Relaxed), 1 + 3);
    }
}
