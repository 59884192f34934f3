//! Metrics registry: counters, gauges and log-bucketed histograms keyed by
//! PE × op-kind × peer-node.
//!
//! Every layer of the stack (conduit, openshmem, caf) feeds this registry on
//! each operation when metrics are enabled. The registry is sharded per PE —
//! each PE writes only its own shard — and a shard is flat: one vector per
//! series kind, a histogram's buckets a dense array. A record is an index,
//! not a search: an open-addressed table beside each vector maps the
//! *identity* of the `&'static str` name (address, length) plus peer to the
//! series' position. Text is compared only the first time an address is
//! seen, so two literals with equal text still share a series. Nothing is
//! allocated until a shard records something.
//!
//! The hot path is: lock the shard, probe, bump a vector element. An
//! operation that feeds several series locks **once** for all of them
//! ([`MetricsRegistry::record_op`]). The lock stays an (uncontended) mutex:
//! on the baton carrier PEs are OS threads (one at a time), and
//! `stream_sample` reads every shard from whichever PE crosses the cadence
//! boundary.
//!
//! The windowed feeds keep no histogram per window: a shard appends
//! `(window, value)` to a per-name log, and [`MetricsRegistry::snapshot`] /
//! [`MetricsRegistry::live_window_series`] fold each name's samples — one
//! sort by window, one scratch histogram — into [`WindowEntry`]s.
//!
//! Shards are merged into a deterministic [`MetricsSnapshot`] when the
//! simulation finishes. The snapshot also absorbs the global
//! [`StatsSnapshot`](crate::stats::StatsSnapshot) counters (faults, retries,
//! lock repairs, plan decisions), so a run's entire quantitative story is one
//! queryable value on `SimOutcome`, exportable as JSON or Prometheus text.
//!
//! Whether a machine records metrics is the `metrics` knob (see
//! `crate::knobs`).

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::json::Json;
use crate::stats::StatsSnapshot;

/// Sub-buckets per octave, as a power of two: each power-of-two range is
/// split into `2^SUB_BUCKET_BITS` log-linear (HDR-style) sub-buckets, so the
/// relative quantization error at the tail is bounded by `2^-SUB_BUCKET_BITS`
/// instead of a full octave. Raising this widens `.prom` exports but changes
/// no digests — `RunDigest` folds only exact counts and sums.
pub const SUB_BUCKET_BITS: u32 = 2;

/// Number of histogram buckets. The first four buckets hold the exact values
/// 1..=4 (and zeros in bucket 0); past that, bucket bounds advance
/// log-linearly: four equal-width sub-buckets per octave up to `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 4 + 61 * (1 << SUB_BUCKET_BITS) as usize;

/// A metric key: metric name, owning PE, and optional peer node.
///
/// Names are `&'static str` by design — the set of metric names is closed at
/// compile time, which keeps the hot path allocation-free.
pub type MetricKey = (&'static str, Option<usize>);

#[derive(Debug, Default)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Dense log-linear buckets: element `i` is bucket `i`'s `(count, exact
    /// value sum)`, the vector grown to the highest bucket seen. Carrying the
    /// exact per-bucket sum alongside the count bounds the error of
    /// interpolated percentile estimates: the bucket's true mean anchors the
    /// interpolation, instead of reading values off the bucket edge.
    buckets: Vec<(u64, u64)>,
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let b = bucket_of(v) as usize;
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, (0, 0));
        }
        let slot = &mut self.buckets[b];
        slot.0 += 1;
        slot.1 = slot.1.saturating_add(v);
    }

    /// The non-empty buckets as `(bucket_index, count, exact value sum)`
    /// triples in index order — the form snapshots carry.
    fn sparse(&self) -> Vec<(u8, u64, u64)> {
        let filled = self.buckets.iter().enumerate().filter(|(_, b)| b.0 > 0);
        filled.map(|(i, &(c, s))| (i as u8, c, s)).collect()
    }
}

/// Interpolated percentile over sparse log-linear buckets carrying exact
/// per-bucket `(count, sum)`. The estimate is linear interpolation across the
/// containing bucket's `[lo, hi]` range, shifted so the bucket's centre of
/// mass sits at the bucket's *exact* mean (`sum / count`) rather than its
/// midpoint, then clamped back into the bucket — so the error is bounded by
/// the containing bucket's width, and is exactly zero when the bucket holds
/// one value or many copies of the same value.
fn percentile_impl<'a>(
    count: u64,
    min: u64,
    max: u64,
    q: f64,
    buckets: impl Iterator<Item = &'a (u8, u64, u64)>,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for &(i, c, s) in buckets {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            let lo = if i == 0 { 0 } else { bucket_bound(i - 1) + 1 }.max(min);
            let hi = bucket_bound(i).min(max).max(lo);
            let mean = (s / c).clamp(lo, hi);
            if c == 1 {
                return mean;
            }
            let frac = (rank - seen - 1) as f64 / (c - 1) as f64;
            let est = lo as f64 + frac * (hi - lo) as f64;
            let mid = (lo as f64 + hi as f64) / 2.0;
            let shifted = est + (mean as f64 - mid);
            return shifted.round().clamp(lo as f64, hi as f64) as u64;
        }
        seen += c;
    }
    max
}

/// Log-linear bucket index for a value: the smallest `i` with
/// `v <= bucket_bound(i)`, clamped to [`HISTOGRAM_BUCKETS`]` - 1`.
fn bucket_of(v: u64) -> u8 {
    if v <= 4 {
        // Exact unit buckets: 0|1 -> 0, 2 -> 1, 3 -> 2, 4 -> 3.
        return v.saturating_sub(1) as u8;
    }
    // Octave of v-1 (>= 2 here), then which of the four equal-width
    // sub-buckets of that octave v-1 falls in.
    let o = 63 - (v - 1).leading_zeros();
    let m = (v - 1 - (1u64 << o)) >> (o - SUB_BUCKET_BITS);
    let i = 4 + (o - SUB_BUCKET_BITS) as usize * (1 << SUB_BUCKET_BITS) + m as usize;
    i.min(HISTOGRAM_BUCKETS - 1) as u8
}

/// Upper bound of bucket `i` (inclusive), as used for Prometheus `le` labels.
pub(crate) fn bucket_bound(i: u8) -> u64 {
    if (i as usize) < 4 {
        return i as u64 + 1;
    }
    let sub = 1u64 << SUB_BUCKET_BITS;
    let k = SUB_BUCKET_BITS + (i as u32 - 4) / sub as u32;
    let m = (i as u64 - 4) % sub;
    (1u64 << k) + ((m + 1) << (k - SUB_BUCKET_BITS))
}

/// One kind of series on one PE: the values in order of first use, and an
/// open-addressed index (linear probing, power-of-two size, at most half
/// full) from a key's identity — the name's address and length, not its
/// text, plus the peer — to its position. Allocates nothing until first use.
#[derive(Debug, Default)]
struct Series<T> {
    items: Vec<(MetricKey, T)>,
    index: Vec<Option<(MetricKey, u32)>>,
    indexed: usize,
}

impl<T: Default> Series<T> {
    /// Where `(name, peer)` is in the index, or the empty slot where it
    /// belongs. The index must not be empty.
    fn probe(&self, (name, peer): MetricKey) -> usize {
        let p = peer.map_or(0, |p| p.wrapping_add(1));
        let mixed =
            (name.as_ptr() as usize ^ name.len().rotate_left(24) ^ p.rotate_left(40)) as u64;
        let mask = self.index.len() - 1;
        let mut i = (mixed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while self.index[i].is_some_and(|((n, p), _)| !std::ptr::eq(n, name) || p != peer) {
            i = (i + 1) & mask;
        }
        i
    }

    /// The value of series `(name, peer)`, created on first use.
    fn entry(&mut self, name: &'static str, peer: Option<usize>) -> &mut T {
        if !self.index.is_empty() {
            if let Some((_, at)) = self.index[self.probe((name, peer))] {
                return &mut self.items[at as usize].1;
            }
        }
        self.admit((name, peer))
    }

    /// First sight of this address: find the series by content (another
    /// literal with the same text may have created it) or append it, then
    /// remember the address.
    #[cold]
    fn admit(&mut self, key: MetricKey) -> &mut T {
        let at = self.items.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
            self.items.push((key, T::default()));
            self.items.len() - 1
        });
        if (self.indexed + 1) * 2 > self.index.len() {
            let grown = vec![None; (self.index.len() * 2).max(8)];
            for slot in std::mem::replace(&mut self.index, grown).into_iter().flatten() {
                let i = self.probe(slot.0);
                self.index[i] = Some(slot);
            }
        }
        let i = self.probe(key);
        self.index[i] = Some((key, at as u32));
        self.indexed += 1;
        &mut self.items[at].1
    }

    /// The series in key order — the order snapshots list them in.
    fn sorted(&self) -> Vec<&(MetricKey, T)> {
        let mut refs: Vec<_> = self.items.iter().collect();
        refs.sort_unstable_by_key(|e| e.0);
        refs
    }
}

/// One PE's series. Empty (no allocation) until the PE records something.
#[derive(Debug, Default)]
struct Shard {
    counters: Series<u64>,
    gauges: Series<u64>,
    histograms: Series<Histogram>,
    /// Windowed histogram feeds: per name, the `(window, value)` samples in
    /// arrival order. The peer dimension is dropped — a window series is a
    /// time series of the whole machine, not a per-link view.
    windows: Series<Vec<(u64, u64)>>,
    /// Windowed counter feeds (throughput-over-time): per name, `(window,
    /// n)` in arrival order, a repeat of the last window added in place.
    window_counters: Series<Vec<(u64, u64)>>,
}

/// Fold one name's `(window, value)` samples, gathered from every shard,
/// into one [`WindowEntry`] per window in window order.
fn fold_windows(
    name: &'static str,
    window_ns: u64,
    samples: &mut [(u64, u64)],
) -> Vec<WindowEntry> {
    let mut out = Vec::new();
    // Each shard's samples arrive nearly in window order, so the stable
    // sort merges a few long runs.
    samples.sort_by_key(|s| s.0);
    let mut h = Histogram::default();
    for run in samples.chunk_by(|a, b| a.0 == b.0) {
        run.iter().for_each(|s| h.observe(s.1));
        out.push(WindowEntry {
            name,
            window: run[0].0,
            start_ns: run[0].0 * window_ns,
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: h.sparse(),
        });
        h.count = 0;
        h.sum = 0;
        h.buckets.fill((0, 0));
    }
    out
}

/// Per-PE sharded metrics registry. See the module docs for the big picture.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    /// Width of one virtual-time window in ns; `0` (the default) disables
    /// the windowed series entirely.
    window_ns: u64,
    shards: Vec<Mutex<Shard>>,
}

impl MetricsRegistry {
    pub fn new(enabled: bool, num_pes: usize) -> MetricsRegistry {
        MetricsRegistry::new_windowed(enabled, num_pes, 0)
    }

    /// A registry that additionally buckets [`MetricsRegistry::observe_windowed`]
    /// / [`MetricsRegistry::count_windowed`] feeds into fixed `window_ns`-wide
    /// virtual-time windows.
    pub fn new_windowed(enabled: bool, num_pes: usize, window_ns: u64) -> MetricsRegistry {
        let shards = if enabled {
            (0..num_pes.max(1)).map(|_| Mutex::new(Shard::default())).collect()
        } else {
            Vec::new()
        };
        MetricsRegistry { enabled, window_ns, shards }
    }

    /// Width of the virtual-time metric windows (0 = windowing off).
    #[inline]
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Whether the registry records anything. When false every recording
    /// method is a single-branch no-op.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add `n` to the counter `name` on `pe`'s shard, keyed by `peer_node`.
    #[inline]
    pub fn count(&self, pe: usize, name: &'static str, peer_node: Option<usize>, n: u64) {
        if self.enabled {
            *self.shards[pe].lock().counters.entry(name, peer_node) += n;
        }
    }

    /// Set the gauge `name` on `pe`'s shard (last write wins).
    #[inline]
    pub fn gauge_set(&self, pe: usize, name: &'static str, peer_node: Option<usize>, v: u64) {
        if self.enabled {
            *self.shards[pe].lock().gauges.entry(name, peer_node) = v;
        }
    }

    /// Record `v` into the log-bucketed histogram `name` on `pe`'s shard.
    #[inline]
    pub fn observe(&self, pe: usize, name: &'static str, peer_node: Option<usize>, v: u64) {
        if self.enabled {
            self.shards[pe].lock().histograms.entry(name, peer_node).observe(v);
        }
    }

    /// Everything one conduit operation feeds, under one taking of `pe`'s
    /// shard lock: the op-kind counter `op`, `op_bytes` (when `bytes > 0`),
    /// `latency_ns` into the histogram `latency` and `nic_queue_ns` (when
    /// `queue_ns > 0`), all keyed by `peer_node`; and, inside a team scope
    /// (`team != 0`), `team_op` with the team id in the peer dimension.
    #[inline]
    #[allow(clippy::too_many_arguments)] // one op's five series and their values
    pub fn record_op(
        &self,
        pe: usize,
        peer_node: Option<usize>,
        op: &'static str,
        bytes: u64,
        latency: &'static str,
        latency_ns: u64,
        queue_ns: u64,
        team: u32,
    ) {
        if !self.enabled {
            return;
        }
        let mut shard = self.shards[pe].lock();
        *shard.counters.entry(op, peer_node) += 1;
        if bytes > 0 {
            *shard.counters.entry("op_bytes", peer_node) += bytes;
        }
        shard.histograms.entry(latency, peer_node).observe(latency_ns);
        if queue_ns > 0 {
            shard.histograms.entry("nic_queue_ns", peer_node).observe(queue_ns);
        }
        if team != 0 {
            *shard.counters.entry("team_op", Some(team as usize)) += 1;
        }
    }

    /// Record `v` into the histogram `name` *and*, when windowing is
    /// configured, into the virtual-time window containing `t_ns` (normally
    /// the completion instant). With `window_ns == 0` this is exactly
    /// [`MetricsRegistry::observe`].
    #[inline]
    pub fn observe_windowed(
        &self,
        pe: usize,
        name: &'static str,
        peer_node: Option<usize>,
        t_ns: u64,
        v: u64,
    ) {
        if !self.enabled {
            return;
        }
        let mut shard = self.shards[pe].lock();
        shard.histograms.entry(name, peer_node).observe(v);
        if let Some(w) = t_ns.checked_div(self.window_ns) {
            shard.windows.entry(name, None).push((w, v));
        }
    }

    /// Add `n` to counter `name` *and*, when windowing is configured, to the
    /// windowed counter series at `t_ns` (throughput-over-time).
    #[inline]
    pub fn count_windowed(
        &self,
        pe: usize,
        name: &'static str,
        peer_node: Option<usize>,
        t_ns: u64,
        n: u64,
    ) {
        if !self.enabled {
            return;
        }
        let mut shard = self.shards[pe].lock();
        *shard.counters.entry(name, peer_node) += n;
        if let Some(w) = t_ns.checked_div(self.window_ns) {
            let log = shard.window_counters.entry(name, None);
            match log.last_mut() {
                Some(last) if last.0 == w => last.1 += n,
                _ => log.push((w, n)),
            }
        }
    }

    /// Live counter totals summed over PEs and peers, sorted by name — the
    /// cheap mid-run view the streaming snapshot channel samples. Unlike
    /// [`MetricsRegistry::snapshot`] this allocates no per-entry structure
    /// and takes each shard lock only briefly; like it, it only *reads*, so
    /// sampling mid-run perturbs nothing.
    pub fn live_counter_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for shard in &self.shards {
            for &((name, _), value) in &shard.lock().counters.items {
                *totals.entry(name).or_insert(0) += value;
            }
        }
        totals.into_iter().collect()
    }

    /// The live windowed series for histogram `name`, merged across PE
    /// shards — the mid-run view the streaming snapshot channel samples for
    /// `pgas_top -- serve`. Read-only: sampling mid-run perturbs nothing and
    /// moves no virtual clock.
    pub fn live_window_series(&self, name: &'static str) -> Vec<WindowEntry> {
        let mut samples = Vec::new();
        for shard in &self.shards {
            for ((n, _), log) in &shard.lock().windows.items {
                if *n == name {
                    samples.extend_from_slice(log);
                }
            }
        }
        fold_windows(name, self.window_ns, &mut samples)
    }

    /// Merge every shard into a deterministic snapshot, folding in the
    /// global stats counters.
    pub fn snapshot(&self, stats: StatsSnapshot) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        let mut wsamples: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        let mut wcounts: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (pe, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            for &((name, peer_node), value) in shard.counters.sorted() {
                counters.push(MetricEntry { name, pe, peer_node, value });
            }
            for &((name, peer_node), value) in shard.gauges.sorted() {
                gauges.push(MetricEntry { name, pe, peer_node, value });
            }
            for ((name, peer_node), h) in shard.histograms.sorted() {
                histograms.push(HistogramEntry {
                    name,
                    pe,
                    peer_node: *peer_node,
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    buckets: h.sparse(),
                });
            }
            for ((name, _), log) in &shard.windows.items {
                wsamples.entry(name).or_default().extend_from_slice(log);
            }
            for ((name, _), log) in &shard.window_counters.items {
                wcounts.entry(name).or_default().extend_from_slice(log);
            }
        }
        let mut windows = Vec::new();
        for (name, mut samples) in wsamples {
            windows.extend(fold_windows(name, self.window_ns, &mut samples));
        }
        let mut window_counters = Vec::new();
        for (name, mut log) in wcounts {
            log.sort_by_key(|e| e.0);
            for run in log.chunk_by(|a, b| a.0 == b.0) {
                window_counters.push(WindowCounterEntry {
                    name,
                    window: run[0].0,
                    start_ns: run[0].0 * self.window_ns,
                    value: run.iter().map(|e| e.1).sum(),
                });
            }
        }
        MetricsSnapshot {
            enabled: self.enabled,
            window_ns: self.window_ns,
            stats,
            counters,
            gauges,
            histograms,
            windows,
            window_counters,
        }
    }
}

/// One counter or gauge sample in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    pub name: &'static str,
    pub pe: usize,
    pub peer_node: Option<usize>,
    pub value: u64,
}

/// One histogram in a snapshot, with its non-empty log-linear buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramEntry {
    pub name: &'static str,
    pub pe: usize,
    pub peer_node: Option<usize>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `(bucket_index, count, exact value sum)` triples, sorted by index.
    /// Bounds are log-linear: 1..=4, then `2^SUB_BUCKET_BITS` per octave.
    pub buckets: Vec<(u8, u64, u64)>,
}

impl HistogramEntry {
    /// Interpolated percentile estimate (`q` in `[0, 1]`) with error bounded
    /// by the containing bucket's width — see [`percentile_impl`].
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_impl(self.count, self.min, self.max, q, self.buckets.iter())
    }
}

/// One virtual-time window of a windowed histogram series, merged over PEs
/// and peers: the machine-wide latency distribution of the values whose
/// timestamps fell in `[start_ns, start_ns + window_ns)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowEntry {
    pub name: &'static str,
    /// Window index (`timestamp / window_ns`).
    pub window: u64,
    /// Window start in virtual ns (`window * window_ns`).
    pub start_ns: u64,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `(bucket_index, count, exact value sum)` triples, sorted by index.
    pub buckets: Vec<(u8, u64, u64)>,
}

impl WindowEntry {
    /// Interpolated percentile estimate (`q` in `[0, 1]`) with error bounded
    /// by the containing bucket's width — see [`percentile_impl`].
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_impl(self.count, self.min, self.max, q, self.buckets.iter())
    }
}

/// One virtual-time window of a windowed counter series (merged over PEs and
/// peers): how many events `name` counted in `[start_ns, start_ns + window_ns)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowCounterEntry {
    pub name: &'static str,
    pub window: u64,
    pub start_ns: u64,
    pub value: u64,
}

/// Immutable, deterministic view of a finished run's metrics.
///
/// Entries are sorted by `(pe, name, peer_node)`; two runs with identical
/// virtual behaviour produce bit-identical snapshots.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Whether the registry was recording. A disabled run still carries the
    /// stats block so `SimOutcome.metrics` is always meaningful.
    pub enabled: bool,
    /// Virtual-time window width of the windowed series (0 = none recorded).
    pub window_ns: u64,
    /// The global stats counters, absorbed into the snapshot.
    pub stats: StatsSnapshot,
    pub counters: Vec<MetricEntry>,
    pub gauges: Vec<MetricEntry>,
    pub histograms: Vec<HistogramEntry>,
    /// Windowed histogram series, sorted by `(name, window)`.
    pub windows: Vec<WindowEntry>,
    /// Windowed counter series, sorted by `(name, window)`.
    pub window_counters: Vec<WindowCounterEntry>,
}

impl MetricsSnapshot {
    /// Total of counter `name` summed across PEs and peers.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|e| e.name == name).map(|e| e.value).sum()
    }

    /// The windowed histogram series for `name`, in window order — the
    /// deterministic p50/p99/p999-over-time view.
    pub fn window_series<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a WindowEntry> {
        self.windows.iter().filter(move |w| w.name == name)
    }

    /// The windowed counter series for `name`, in window order — the
    /// throughput-over-time view.
    pub fn window_counter_series<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a WindowCounterEntry> {
        self.window_counters.iter().filter(move |w| w.name == name)
    }

    /// The histogram entries for `name`, across all PEs and peers.
    pub fn histograms_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a HistogramEntry> {
        self.histograms.iter().filter(move |h| h.name == name)
    }

    /// Merge all histograms named `name` into one `(count, sum)` pair.
    pub fn histogram_totals(&self, name: &str) -> (u64, u64) {
        self.histograms_named(name).fold((0, 0), |(c, s), h| (c + h.count, s + h.sum))
    }

    /// JSON export (stable field order).
    pub fn to_json(&self) -> Json {
        let entry = |e: &MetricEntry| {
            let mut fields =
                vec![("name".to_string(), Json::str(e.name)), ("pe".to_string(), Json::uint(e.pe))];
            if let Some(node) = e.peer_node {
                fields.push(("peer_node".to_string(), Json::uint(node)));
            }
            fields.push(("value".to_string(), Json::uint(e.value as usize)));
            Json::Object(fields)
        };
        let buckets_json = |buckets: &[(u8, u64, u64)]| {
            Json::Array(
                buckets
                    .iter()
                    .map(|&(i, c, s)| {
                        Json::Object(vec![
                            ("le".to_string(), Json::uint(bucket_bound(i) as usize)),
                            ("count".to_string(), Json::uint(c as usize)),
                            ("sum".to_string(), Json::uint(s as usize)),
                        ])
                    })
                    .collect(),
            )
        };
        let hist = |h: &HistogramEntry| {
            let mut fields =
                vec![("name".to_string(), Json::str(h.name)), ("pe".to_string(), Json::uint(h.pe))];
            if let Some(node) = h.peer_node {
                fields.push(("peer_node".to_string(), Json::uint(node)));
            }
            fields.push(("count".to_string(), Json::uint(h.count as usize)));
            fields.push(("sum".to_string(), Json::uint(h.sum as usize)));
            fields.push(("min".to_string(), Json::uint(h.min as usize)));
            fields.push(("max".to_string(), Json::uint(h.max as usize)));
            fields.push(("buckets".to_string(), buckets_json(&h.buckets)));
            Json::Object(fields)
        };
        let window = |w: &WindowEntry| {
            Json::Object(vec![
                ("name".to_string(), Json::str(w.name)),
                ("window".to_string(), Json::uint(w.window as usize)),
                ("start_ns".to_string(), Json::uint(w.start_ns as usize)),
                ("count".to_string(), Json::uint(w.count as usize)),
                ("sum".to_string(), Json::uint(w.sum as usize)),
                ("min".to_string(), Json::uint(w.min as usize)),
                ("max".to_string(), Json::uint(w.max as usize)),
                ("p50".to_string(), Json::uint(w.percentile(0.50) as usize)),
                ("p99".to_string(), Json::uint(w.percentile(0.99) as usize)),
                ("p999".to_string(), Json::uint(w.percentile(0.999) as usize)),
                ("buckets".to_string(), buckets_json(&w.buckets)),
            ])
        };
        let wcounter = |w: &WindowCounterEntry| {
            Json::Object(vec![
                ("name".to_string(), Json::str(w.name)),
                ("window".to_string(), Json::uint(w.window as usize)),
                ("start_ns".to_string(), Json::uint(w.start_ns as usize)),
                ("value".to_string(), Json::uint(w.value as usize)),
            ])
        };
        Json::Object(vec![
            ("enabled".to_string(), Json::Bool(self.enabled)),
            ("window_ns".to_string(), Json::uint(self.window_ns as usize)),
            ("stats".to_string(), stats_json(&self.stats)),
            ("counters".to_string(), Json::Array(self.counters.iter().map(entry).collect())),
            ("gauges".to_string(), Json::Array(self.gauges.iter().map(entry).collect())),
            ("histograms".to_string(), Json::Array(self.histograms.iter().map(hist).collect())),
            ("windows".to_string(), Json::Array(self.windows.iter().map(window).collect())),
            (
                "window_counters".to_string(),
                Json::Array(self.window_counters.iter().map(wcounter).collect()),
            ),
        ])
    }

    /// Prometheus text exposition format. Counter names become
    /// `pgas_<name>_total`, gauges `pgas_<name>`, histograms the standard
    /// `_bucket`/`_sum`/`_count` triple with cumulative log-linear `le`
    /// bounds. Global stats counters are exported as `pgas_stats_<field>`.
    pub fn to_prometheus(&self) -> String {
        self.prometheus_impl(None)
    }

    /// [`MetricsSnapshot::to_prometheus`] plus tail-attribution exemplars:
    /// every windowed `quantile="0.999"` sample whose window has retained
    /// exemplars gains an OpenMetrics-style exemplar trailer
    /// (`# {req="...",pe="...",cause="..."} latency`), and a dedicated
    /// `pgas_tail_exemplar` gauge series lists each window's k worst
    /// requests with their dominant cause.
    pub fn to_prometheus_with_tail(&self, tail: &crate::tailprof::TailAttribution) -> String {
        self.prometheus_impl(Some(tail))
    }

    fn prometheus_impl(&self, tail: Option<&crate::tailprof::TailAttribution>) -> String {
        let mut out = String::new();
        for (field, value) in stats_fields(&self.stats) {
            out.push_str(&format!("# TYPE pgas_stats_{field} counter\n"));
            out.push_str(&format!("pgas_stats_{field} {value}\n"));
        }
        let mut last_name = "";
        for e in &self.counters {
            if e.name != last_name {
                out.push_str(&format!("# TYPE pgas_{}_total counter\n", e.name));
                last_name = e.name;
            }
            out.push_str(&format!(
                "pgas_{}_total{{{}}} {}\n",
                e.name,
                labels(e.pe, e.peer_node),
                e.value
            ));
        }
        last_name = "";
        for e in &self.gauges {
            if e.name != last_name {
                out.push_str(&format!("# TYPE pgas_{} gauge\n", e.name));
                last_name = e.name;
            }
            out.push_str(&format!(
                "pgas_{}{{{}}} {}\n",
                e.name,
                labels(e.pe, e.peer_node),
                e.value
            ));
        }
        last_name = "";
        for h in &self.histograms {
            if h.name != last_name {
                out.push_str(&format!("# TYPE pgas_{} histogram\n", h.name));
                last_name = h.name;
            }
            let base = labels(h.pe, h.peer_node);
            let mut cumulative = 0u64;
            for &(i, c, _) in &h.buckets {
                cumulative += c;
                out.push_str(&format!(
                    "pgas_{}_bucket{{{},le=\"{}\"}} {}\n",
                    h.name,
                    base,
                    bucket_bound(i),
                    cumulative
                ));
            }
            out.push_str(&format!("pgas_{}_bucket{{{},le=\"+Inf\"}} {}\n", h.name, base, h.count));
            out.push_str(&format!("pgas_{}_sum{{{}}} {}\n", h.name, base, h.sum));
            out.push_str(&format!("pgas_{}_count{{{}}} {}\n", h.name, base, h.count));
        }
        // Windowed series: each histogram window becomes one summary block
        // labelled by its virtual-time window start, each counter window one
        // sample of a `_window_total` counter series.
        last_name = "";
        for w in &self.windows {
            if w.name != last_name {
                out.push_str(&format!("# TYPE pgas_{}_window summary\n", w.name));
                last_name = w.name;
            }
            let base = format!("window_start_ns=\"{}\"", w.start_ns);
            let profile =
                tail.and_then(|t| t.profile_at(w.start_ns.checked_div(t.window_ns).unwrap_or(0)));
            for (label, q) in [("0.5", 0.50), ("0.99", 0.99), ("0.999", 0.999)] {
                out.push_str(&format!(
                    "pgas_{}_window{{{},quantile=\"{}\"}} {}",
                    w.name,
                    base,
                    label,
                    w.percentile(q)
                ));
                // The tail quantile carries the window's worst request as an
                // OpenMetrics exemplar annotation.
                if label == "0.999" {
                    if let Some(e) = profile.and_then(|p| p.exemplars.first()) {
                        out.push_str(&format!(
                            " # {{req=\"{:#x}\",pe=\"{}\",cause=\"{}\"}} {}",
                            e.id,
                            e.pe,
                            e.dominant.label(),
                            e.latency_ns
                        ));
                    }
                }
                out.push('\n');
            }
            out.push_str(&format!("pgas_{}_window_sum{{{}}} {}\n", w.name, base, w.sum));
            out.push_str(&format!("pgas_{}_window_count{{{}}} {}\n", w.name, base, w.count));
        }
        last_name = "";
        for w in &self.window_counters {
            if w.name != last_name {
                out.push_str(&format!("# TYPE pgas_{}_window_total counter\n", w.name));
                last_name = w.name;
            }
            out.push_str(&format!(
                "pgas_{}_window_total{{window_start_ns=\"{}\"}} {}\n",
                w.name, w.start_ns, w.value
            ));
        }
        out
    }
}

fn labels(pe: usize, peer_node: Option<usize>) -> String {
    match peer_node {
        Some(node) => format!("pe=\"{pe}\",peer_node=\"{node}\""),
        None => format!("pe=\"{pe}\""),
    }
}

fn stats_fields(s: &StatsSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("puts", s.puts),
        ("gets", s.gets),
        ("amos", s.amos),
        ("bytes_put", s.bytes_put),
        ("bytes_get", s.bytes_get),
        ("barriers", s.barriers),
        ("quiets", s.quiets),
        ("fences", s.fences),
        ("collectives", s.collectives),
        ("hazards", s.hazards),
        ("races", s.races),
        ("local_fastpath", s.local_fastpath),
        ("plans", s.plans),
        ("lock_leaks", s.lock_leaks),
        ("faults_injected", s.faults_injected),
        ("retries", s.retries),
        ("retries_exhausted", s.retries_exhausted),
        ("pe_failures", s.pe_failures),
        ("lock_repairs", s.lock_repairs),
    ]
}

fn stats_json(s: &StatsSnapshot) -> Json {
    Json::Object(
        stats_fields(s).into_iter().map(|(k, v)| (k.to_string(), Json::uint(v as usize))).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The registry as first written — one ordered map per series kind,
    /// every observed value kept — as the reference for the flat storage.
    #[derive(Default)]
    struct Model {
        window_ns: u64,
        counters: BTreeMap<(usize, MetricKey), u64>,
        gauges: BTreeMap<(usize, MetricKey), u64>,
        histograms: BTreeMap<(usize, MetricKey), Vec<u64>>,
        windows: BTreeMap<(&'static str, u64), Vec<u64>>,
        window_counters: BTreeMap<(&'static str, u64), u64>,
    }

    /// The histogram of `values`, one map entry a bucket; nobody's yet.
    fn summary(values: &[u64]) -> HistogramEntry {
        let mut buckets: BTreeMap<u8, (u64, u64)> = BTreeMap::new();
        for &v in values {
            let b = buckets.entry(bucket_of(v)).or_default();
            *b = (b.0 + 1, b.1.saturating_add(v));
        }
        HistogramEntry {
            name: "",
            pe: 0,
            peer_node: None,
            count: values.len() as u64,
            sum: values.iter().fold(0, |s, &v| s.saturating_add(v)),
            min: *values.iter().min().unwrap(),
            max: *values.iter().max().unwrap(),
            buckets: buckets.into_iter().map(|(i, (c, s))| (i, c, s)).collect(),
        }
    }

    impl Model {
        fn snapshot(&self) -> MetricsSnapshot {
            let entry = |(&(pe, (name, peer_node)), &value): (&(usize, MetricKey), &u64)| {
                MetricEntry { name, pe, peer_node, value }
            };
            let mut snap = MetricsSnapshot {
                enabled: true,
                window_ns: self.window_ns,
                counters: self.counters.iter().map(entry).collect(),
                gauges: self.gauges.iter().map(entry).collect(),
                ..Default::default()
            };
            for (&(pe, (name, peer_node)), values) in &self.histograms {
                snap.histograms.push(HistogramEntry { name, pe, peer_node, ..summary(values) });
            }
            for (&(name, window), values) in &self.windows {
                let HistogramEntry { count, sum, min, max, buckets, .. } = summary(values);
                let start_ns = window * self.window_ns;
                snap.windows.push(WindowEntry {
                    name,
                    window,
                    start_ns,
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                });
            }
            for (&(name, window), &value) in &self.window_counters {
                let start_ns = window * self.window_ns;
                snap.window_counters.push(WindowCounterEntry { name, window, start_ns, value });
            }
            snap
        }
    }

    /// A second `"put_ns"`, at an address of its own (on the heap: the
    /// compiler may fold equal constants, statics included, into one).
    fn twin() -> &'static str {
        static TWIN: std::sync::OnceLock<&'static str> = std::sync::OnceLock::new();
        TWIN.get_or_init(|| String::from("put_ns").leak())
    }

    fn names() -> [&'static str; 13] {
        [
            "put",
            "get",
            "amo",
            "put_ns",
            "get_ns",
            "amo_ns",
            "barrier",
            "collective_ns",
            "compute_ns",
            "serve_latency_ns",
            "serve_requests",
            "lock_poll",
            twin(),
        ]
    }

    /// One call of the feed against the registry and against the model.
    fn apply(reg: &MetricsRegistry, model: &mut Model, call: (u8, usize, usize, usize, u64, u64)) {
        let (kind, pe, name, peer, t, v) = call;
        let (name, peer) = (names()[name], peer.checked_sub(1));
        // Counters add without saturating: keep their totals far from 2^64.
        let n = v >> 24;
        let window = t.checked_div(model.window_ns);
        match kind {
            0 => {
                reg.count(pe, name, peer, n);
                *model.counters.entry((pe, (name, peer))).or_default() += n;
            }
            1 => {
                reg.gauge_set(pe, name, peer, v);
                model.gauges.insert((pe, (name, peer)), v);
            }
            2 => {
                reg.observe(pe, name, peer, v);
                model.histograms.entry((pe, (name, peer))).or_default().push(v);
            }
            3 => {
                reg.observe_windowed(pe, name, peer, t, v);
                model.histograms.entry((pe, (name, peer))).or_default().push(v);
                if let Some(w) = window {
                    model.windows.entry((name, w)).or_default().push(v);
                }
            }
            4 => {
                reg.count_windowed(pe, name, peer, t, n);
                *model.counters.entry((pe, (name, peer))).or_default() += n;
                if let Some(w) = window {
                    *model.window_counters.entry((name, w)).or_default() += n;
                }
            }
            _ => {
                // The conduit's shape, every optional series sometimes absent.
                let (bytes, queue_ns, team) = (t % 3 * 8, v % 2 * t, (t % 4) as u32);
                reg.record_op(pe, peer, name, bytes, "put_ns", v, queue_ns, team);
                *model.counters.entry((pe, (name, peer))).or_default() += 1;
                if bytes > 0 {
                    *model.counters.entry((pe, ("op_bytes", peer))).or_default() += bytes;
                }
                model.histograms.entry((pe, ("put_ns", peer))).or_default().push(v);
                if queue_ns > 0 {
                    model
                        .histograms
                        .entry((pe, ("nic_queue_ns", peer)))
                        .or_default()
                        .push(queue_ns);
                }
                if team != 0 {
                    let key = (pe, ("team_op", Some(team as usize)));
                    *model.counters.entry(key).or_default() += 1;
                }
            }
        }
    }

    proptest! {
        // The larger count is CI's `--release` run of this module.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 256 }))]

        #[test]
        fn flat_storage_matches_the_ordered_map_model(
            window_ns in prop_oneof![0u64..1, 1u64..2, 1000u64..1001],
            feed in prop::collection::vec(
                (
                    0u8..6,
                    0usize..2,
                    0usize..13,
                    0usize..8,
                    // Mostly a few windows revisited out of order; sometimes anywhere.
                    prop_oneof![0u64..5_000, 0u64..5_000, any::<u64>()],
                    // Small values, and ones two of which saturate a sum.
                    prop_oneof![0u64..100_000, any::<u64>()],
                ),
                0..500,
            ),
        ) {
            let reg = MetricsRegistry::new_windowed(true, 2, window_ns);
            let mut model = Model { window_ns, ..Default::default() };
            for (i, &call) in feed.iter().enumerate() {
                apply(&reg, &mut model, call);
                // Three looks mid-feed: the live view is the snapshot's.
                if (i + 1) % (feed.len() / 3).max(1) == 0 {
                    let snap = reg.snapshot(StatsSnapshot::default());
                    for name in names() {
                        let live = reg.live_window_series(name);
                        prop_assert!(live.iter().eq(snap.window_series(name)), "{name} at {i}");
                    }
                }
            }
            let (snap, want) = (reg.snapshot(StatsSnapshot::default()), model.snapshot());
            prop_assert_eq!(&snap, &want);
            prop_assert_eq!(snap.to_prometheus(), want.to_prometheus());
            prop_assert_eq!(snap.to_json().pretty(), want.to_json().pretty());
            // Long feeds outgrow a shard's first index more than once.
            let grown = reg.shards.iter().any(|s| s.lock().counters.index.len() > 32);
            prop_assert!(feed.len() < 400 || grown, "no index growth in {} calls", feed.len());
        }
    }

    #[test]
    fn equal_text_at_two_addresses_is_one_series() {
        let (a, b) = ("put_ns", twin());
        assert!(a == b && !std::ptr::eq(a, b), "same text, two addresses");
        let reg = MetricsRegistry::new_windowed(true, 1, 1000);
        reg.observe(0, a, Some(1), 10);
        reg.observe(0, b, Some(1), 30);
        reg.count_windowed(0, b, None, 500, 1);
        reg.count_windowed(0, a, None, 700, 2);
        // The same address at another length is another name.
        reg.count(0, &a[..3], None, 9);
        reg.observe_windowed(0, a, None, 100, 5);
        reg.observe_windowed(0, b, None, 200, 7);
        let snap = reg.snapshot(StatsSnapshot::default());
        assert_eq!(snap.histograms.len(), 2, "one per peer, not one per address");
        assert_eq!(snap.histogram_totals("put_ns"), (4, 52));
        assert_eq!(snap.counters.len(), 2);
        assert_eq!((snap.counter_total("put"), snap.counter_total("put_ns")), (9, 3));
        assert_eq!(snap.windows.len(), 1);
        assert_eq!(snap.window_counters.len(), 1);
        assert_eq!(reg.live_window_series(b), snap.windows);
    }

    #[test]
    fn bucket_indices_are_log_linear() {
        // Exact unit buckets up front...
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        // ...then four sub-buckets per octave: (4,5], (5,6], (6,7], (7,8]...
        assert_eq!(bucket_of(5), 4);
        assert_eq!(bucket_of(8), 7);
        assert_eq!(bucket_of(9), 8);
        // An octave boundary stays a bucket boundary (le="1024" survives).
        assert_eq!(bucket_of(1024), 35);
        assert_eq!(bucket_bound(35), 1024);
        assert_eq!(bucket_of(1025), 36);
        assert_eq!(bucket_bound(36), 1280);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS as u8 - 1);
        // Bounds are strictly increasing and invert bucket_of everywhere.
        for i in 0..HISTOGRAM_BUCKETS as u8 {
            if i > 0 {
                assert!(bucket_bound(i) > bucket_bound(i - 1), "bounds increase at {i}");
            }
            assert_eq!(bucket_of(bucket_bound(i)), i, "bound of {i} maps back");
            assert_eq!(bucket_of(bucket_bound(i) + 1).max(i), bucket_of(bucket_bound(i) + 1));
        }
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS as u8 - 1), 1u64 << 63);
        // Tail quantization error is bounded by a quarter octave.
        let v = 150_000u64;
        let b = bucket_of(v);
        let width = bucket_bound(b) - bucket_bound(b - 1);
        assert!(width * 4 <= bucket_bound(b), "sub-bucket width is <= bound/4");
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new(false, 4);
        reg.count(0, "put", Some(1), 3);
        reg.observe(1, "put_ns", None, 42);
        reg.gauge_set(2, "depth", None, 7);
        let snap = reg.snapshot(StatsSnapshot::default());
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(reg.shards.is_empty(), "a disabled registry holds no state at all");
    }

    #[test]
    fn enabled_registry_allocates_on_first_use() {
        let reg = MetricsRegistry::new_windowed(true, 4, 1000);
        let unallocated = |s: &Shard| {
            let (c, g, h) = (&s.counters, &s.gauges, &s.histograms);
            let (w, wc) = (&s.windows, &s.window_counters);
            c.items.capacity() + g.items.capacity() + h.items.capacity() == 0
                && c.index.capacity() + g.index.capacity() + h.index.capacity() == 0
                && w.items.capacity() + wc.items.capacity() == 0
                && w.index.capacity() + wc.index.capacity() == 0
        };
        assert!(reg.shards.iter().all(|s| unallocated(&s.lock())));
        reg.observe_windowed(2, "serve_latency_ns", None, 10, 1 << 40);
        for (pe, shard) in reg.shards.iter().enumerate() {
            assert_eq!(unallocated(&shard.lock()), pe != 2, "only PE 2 recorded");
        }
        // A histogram's dense buckets reach its highest value, not all 248.
        let shard = reg.shards[2].lock();
        assert_eq!(shard.histograms.items[0].1.buckets.len(), bucket_of(1 << 40) as usize + 1);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = MetricsRegistry::new(true, 2);
        reg.count(1, "put", Some(0), 2);
        reg.count(0, "put", Some(1), 5);
        reg.count(0, "get", None, 1);
        reg.observe(0, "put_ns", Some(1), 100);
        reg.observe(0, "put_ns", Some(1), 3000);
        let snap = reg.snapshot(StatsSnapshot::default());
        assert_eq!(snap.counter_total("put"), 7);
        assert_eq!(snap.counter_total("get"), 1);
        // PE-major order, then name.
        let names: Vec<(usize, &str)> = snap.counters.iter().map(|e| (e.pe, e.name)).collect();
        assert_eq!(names, vec![(0, "get"), (0, "put"), (1, "put")]);
        let (count, sum) = snap.histogram_totals("put_ns");
        assert_eq!((count, sum), (2, 3100));
        let h = snap.histograms_named("put_ns").next().unwrap();
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 3000);
        assert_eq!(h.buckets.len(), 2);
    }

    #[test]
    fn live_counter_totals_aggregate_across_shards() {
        let reg = MetricsRegistry::new(true, 2);
        reg.count(0, "put", Some(1), 2);
        reg.count(1, "put", Some(0), 3);
        reg.count(1, "get", None, 1);
        assert_eq!(reg.live_counter_totals(), vec![("get", 1), ("put", 5)]);
        let snap = reg.snapshot(StatsSnapshot::default());
        assert_eq!(snap.counter_total("put"), 5, "live view consumed nothing");
        assert!(MetricsRegistry::new(false, 2).live_counter_totals().is_empty());
    }

    #[test]
    fn prometheus_export_has_cumulative_buckets() {
        let reg = MetricsRegistry::new(true, 1);
        reg.observe(0, "put_ns", Some(1), 1);
        reg.observe(0, "put_ns", Some(1), 2);
        reg.observe(0, "put_ns", Some(1), 1000);
        reg.count(0, "put", Some(1), 3);
        let text = reg.snapshot(StatsSnapshot::default()).to_prometheus();
        assert!(text.contains("pgas_put_total{pe=\"0\",peer_node=\"1\"} 3"));
        assert!(text.contains("pgas_put_ns_bucket{pe=\"0\",peer_node=\"1\",le=\"1\"} 1"));
        assert!(text.contains("pgas_put_ns_bucket{pe=\"0\",peer_node=\"1\",le=\"2\"} 2"));
        assert!(text.contains("pgas_put_ns_bucket{pe=\"0\",peer_node=\"1\",le=\"1024\"} 3"));
        assert!(text.contains("pgas_put_ns_bucket{pe=\"0\",peer_node=\"1\",le=\"+Inf\"} 3"));
        assert!(text.contains("pgas_put_ns_sum{pe=\"0\",peer_node=\"1\"} 1003"));
        assert!(text.contains("pgas_put_ns_count{pe=\"0\",peer_node=\"1\"} 3"));
        assert!(text.contains("pgas_stats_puts 0"));
    }

    #[test]
    fn json_export_parses() {
        let reg = MetricsRegistry::new(true, 1);
        reg.count(0, "put", Some(1), 3);
        reg.observe(0, "put_ns", None, 10);
        reg.gauge_set(0, "depth", None, 2);
        let json = reg.snapshot(StatsSnapshot::default()).to_json().pretty();
        let parsed = crate::json::parse(&json).expect("metrics JSON parses");
        assert_eq!(parsed.get("counters").and_then(|c| c.as_array()).map(|a| a.len()), Some(1));
        assert_eq!(parsed.get("histograms").and_then(|c| c.as_array()).map(|a| a.len()), Some(1));
    }

    #[test]
    fn percentiles_interpolate_with_bounded_error() {
        let reg = MetricsRegistry::new(true, 1);
        // 100 copies of the same value: every percentile is exact, because
        // the bucket's exact mean pins the estimate.
        for _ in 0..100 {
            reg.observe(0, "put_ns", None, 700);
        }
        let snap = reg.snapshot(StatsSnapshot::default());
        let h = snap.histograms_named("put_ns").next().unwrap();
        assert_eq!(h.percentile(0.50), 700);
        assert_eq!(h.percentile(0.99), 700);
        assert_eq!(h.percentile(0.999), 700);

        // Spread values: estimates stay within the containing log2 bucket.
        let reg = MetricsRegistry::new(true, 1);
        for v in 1..=1000u64 {
            reg.observe(0, "get_ns", None, v);
        }
        let snap = reg.snapshot(StatsSnapshot::default());
        let h = snap.histograms_named("get_ns").next().unwrap();
        let p50 = h.percentile(0.50);
        // True p50 = 500, containing bucket covers (256, 512].
        assert!((257..=512).contains(&p50), "p50 estimate {p50} outside its bucket");
        let p999 = h.percentile(0.999);
        // True p999 = 1000, containing bucket covers (512, 1024] but is
        // clamped to the observed max.
        assert!((513..=1000).contains(&p999), "p999 estimate {p999} outside its bucket");
        assert_eq!(h.percentile(1.0), 1000, "p100 is the exact max");
    }

    #[test]
    fn windowed_observations_build_time_series() {
        let reg = MetricsRegistry::new_windowed(true, 2, 1000);
        assert_eq!(reg.window_ns(), 1000);
        // Two PEs feed the same metric; windows merge across shards.
        reg.observe_windowed(0, "serve_latency_ns", None, 100, 10);
        reg.observe_windowed(1, "serve_latency_ns", None, 900, 30);
        reg.observe_windowed(0, "serve_latency_ns", None, 2500, 80);
        reg.count_windowed(0, "serve_requests", None, 100, 1);
        reg.count_windowed(1, "serve_requests", None, 2600, 2);
        let snap = reg.snapshot(StatsSnapshot::default());
        assert_eq!(snap.window_ns, 1000);
        let wins: Vec<_> = snap.window_series("serve_latency_ns").collect();
        assert_eq!(wins.len(), 2);
        assert_eq!((wins[0].window, wins[0].start_ns, wins[0].count), (0, 0, 2));
        assert_eq!(wins[0].sum, 40);
        assert_eq!((wins[1].window, wins[1].start_ns, wins[1].count), (2, 2000, 1));
        assert_eq!(wins[1].percentile(0.99), 80);
        let counts: Vec<_> =
            snap.window_counter_series("serve_requests").map(|w| (w.start_ns, w.value)).collect();
        assert_eq!(counts, vec![(0, 1), (2000, 2)]);
        // The plain (unwindowed) histogram still carries the total.
        assert_eq!(snap.histogram_totals("serve_latency_ns"), (3, 120));
        // Live view matches the snapshot's merged series.
        let live = reg.live_window_series("serve_latency_ns");
        assert_eq!(live.len(), 2);
        assert_eq!(&live[0], wins[0]);
        assert_eq!(&live[1], wins[1]);
        // Prometheus export carries the windowed series.
        let text = snap.to_prometheus();
        assert!(
            text.contains("pgas_serve_latency_ns_window{window_start_ns=\"0\",quantile=\"0.5\"}")
        );
        assert!(text.contains("pgas_serve_latency_ns_window_count{window_start_ns=\"2000\"} 1"));
        assert!(text.contains("pgas_serve_requests_window_total{window_start_ns=\"2000\"} 2"));
    }

    #[test]
    fn windowing_off_records_no_window_series() {
        let reg = MetricsRegistry::new(true, 1);
        reg.observe_windowed(0, "serve_latency_ns", None, 500, 42);
        reg.count_windowed(0, "serve_requests", None, 500, 1);
        let snap = reg.snapshot(StatsSnapshot::default());
        assert_eq!(snap.window_ns, 0);
        assert!(snap.windows.is_empty());
        assert!(snap.window_counters.is_empty());
        assert!(reg.live_window_series("serve_latency_ns").is_empty());
        // The unwindowed feeds still landed.
        assert_eq!(snap.histogram_totals("serve_latency_ns"), (1, 42));
        assert_eq!(snap.counter_total("serve_requests"), 1);
    }

    #[test]
    fn snapshots_are_bit_identical_for_identical_feeds() {
        let feed = |reg: &MetricsRegistry| {
            reg.count(0, "put", Some(1), 2);
            reg.observe(1, "get_ns", Some(0), 77);
            reg.gauge_set(1, "depth", None, 4);
        };
        let a = MetricsRegistry::new(true, 2);
        let b = MetricsRegistry::new(true, 2);
        feed(&a);
        feed(&b);
        assert_eq!(a.snapshot(StatsSnapshot::default()), b.snapshot(StatsSnapshot::default()));
    }
}
