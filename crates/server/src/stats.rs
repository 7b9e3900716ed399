//! The service's one stats registry: [`ServiceStats`] records while
//! requests flow, and a [`StatsSnapshot`] is what `/v1/stats` and
//! `/v1/metrics` render — on a single server and, merged across shards,
//! on the router.
//!
//! Everything here is *observability*, deliberately kept out of
//! `/v1/place` response bodies so the determinism contract (response is a
//! pure function of the request) survives instrumentation.
//!
//! Each counter and gauge is declared once, in the table at the
//! `registry!` invocation below: its `/v1/stats` key, exposition name,
//! help text, exposition kind and fleet merge rule. The four operations —
//! [`StatsSnapshot::merge`], [`to_json`](StatsSnapshot::to_json),
//! [`from_json`](StatsSnapshot::from_json) and
//! [`to_exposition`](StatsSnapshot::to_exposition) — walk that table, so
//! a new counter is one table line that reaches both renderings and the
//! router merge.
//!
//! Latency lives in a [`pv_obs::Histogram`]: recording is an O(1) bucket
//! increment, quantiles need no sort, and per-shard histograms merge
//! *exactly* at the router. [`percentile_us`] serves callers with exact
//! client-side sample sets (the `loadgen` harness).

use std::sync::{Mutex, MutexGuard, PoisonError};

use pv_json::{JsonValue, ObjectBuilder};
use pv_obs::{Exposition, Histogram, Stage, StageHistograms};

/// `/v1/stats` key of the sparse request-latency histogram.
const LATENCY_KEY: &str = "latency_hist";
/// `/v1/stats` key of the sparse per-stage histograms.
const STAGES_KEY: &str = "stage_hists";

/// Exposition type of a registry series.
enum Kind {
    Counter,
    Gauge,
}

/// How a series combines across shards at the router.
enum Merge {
    Sum,
    Max,
}

/// One counter or gauge of the registry.
struct Series {
    /// `/v1/stats` key (the [`StatsSnapshot`] field name).
    key: &'static str,
    /// `/v1/metrics` family name.
    metric: &'static str,
    help: &'static str,
    kind: Kind,
    merge: Merge,
}

/// Declares the [`StatsSnapshot`] struct and the `SERIES` table from one
/// line per counter or gauge.
macro_rules! registry {
    ($($field:ident: $kind:ident, $merge:ident, $metric:literal, $help:literal;)*) => {
        /// A point-in-time copy of every service counter, gauge and
        /// histogram — the one schema behind `/v1/stats` and
        /// `/v1/metrics`.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(#[doc = $help] pub $field: u64,)*
            /// End-to-end `/v1/place` latency, microseconds.
            pub latency: Histogram,
            /// Per-stage span durations, microseconds.
            pub stages: StageHistograms,
        }

        const SERIES: &[Series] = &[$(Series {
            key: stringify!($field),
            metric: $metric,
            help: $help,
            kind: Kind::$kind,
            merge: Merge::$merge,
        },)*];

        impl StatsSnapshot {
            /// Every counter and gauge with its value, in table order.
            fn fields(&self) -> impl Iterator<Item = (&'static Series, u64)> {
                SERIES.iter().zip([$(self.$field,)*])
            }

            /// Every counter and gauge with a handle on its value.
            fn fields_mut(&mut self) -> impl Iterator<Item = (&'static Series, &mut u64)> {
                SERIES.iter().zip([$(&mut self.$field,)*])
            }
        }
    };
}

registry! {
    requests: Counter, Sum, "pv_requests_total", "Requests routed, any endpoint.";
    place_ok: Counter, Sum, "pv_place_ok_total", "Successful /v1/place solves.";
    errors: Counter, Sum, "pv_errors_total", "Requests answered with a 4xx/5xx.";
    cache_hits: Counter, Sum, "pv_cache_hits_total", "Warm site-cache hits.";
    cache_misses: Counter, Sum, "pv_cache_misses_total", "Cold site extractions.";
    store_hits: Counter, Sum, "pv_store_hits_total", "Cache hits on store-hydrated entries.";
    store_hydrated: Counter, Sum, "pv_store_hydrated_total", "Snapshots decoded at hydration.";
    store_quarantined: Counter, Sum, "pv_store_quarantined_total", "Snapshots quarantined as undecodable.";
    store_skipped: Counter, Sum, "pv_store_skipped_total", "Valid snapshots skipped for a config mismatch.";
    store_writes: Counter, Sum, "pv_store_writes_total", "Snapshots committed to disk.";
    store_write_errors: Counter, Sum, "pv_store_write_errors_total", "Snapshot writes that failed.";
    trace_dropped: Counter, Sum, "pv_trace_dropped_total", "Trace events lost to a full ring or failed writes.";
    cache_entries: Gauge, Sum, "pv_cache_entries", "Sites in the warm cache.";
    cache_bytes: Gauge, Sum, "pv_cache_bytes", "Bytes held by the warm cache.";
    cache_budget_bytes: Gauge, Sum, "pv_cache_budget_bytes", "Byte budget of the warm cache.";
    queue_depth: Gauge, Max, "pv_queue_depth", "Accepted connections awaiting a worker.";
}

/// Router-only fields, passed to the renderers of a fleet snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fleet {
    /// Workers in the fleet.
    pub shards: usize,
    /// Workers whose `/v1/stats` answered and decoded.
    pub shards_up: usize,
    /// Worker respawns since the router started.
    pub restarts: u64,
    /// OS process ids of the live workers.
    pub pids: Vec<u32>,
}

impl StatsSnapshot {
    /// Cache hits over all cache lookups, in `[0, 1]` (0 when none yet).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }

    /// Store-hydrated cache hits over all cache lookups (0 when none yet).
    #[must_use]
    pub fn store_hit_rate(&self) -> f64 {
        self.store_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }

    /// Median `/v1/place` latency from the histogram, ms (bucket lower
    /// bound; ≤ 25% relative error).
    #[must_use]
    pub fn p50_ms(&self) -> f64 {
        self.latency.quantile(0.50) as f64 / 1e3
    }

    /// 99th-percentile `/v1/place` latency from the histogram, ms.
    #[must_use]
    pub fn p99_ms(&self) -> f64 {
        self.latency.quantile(0.99) as f64 / 1e3
    }

    /// Folds another shard's snapshot into this one: each series by its
    /// merge rule, histograms bucket-wise. Merging fixed-bucket
    /// histograms is exact, so fleet quantiles are those of the pooled
    /// request stream, not an average of per-shard quantiles.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for ((series, mine), (_, theirs)) in self.fields_mut().zip(other.fields()) {
            *mine = match series.merge {
                Merge::Sum => mine.saturating_add(theirs),
                Merge::Max => (*mine).max(theirs),
            };
        }
        self.latency.merge(&other.latency);
        self.stages.merge(&other.stages);
    }

    /// Renders the `/v1/stats` body: every series, the derived rates and
    /// quantiles, the fleet fields when given, and the sparse histogram
    /// encodings that make the router's merge exact.
    #[must_use]
    pub fn to_json(&self, fleet: Option<&Fleet>) -> String {
        let mut doc = ObjectBuilder::new();
        for (series, value) in self.fields() {
            doc = doc.field(series.key, value as f64);
        }
        doc = doc
            .field("cache_hit_rate", pv_json::rounded(self.cache_hit_rate(), 4))
            .field("store_hit_rate", pv_json::rounded(self.store_hit_rate(), 4))
            .field("p50_ms", pv_json::rounded(self.p50_ms(), 3))
            .field("p99_ms", pv_json::rounded(self.p99_ms(), 3));
        if let Some(fleet) = fleet {
            let pids: Vec<JsonValue> = fleet.pids.iter().map(|&pid| pid.into()).collect();
            doc = doc
                .field("shards", fleet.shards)
                .field("shards_up", fleet.shards_up)
                .field("shard_restarts", fleet.restarts as f64)
                .field("shard_pids", pids);
        }
        doc.field(LATENCY_KEY, self.latency.to_sparse())
            .field(STAGES_KEY, self.stages.to_sparse())
            .build()
            .to_json_string()
    }

    /// Decodes a `/v1/stats` body — the inverse of
    /// [`to_json`](Self::to_json) for every series and both histograms.
    /// Derived and fleet fields are ignored.
    ///
    /// # Errors
    ///
    /// The body is not JSON, a series is missing or not a number, or a
    /// histogram encoding is missing or malformed.
    pub fn from_json(body: &str) -> Result<StatsSnapshot, String> {
        let doc = pv_json::parse(body).map_err(|e| format!("stats body: {e}"))?;
        let missing = |key: &str| format!("stats body has no valid '{key}'");
        let mut snap = StatsSnapshot::default();
        for (series, value) in snap.fields_mut() {
            let number = doc.get(series.key).and_then(JsonValue::as_number);
            *value = number.ok_or_else(|| missing(series.key))? as u64;
        }
        snap.latency = doc
            .get(LATENCY_KEY)
            .and_then(Histogram::from_sparse)
            .ok_or_else(|| missing(LATENCY_KEY))?;
        snap.stages = doc
            .get(STAGES_KEY)
            .and_then(StageHistograms::from_sparse)
            .ok_or_else(|| missing(STAGES_KEY))?;
        Ok(snap)
    }

    /// Renders the Prometheus-text `/v1/metrics` body: every series, the
    /// hit rates, the fleet gauges when given, and the latency and
    /// per-stage histograms.
    #[must_use]
    pub fn to_exposition(&self, fleet: Option<&Fleet>) -> String {
        let mut doc = Exposition::new();
        for (series, value) in self.fields() {
            match series.kind {
                Kind::Counter => doc.counter(series.metric, series.help, value),
                Kind::Gauge => doc.gauge(series.metric, series.help, value as f64),
            }
        }
        let (cache_rate, store_rate) = (self.cache_hit_rate(), self.store_hit_rate());
        doc.gauge("pv_cache_hit_rate", "Cache hits over lookups.", cache_rate);
        doc.gauge("pv_store_hit_rate", "Store hits over lookups.", store_rate);
        if let Some(fleet) = fleet {
            let (up, restarts) = (fleet.shards_up as f64, fleet.restarts as f64);
            doc.gauge("pv_shards", "Workers in the fleet.", fleet.shards as f64);
            doc.gauge("pv_shards_up", "Workers answering stats.", up);
            doc.gauge("pv_shard_restarts", "Worker respawns.", restarts);
        }
        doc.histogram(
            "pv_place_latency_us",
            "End-to-end /v1/place latency, microseconds.",
            None,
            &self.latency,
        );
        for stage in Stage::ALL {
            let hist = self.stages.get(stage);
            if !hist.is_empty() {
                doc.histogram(
                    "pv_stage_us",
                    "Per-stage span duration, microseconds.",
                    Some(("stage", stage.name())),
                    hist,
                );
            }
        }
        doc.finish()
    }
}

/// Shared, thread-safe service counters: the registry snapshot itself,
/// updated in place under one lock. A poisoned lock is recovered: the
/// updates are counter increments and histogram records, each of which
/// leaves the snapshot valid.
#[derive(Debug, Default)]
pub struct ServiceStats {
    live: Mutex<StatsSnapshot>,
}

impl ServiceStats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn live(&self) -> MutexGuard<'_, StatsSnapshot> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records into the live snapshot: `record` bumps the series the
    /// caller owns (requests, outcomes, latency and stage spans).
    pub fn update(&self, record: impl FnOnce(&mut StatsSnapshot)) {
        record(&mut self.live());
    }

    /// A copy of the request-latency histogram.
    #[must_use]
    pub fn latency_histogram(&self) -> Histogram {
        self.live().latency.clone()
    }

    /// A copy of the per-stage histograms.
    #[must_use]
    pub fn stage_histograms(&self) -> StageHistograms {
        self.live().stages.clone()
    }

    /// A copy of everything recorded here. The series this type does not
    /// record — cache and store state, queue depth, trace drops — stay
    /// zero for the owner of that state to fill in.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        self.live().clone()
    }
}

/// Nearest-rank percentile over an unsorted microsecond sample set
/// (0 when empty). Kept for callers that hold *exact* sample sets —
/// the `loadgen` harness's client-side latencies — while the service
/// itself reports from the histogram (same nearest-rank rule, bucket
/// resolution).
#[must_use]
pub fn percentile_us(samples_us: &[u64], q: f64) -> f64 {
    if samples_us.is_empty() {
        return 0.0;
    }
    let mut sorted = samples_us.to_vec();
    sorted.sort_unstable();
    let idx = (q * sorted.len() as f64).ceil() as usize;
    sorted
        .get(idx.clamp(1, sorted.len()) - 1)
        .map_or(0.0, |&v| v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pv_obs::StageTimes;

    #[test]
    fn counters_accumulate() {
        let stats = ServiceStats::new();
        stats.update(|s| s.requests += 2);
        stats.update(|s| s.errors += 1);
        stats.update(|s| {
            s.place_ok += 2;
            s.cache_hits += 1;
            s.cache_misses += 1;
            s.store_hits += 1;
            s.latency.record(1_000);
            s.latency.record(3_000);
        });
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.place_ok, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.store_hits, 1);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert!((snap.store_hit_rate() - 0.5).abs() < 1e-12);
        assert!(snap.p50_ms() > 0.0 && snap.p99_ms() >= snap.p50_ms());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&samples, 0.50), 50.0);
        assert_eq!(percentile_us(&samples, 0.99), 99.0);
        assert_eq!(percentile_us(&[], 0.50), 0.0);
        assert_eq!(percentile_us(&[7], 0.99), 7.0);
        assert_eq!(percentile_us(&samples, 1.0), 100.0);
    }

    #[test]
    fn snapshot_quantiles_come_from_the_histogram() {
        let stats = ServiceStats::new();
        // A long stream: the histogram keeps every sample, so the
        // quantiles are over the complete history.
        for i in 0..10_000u64 {
            stats.update(|s| s.latency.record(1_000 + i));
        }
        let snap = stats.snapshot();
        let hist = stats.latency_histogram();
        assert_eq!(hist.count(), 10_000);
        assert_eq!(snap.p50_ms(), hist.quantile(0.50) as f64 / 1e3);
        assert_eq!(snap.p99_ms(), hist.quantile(0.99) as f64 / 1e3);
        // Within one bucket (≤ 25%) of the exact nearest-rank values.
        assert!(
            (snap.p50_ms() - 6.0).abs() / 6.0 < 0.25,
            "p50 {}",
            snap.p50_ms()
        );
        assert!(
            (snap.p99_ms() - 10.9).abs() / 10.9 < 0.25,
            "p99 {}",
            snap.p99_ms()
        );
    }

    #[test]
    fn stage_recordings_land_in_their_histograms() {
        let stats = ServiceStats::new();
        let mut times = StageTimes::default();
        times.add(Stage::CacheLookup, 5);
        times.add(Stage::Solve, 800);
        stats.update(|s| s.stages.record(&times));
        let stages = stats.stage_histograms();
        assert_eq!(stages.get(Stage::Solve).count(), 1);
        assert_eq!(stages.get(Stage::CacheLookup).count(), 1);
        assert_eq!(stages.get(Stage::Extract).count(), 0);
    }

    #[test]
    fn hit_rate_is_zero_without_lookups() {
        assert_eq!(ServiceStats::new().snapshot().cache_hit_rate(), 0.0);
    }

    #[test]
    fn merge_sums_counters_and_takes_the_deepest_queue() {
        let mut a = StatsSnapshot {
            cache_hits: 3,
            store_writes: 2,
            queue_depth: 5,
            ..StatsSnapshot::default()
        };
        a.latency.record(1_000);
        let mut b = StatsSnapshot {
            cache_hits: 4,
            store_writes: 1,
            queue_depth: 2,
            ..StatsSnapshot::default()
        };
        b.latency.record(9_000);
        a.merge(&b);
        assert_eq!((a.cache_hits, a.store_writes, a.queue_depth), (7, 3, 5));
        assert_eq!(a.latency.count(), 2);
    }

    #[test]
    fn from_json_rejects_incomplete_bodies() {
        assert!(StatsSnapshot::from_json("not json").is_err());
        assert!(StatsSnapshot::from_json(r#"{"requests": 1}"#).is_err());
        let full = StatsSnapshot::default().to_json(None);
        let no_hist = full.replace(LATENCY_KEY, "renamed");
        assert!(StatsSnapshot::from_json(&no_hist).is_err());
    }

    #[test]
    fn fleet_fields_render_only_when_given() {
        let snap = StatsSnapshot::default();
        let fleet = Fleet {
            shards: 3,
            shards_up: 2,
            restarts: 1,
            pids: vec![41, 42],
        };
        let json = snap.to_json(Some(&fleet));
        assert!(json.contains("\"shard_pids\": [41, 42]"), "{json}");
        assert!(!snap.to_json(None).contains("shard_pids"));
        let text = snap.to_exposition(Some(&fleet));
        assert!(text.contains("\npv_shards 3\n"), "{text}");
        assert!(text.contains("\npv_shards_up 2\n"), "{text}");
        assert!(text.contains("\npv_shard_restarts 1\n"), "{text}");
        assert!(!snap.to_exposition(None).contains("pv_shards"));
    }

    /// The value of an unlabeled exposition sample, if present.
    fn sample(text: &str, metric: &str) -> Option<f64> {
        text.lines()
            .find_map(|line| line.strip_prefix(metric)?.strip_prefix(' '))
            .and_then(|value| value.parse().ok())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both renderings come from one snapshot: every series in
        /// `/v1/stats` has an equal-valued sample in `/v1/metrics`, and
        /// decoding `/v1/stats` gives the snapshot back. Values stay
        /// below 2^53 — JSON numbers are f64.
        #[test]
        fn renderings_agree_and_json_round_trips(
            values in proptest::collection::vec(0u64..1 << 50, 16..17),
            latencies in proptest::collection::vec(0u64..50_000_000, 0..40),
            spans in proptest::collection::vec((0usize..Stage::COUNT, 0u64..50_000_000), 0..40),
        ) {
            let mut snap = StatsSnapshot::default();
            prop_assert_eq!(SERIES.len(), values.len());
            for ((_, field), value) in snap.fields_mut().zip(values) {
                *field = value;
            }
            for us in latencies {
                snap.latency.record(us);
            }
            for (stage, us) in spans {
                let mut times = StageTimes::default();
                times.add(Stage::ALL[stage], us);
                snap.stages.record(&times);
            }

            let json = snap.to_json(None);
            let doc = pv_json::parse(&json).unwrap();
            let text = snap.to_exposition(None);
            for (series, value) in snap.fields() {
                let in_json = doc.get(series.key).and_then(JsonValue::as_number);
                prop_assert_eq!(in_json, Some(value as f64));
                prop_assert_eq!(sample(&text, series.metric), Some(value as f64));
            }

            prop_assert_eq!(StatsSnapshot::from_json(&json), Ok(snap));
        }
    }
}
