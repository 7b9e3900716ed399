//! The span taxonomy of a placement request, trace-id derivation, and
//! the sanctioned wall-clock handle.
//!
//! A trace id is derived from the request itself (an FNV-1a hash of the
//! body mixed with an entry-point sequence number), so the id of a
//! request is reproducible from its bytes plus its arrival order — no
//! random source, no clock. The router derives the id and forwards it
//! to the owning shard in the internal [`TRACE_HEADER`]; the shard uses
//! the forwarded id so one request carries one id across the fleet. The
//! header is internal plumbing: responses never echo request headers,
//! so it is structurally stripped before any byte reaches the client.

use std::time::Instant;

use pv_json::{JsonValue, ObjectBuilder};

use crate::hist::Histogram;

/// Internal hop-by-hop header carrying a trace id router→shard, as 16
/// lowercase hex digits. Never emitted in responses.
pub const TRACE_HEADER: &str = "x-pv-trace";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Derives a trace id from the raw request body and an entry-point
/// sequence number. Same body + same arrival index ⇒ same id, so trace
/// logs from replayed traffic line up run to run.
#[must_use]
pub fn derive_trace_id(body: &[u8], seq: u64) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in body {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    for byte in seq.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Renders a trace id as the 16-hex-digit wire form used in
/// [`TRACE_HEADER`] and trace-log lines.
#[must_use]
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses the wire form produced by [`format_trace_id`]. Lenient about
/// width (any 1–16 hex digits), strict about charset.
#[must_use]
pub fn parse_trace_id(text: &str) -> Option<u64> {
    let text = text.trim();
    if text.is_empty() || text.len() > 16 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// The instrumented stages of a placement request: the handler's stages
/// in pipeline order, then the transport's.
///
/// `CacheLookup` covers the warm-cache probe, `Extract` the cold GIS
/// extraction, `Suitability` the cold site's suitability map, `MemoWarm`
/// the topology choice (on a site's first default-topology request, the
/// ladder fit with its greedy placement), `Solve` the placement solve
/// itself, and `Encode` response rendering. `StoreHydrate` is no request
/// stage: it is recorded once per process, when the snapshot store
/// hydrates the cache at startup. `Read` runs
/// from `accept` until the whole request is parsed, and `QueueWait` from
/// the parsed request's hand-off to the worker pool until a worker takes
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Cold GIS extraction of a site.
    Extract,
    /// The cold site's suitability map.
    Suitability,
    /// Warm per-site cache probe.
    CacheLookup,
    /// Snapshot-store hydration of the cache, recorded once at startup.
    StoreHydrate,
    /// Topology choice: a pinned topology's config, or the site's
    /// memoized ladder fit, which its first default-topology request
    /// computes, greedy placement included.
    MemoWarm,
    /// The placement solve.
    Solve,
    /// Response-body rendering.
    Encode,
    /// Transport: accept until the whole request is read.
    Read,
    /// Transport: wait in the worker pool's queue.
    QueueWait,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 9] = [
        Stage::Extract,
        Stage::Suitability,
        Stage::CacheLookup,
        Stage::StoreHydrate,
        Stage::MemoWarm,
        Stage::Solve,
        Stage::Encode,
        Stage::Read,
        Stage::QueueWait,
    ];

    /// Number of stages.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in stats bodies, metrics labels and
    /// trace-log lines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Extract => "extract",
            Stage::Suitability => "suitability",
            Stage::CacheLookup => "cache_lookup",
            Stage::StoreHydrate => "store_hydrate",
            Stage::MemoWarm => "memo_warm",
            Stage::Solve => "solve",
            Stage::Encode => "encode",
            Stage::Read => "read",
            Stage::QueueWait => "queue_wait",
        }
    }

    /// Inverse of [`Stage::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The sanctioned wall-clock handle for span timing. pvlint rule D02
/// bans ad-hoc `Instant::now()` in library code; metric timing goes
/// through this type so clock reads stay auditable in one place.
#[derive(Clone, Copy, Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Starts the clock.
    #[must_use]
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Microseconds elapsed since [`Timer::start`], saturated to `u64`.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Per-request span durations: which stages ran, and for how long.
///
/// A stage that ran for 0µs is still distinct from one that never ran —
/// `touched` keeps the two apart so a warm-cache request does not
/// pollute the `extract` histogram with zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    us: [u64; Stage::COUNT],
    touched: [bool; Stage::COUNT],
}

impl StageTimes {
    /// Adds `us` microseconds to `stage` (accumulating across repeated
    /// visits) and marks it as having run.
    pub fn add(&mut self, stage: Stage, us: u64) {
        self.us[stage.index()] = self.us[stage.index()].saturating_add(us);
        self.touched[stage.index()] = true;
    }

    /// The recorded duration of `stage`, or `None` if it never ran.
    #[must_use]
    pub fn get(&self, stage: Stage) -> Option<u64> {
        self.touched[stage.index()].then(|| self.us[stage.index()])
    }
}

/// Aggregate per-stage histograms — one [`Histogram`] per [`Stage`],
/// mergeable across shards exactly like the request-latency histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageHistograms {
    hists: [Histogram; Stage::COUNT],
}

impl StageHistograms {
    /// All-empty histograms.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records every stage that ran in `times`.
    pub fn record(&mut self, times: &StageTimes) {
        for stage in Stage::ALL {
            if let Some(us) = times.get(stage) {
                self.hists[stage.index()].record(us);
            }
        }
    }

    /// The histogram for one stage.
    #[must_use]
    pub fn get(&self, stage: Stage) -> &Histogram {
        &self.hists[stage.index()]
    }

    /// Bucket-wise merge of every stage histogram. Exact, like
    /// [`Histogram::merge`].
    pub fn merge(&mut self, other: &StageHistograms) {
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
    }

    /// Sparse JSON encoding: an object mapping stage names to
    /// [`Histogram::to_sparse`] arrays, omitting empty stages.
    #[must_use]
    pub fn to_sparse(&self) -> JsonValue {
        let mut builder = ObjectBuilder::new();
        for stage in Stage::ALL {
            let hist = self.get(stage);
            if !hist.is_empty() {
                builder = builder.field(stage.name(), hist.to_sparse());
            }
        }
        builder.build()
    }

    /// Decodes [`StageHistograms::to_sparse`] output; unknown stage
    /// names are ignored (forward compatibility), malformed histogram
    /// arrays make the whole decode fail.
    #[must_use]
    pub fn from_sparse(value: &JsonValue) -> Option<StageHistograms> {
        let JsonValue::Object(fields) = value else {
            return None;
        };
        let mut out = StageHistograms::new();
        for (name, encoded) in fields {
            let Some(stage) = Stage::from_name(name) else {
                continue;
            };
            let hist = Histogram::from_sparse(encoded)?;
            out.hists[stage.index()].merge(&hist);
        }
        Some(out)
    }
}

/// Renders one trace-log JSONL line: trace id, request target, response
/// status, total latency, and the per-stage span durations that ran.
#[must_use]
pub fn event_line(
    trace: u64,
    target: &str,
    status: u16,
    total_us: u64,
    stages: &StageTimes,
) -> String {
    let mut spans = ObjectBuilder::new();
    for stage in Stage::ALL {
        spans = spans.maybe(stage.name(), stages.get(stage).map(|us| us as f64));
    }
    ObjectBuilder::new()
        .field("trace", format_trace_id(trace))
        .field("target", target)
        .field("status", u32::from(status))
        .field("total_us", total_us as f64)
        .field("stages", spans.build())
        .build()
        .to_json_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_is_reproducible_and_body_sensitive() {
        let a = derive_trace_id(b"spec-a", 0);
        assert_eq!(a, derive_trace_id(b"spec-a", 0));
        assert_ne!(a, derive_trace_id(b"spec-b", 0));
        assert_ne!(a, derive_trace_id(b"spec-a", 1));
    }

    #[test]
    fn trace_id_wire_form_round_trips() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX] {
            let wire = format_trace_id(id);
            assert_eq!(wire.len(), 16);
            assert_eq!(parse_trace_id(&wire), Some(id));
        }
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("00000000000000000"), None);
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(Stage::from_name("nope"), None);
    }

    #[test]
    fn untouched_stages_stay_out_of_histograms_and_events() {
        let mut times = StageTimes::default();
        times.add(Stage::CacheLookup, 0);
        times.add(Stage::Solve, 900);
        times.add(Stage::Solve, 100);
        assert_eq!(times.get(Stage::CacheLookup), Some(0));
        assert_eq!(times.get(Stage::Solve), Some(1000));
        assert_eq!(times.get(Stage::Extract), None);

        let mut hists = StageHistograms::new();
        hists.record(&times);
        assert_eq!(hists.get(Stage::CacheLookup).count(), 1);
        assert_eq!(hists.get(Stage::Extract).count(), 0);

        let line = event_line(7, "/v1/place", 200, 1234, &times);
        let doc = pv_json::parse(&line).expect("event line is JSON");
        let spans = doc.get("stages").expect("stages object");
        assert_eq!(
            spans.get("solve").and_then(JsonValue::as_number),
            Some(1000.0)
        );
        assert!(spans.get("extract").is_none());
        assert_eq!(
            doc.get("trace").and_then(JsonValue::as_str),
            Some("0000000000000007")
        );
    }

    #[test]
    fn stage_histograms_sparse_round_trip_and_merge() {
        let mut a = StageHistograms::new();
        let mut b = StageHistograms::new();
        let mut t = StageTimes::default();
        t.add(Stage::Solve, 500);
        t.add(Stage::Encode, 20);
        a.record(&t);
        let mut t2 = StageTimes::default();
        t2.add(Stage::Solve, 700);
        b.record(&t2);

        let doc = pv_json::parse(&a.to_sparse().to_json_string()).expect("JSON");
        let decoded = StageHistograms::from_sparse(&doc).expect("decodes");
        assert_eq!(decoded, a);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.get(Stage::Solve).count(), 2);
        assert_eq!(merged.get(Stage::Encode).count(), 1);
    }
}
