//! The byte-budgeted LRU of warm per-site state.
//!
//! One entry holds everything that is expensive to rebuild for a site and
//! *value-neutral* to reuse: the extracted [`SolarDataset`] (shadow masks,
//! sky-view factors, weather traces), the topology-independent
//! [`SuitabilityMap`], and the site's [`TraceMemo`] of per-anchor module
//! traces. Reusing an entry skips extraction entirely and starts every
//! placer on warm traces; by the incremental evaluator's bit-identity
//! contract this changes request *latency only*, never response bytes.
//!
//! Keys are the canonical spec hash combined with the extraction clock
//! (see `PlacementService`), so two requests reach the same entry exactly
//! when extraction would produce identical data.

use pv_floorplan::{FloorplanConfig, SuitabilityMap, TraceMemo};
use pv_gis::SolarDataset;
use std::sync::{Arc, OnceLock};

/// Warm state for one site, shared with in-flight requests via `Arc` (an
/// evicted entry stays alive until its last request completes).
#[derive(Clone)]
pub struct CachedSite {
    /// The extracted per-cell traces.
    pub dataset: Arc<SolarDataset>,
    /// The topology-independent suitability ranking.
    pub map: Arc<SuitabilityMap>,
    /// Warm per-anchor module traces, shared across requests.
    pub memo: Arc<TraceMemo>,
    /// Memoized `pv_floorplan::fit_topology` outcome for default-topology
    /// requests: a pure function of the site and the service's module
    /// limit, so only the first request on a site pays the fit probe.
    pub ladder_choice: Arc<OnceLock<Option<FloorplanConfig>>>,
    /// Budget accounting: the entry's estimated footprint.
    pub bytes: usize,
    /// Whether this entry was hydrated from the snapshot store rather than
    /// extracted cold; hits on hydrated entries are `store_hits` in
    /// `/v1/stats`. Never affects response bytes.
    pub from_store: bool,
}

impl CachedSite {
    /// A fresh entry with an empty memo and ladder choice; `from_store`
    /// marks entries hydrated from the snapshot store. Cold and hydrated
    /// entries get the same memo budget and the same byte accounting.
    #[must_use]
    pub(crate) fn new(dataset: SolarDataset, map: SuitabilityMap, from_store: bool) -> Self {
        let steps = dataset.num_steps() as usize;
        let cells = dataset.dims().num_cells();
        let memo_budget = (steps * 8 * 1024).clamp(256 << 10, 64 << 20);
        Self {
            // Footprint estimate: per-step shadow words + per-cell
            // statics + per-step conditions + the memo's budget.
            bytes: cells * steps / 8 + cells * 12 + steps * 48 + memo_budget,
            dataset: Arc::new(dataset),
            map: Arc::new(map),
            memo: Arc::new(TraceMemo::with_byte_budget(memo_budget)),
            ladder_choice: Arc::default(),
            from_store,
        }
    }
}

/// A small LRU keyed by `u64`, evicting least-recently-used entries once
/// the byte budget is exceeded. Linear-scan recency is deliberate: the
/// budget keeps entry counts in the tens, far below the crossover where a
/// linked structure would pay off.
pub struct SiteCache {
    budget_bytes: usize,
    /// Most recently used last.
    entries: Vec<(u64, CachedSite)>,
    bytes: usize,
}

impl SiteCache {
    /// An empty cache with the given byte budget.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            entries: Vec::new(),
            bytes: 0,
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: u64) -> Option<CachedSite> {
        let idx = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(idx);
        let site = entry.1.clone();
        self.entries.push(entry);
        Some(site)
    }

    /// Inserts (or replaces) `key`, then evicts from the cold end until
    /// the budget holds. The newly inserted entry itself is never evicted
    /// — a single site larger than the whole budget must still be
    /// servable, it just won't keep neighbours.
    pub fn insert(&mut self, key: u64, site: CachedSite) {
        if let Some(idx) = self.entries.iter().position(|(k, _)| *k == key) {
            self.bytes -= self.entries.remove(idx).1.bytes;
        }
        self.bytes += site.bytes;
        self.entries.push((key, site));
        while self.bytes > self.budget_bytes && self.entries.len() > 1 {
            self.bytes -= self.entries.remove(0).1.bytes;
        }
    }

    /// Number of cached sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current estimated footprint of all entries.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_gis::{RoofBuilder, Site, SolarExtractor};
    use pv_runtime::Runtime;
    use pv_units::{Meters, SimulationClock};

    fn entry(bytes: usize) -> CachedSite {
        // One tiny real site, shared storage across test entries.
        let roof = RoofBuilder::new(Meters::new(2.0), Meters::new(1.2)).build();
        let dataset = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 720))
            .extract(&roof);
        let map = SuitabilityMap::paper(&dataset, Runtime::sequential());
        CachedSite {
            bytes,
            ..CachedSite::new(dataset, map, false)
        }
    }

    #[test]
    fn hit_refreshes_recency_and_miss_returns_none() {
        let mut cache = SiteCache::new(100);
        cache.insert(1, entry(40));
        cache.insert(2, entry(40));
        assert!(cache.get(3).is_none());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, entry(40));
        assert!(cache.get(2).is_none(), "2 should have been evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 80);
    }

    #[test]
    fn oversized_single_entry_survives_alone() {
        let mut cache = SiteCache::new(10);
        cache.insert(1, entry(4));
        cache.insert(2, entry(400));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(2).is_some());
        assert_eq!(cache.bytes(), 400);
    }

    #[test]
    fn reinsert_replaces_accounting() {
        let mut cache = SiteCache::new(1000);
        cache.insert(1, entry(100));
        cache.insert(1, entry(250));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 250);
        assert_eq!(cache.budget_bytes(), 1000);
        assert!(!cache.is_empty());
    }
}
