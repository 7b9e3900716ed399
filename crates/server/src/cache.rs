//! Warm per-site state and the byte-budgeted LRU that holds it.
//!
//! One entry holds everything that is expensive to rebuild for a site and
//! *value-neutral* to reuse: the extracted [`SolarDataset`] (shadow masks,
//! sky-view factors, weather traces), the topology-independent
//! [`SuitabilityMap`], the site's [`TraceMemo`] of per-anchor module
//! traces, and its ladder fit with the fit's greedy plan. Reusing an
//! entry skips extraction and the greedy entirely and starts every
//! placer on warm traces; by the incremental evaluator's bit-identity
//! contract this changes request *latency only*, never response bytes.
//!
//! [`CachedSite::extract`] and [`CachedSite::solve`] are the one site-solve
//! path of `/v1/place`, store pre-warming and the `pv_bench` portfolio.
//!
//! Keys are the canonical spec hash combined with the extraction clock
//! (see `PlacementService`), so two requests reach the same entry exactly
//! when extraction would produce identical data.

use crate::service::{error_body, ServiceConfig};
use pv_floorplan::{
    fit_topology, greedy_placement_with_map, EnergyReport, FloorplanConfig, FloorplanResult,
    Placer, PlacerOptions, SuitabilityMap, TraceMemo,
};
use pv_gis::{SiteScenario, SolarDataset};
use pv_model::Topology;
use pv_obs::{Stage, StageTimes, Timer};
use pv_runtime::Runtime;
use pv_units::SimulationClock;
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
    /// requests, the config with its greedy plan: a pure function of the
    /// site and the service's module limit, so only the first request on a
    /// site pays the fit.
    pub ladder_fit: Arc<OnceLock<Option<(FloorplanConfig, FloorplanResult)>>>,
    /// Budget accounting: the entry's estimated footprint.
    pub bytes: usize,
    /// Whether this entry was hydrated from the snapshot store rather than
    /// extracted cold; hits on hydrated entries are `store_hits` in
    /// `/v1/stats`. Never affects response bytes.
    pub from_store: bool,
}

impl CachedSite {
    /// A fresh entry with an empty memo and ladder fit; `from_store`
    /// marks entries hydrated from the snapshot store. Cold and hydrated
    /// entries get the same memo budget and the same byte accounting.
    #[must_use]
    pub(crate) fn new(dataset: SolarDataset, map: SuitabilityMap, from_store: bool) -> Self {
        let steps = dataset.num_steps() as usize;
        let cells = dataset.dims().num_cells();
        // 512 module traces of `2 × steps` f64s each (11,520 B at the
        // 720-step serving clock), within 256 KiB–64 MiB.
        let memo_budget = (steps * 8 * 1024).clamp(256 << 10, 64 << 20);
        Self {
            // Footprint estimate: per-step shadow words + per-cell
            // statics + per-step conditions + the memo's budget.
            bytes: cells * steps / 8 + cells * 12 + steps * 48 + memo_budget,
            dataset: Arc::new(dataset),
            map: Arc::new(map),
            memo: Arc::new(TraceMemo::with_byte_budget(memo_budget)),
            ladder_fit: Arc::default(),
            from_store,
        }
    }

    /// Builds a cold site on [`Runtime::sequential`]: extracts `scenario`
    /// on `clock` with `horizon_sectors`, then its
    /// [`SuitabilityMap::paper`], recording both spans.
    #[must_use]
    pub fn extract(
        scenario: &SiteScenario,
        clock: SimulationClock,
        horizon_sectors: usize,
        spans: &mut StageTimes,
    ) -> Self {
        let extract_timer = Timer::start();
        let dataset = scenario
            .extractor(clock)
            .horizon_sectors(horizon_sectors)
            .runtime(Runtime::sequential())
            .extract(&scenario.dsm);
        spans.add(Stage::Extract, extract_timer.elapsed_us());
        let suitability_timer = Timer::start();
        let map = SuitabilityMap::paper(&dataset, Runtime::sequential());
        spans.add(Stage::Suitability, suitability_timer.elapsed_us());
        Self::new(dataset, map, false)
    }

    /// Runs `placer` under `config` on the warm memo and
    /// [`Runtime::sequential`], annealing seeded by `seed`, on `topology`
    /// or else the [`fit_topology`] ladder fit, whose greedy plan answers
    /// `greedy` and starts `anneal`. The fit is memoized under the first
    /// `config.max_modules` that asks, so solve a site under one config.
    /// Returns the config placed on with the plan and its report,
    /// recording the `MemoWarm` and `Solve` spans.
    ///
    /// # Errors
    ///
    /// `(status, body)`: `400` for a topology `config` refuses, `422` when
    /// no ladder topology fits or the placer fails.
    pub fn solve(
        &self,
        config: &ServiceConfig,
        placer: Placer,
        topology: Option<(usize, usize)>,
        seed: u64,
        spans: &mut StageTimes,
    ) -> Result<(FloorplanConfig, (FloorplanResult, EnergyReport)), (u16, String)> {
        let memo_timer = Timer::start();
        let max_modules = config.max_modules;
        let (fitted, plan) = match topology {
            Some((m, n)) => (pinned_config(m, n, max_modules)?, None),
            // A pure function of (site, max_modules): only the first
            // default-topology solve on a site pays the fit.
            None => match self
                .ladder_fit
                .get_or_init(|| fit_topology(&self.dataset, &self.map, max_modules))
            {
                Some((fitted, plan)) => (fitted.clone(), Some(plan)),
                None => {
                    let why = "no ladder topology fits this site (roof too encumbered)";
                    return Err((422, error_body(why)));
                }
            },
        };
        spans.add(Stage::MemoWarm, memo_timer.elapsed_us());
        // The ladder fit's plan, or a fresh greedy plan for a pinned
        // topology, placed only when the placer asks for it.
        let greedy = || match plan {
            Some(plan) => Ok(plan.clone()),
            None => greedy_placement_with_map(&self.dataset, &fitted, &self.map),
        };
        let options = PlacerOptions {
            anneal_iterations: config.anneal_iterations,
            seed,
            exact_budget: config.exact_budget,
        };
        let solve_timer = Timer::start();
        let solved = placer
            .place_with_memo(
                &self.dataset,
                &fitted,
                greedy,
                &options,
                Runtime::sequential(),
                &self.memo,
            )
            .map_err(|e| (422, error_body(&format!("placement failed: {e}"))))?;
        spans.add(Stage::Solve, solve_timer.elapsed_us());
        Ok((fitted, solved))
    }
}

/// The paper config of a pinned `m`×`n` topology, refused (`400`) when it
/// is malformed or has more than `max_modules` modules.
fn pinned_config(m: usize, n: usize, max_modules: usize) -> Result<FloorplanConfig, (u16, String)> {
    let bad = |e: &dyn std::fmt::Display| (400, error_body(&format!("bad topology: {e}")));
    let topology = Topology::new(m, n).map_err(|e| bad(&e))?;
    if topology.num_modules() > max_modules {
        let why = format!("topology {m}x{n} exceeds the service limit of {max_modules} modules");
        return Err((400, error_body(&why)));
    }
    FloorplanConfig::paper(topology).map_err(|e| bad(&e))
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
