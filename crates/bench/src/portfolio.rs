//! The portfolio runner: fan a [`ScenarioCorpus`] across the parallel
//! runtime and score every site with the full placer ensemble.
//!
//! Each scenario is one *work unit* solved through the placement
//! service's own functions, under the same [`ServiceConfig`] settings
//! (clock, horizon sectors, module cap, anneal iterations, exact budget):
//! [`CachedSite::extract`] builds the site (solar dataset and
//! topology-free suitability map), and [`CachedSite::solve`] runs every
//! [`Placer`] in [`Placer::all`] order on the site's ladder fit, exactly
//! as a default-topology `/v1/place` request does: the fit's greedy plan
//! (greedy is placed once, inside the fit), simulated annealing from that
//! plan, and — where the search space is small enough — the exhaustive
//! optimum. All placer runs on a site share the site's warm per-anchor
//! trace memo. This module only maps the three solves into a
//! [`PortfolioRecord`].
//!
//! # Work distribution and determinism
//!
//! Scenarios are distributed over [`Runtime`] workers with
//! [`Runtime::map_chunks`] at granularity 1 — chunk layout and merge
//! order depend only on the corpus length, never the thread count. Inside
//! a work unit everything runs on a *sequential* inner runtime (the
//! parallelism lives at the portfolio level, the natural grain once there
//! are more scenarios than cores). Scenario results are therefore
//! **bit-identical on any thread count**; only [`PortfolioRecord::wall_ms`]
//! (wall-clock, excluded from [`PortfolioRecord::deterministic_line`])
//! varies run to run.
//!
//! The machine-readable artifact `BENCH_portfolio.json` follows the same
//! schema discipline as `BENCH_evaluator.json` (shared `bench` / `scale` /
//! `name` core, validated offline by the `check_bench_json` bin).

use crate::json;
use pv_floorplan::Placer;
use pv_gis::{CorpusPreset, ScenarioCorpus, SiteScenario};
use pv_obs::StageTimes;
use pv_runtime::Runtime;
use pv_server::cache::CachedSite;
use pv_server::ServiceConfig;
use pv_units::SimulationClock;
use std::path::PathBuf;
use std::time::Instant;

/// One scenario's portfolio result — the unit of `BENCH_portfolio.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct PortfolioRecord {
    /// Scenario display name.
    pub scenario: String,
    /// Roof archetype name (`paper` for the Table I roofs).
    pub archetype: String,
    /// Site latitude, °N.
    pub latitude_deg: f64,
    /// Grid dimensions (width, depth) in cells.
    pub dims: (usize, usize),
    /// Number of placeable cells (the paper's `Ng`).
    pub ng: usize,
    /// Modules per string of the chosen topology (0 when nothing fits).
    pub series: usize,
    /// Parallel strings of the chosen topology (0 when nothing fits).
    pub strings: usize,
    /// Greedy placement energy over the run clock, Wh.
    pub greedy_wh: f64,
    /// Annealed placement energy, Wh (≥ greedy by construction).
    pub anneal_wh: f64,
    /// Exhaustive-optimum energy, Wh, where the search was feasible.
    pub exact_wh: Option<f64>,
    /// Wall-clock of this scenario's work unit, ms. The only
    /// non-deterministic field.
    pub wall_ms: f64,
}

impl PortfolioRecord {
    /// Annealing's relative gain over greedy, percent (placer agreement:
    /// ~0 means the greedy placement was already anneal-optimal).
    #[must_use]
    pub fn anneal_gain_percent(&self) -> f64 {
        if self.greedy_wh <= 0.0 {
            0.0
        } else {
            (self.anneal_wh / self.greedy_wh - 1.0) * 100.0
        }
    }

    /// Greedy's optimality gap against the exhaustive optimum, percent,
    /// where the exact search was feasible.
    #[must_use]
    pub fn exact_gap_percent(&self) -> Option<f64> {
        let exact = self.exact_wh?;
        if exact <= 0.0 {
            return Some(0.0);
        }
        Some((1.0 - self.greedy_wh / exact) * 100.0)
    }

    /// The record's deterministic content (everything but `wall_ms`), for
    /// thread-count-invariance comparisons.
    #[must_use]
    pub fn deterministic_line(&self) -> String {
        format!(
            "{}|{}|{:?}|{}x{}|{}|{}s{}p|{:?}|{:?}|{:?}",
            self.scenario,
            self.archetype,
            self.latitude_deg,
            self.dims.0,
            self.dims.1,
            self.ng,
            self.series,
            self.strings,
            self.greedy_wh,
            self.anneal_wh,
            self.exact_wh,
        )
    }
}

/// Runs the full portfolio: every corpus scenario through extraction,
/// greedy, anneal and (where feasible) exact under `config`, one scenario
/// per work unit on `runtime` (see the module docs for the distribution
/// scheme). The cache budget of `config` plays no part.
///
/// Records are returned in corpus order regardless of thread count.
#[must_use]
pub fn run_portfolio(
    corpus: &ScenarioCorpus,
    config: &ServiceConfig,
    runtime: Runtime,
) -> Vec<PortfolioRecord> {
    runtime
        .map_chunks(corpus.len(), 1, |range| {
            range
                .map(|i| run_scenario(&corpus.scenarios()[i], config))
                .collect::<Vec<_>>()
        })
        .concat()
}

/// Scores one scenario (one portfolio work unit) under `config`,
/// sequential inside.
#[must_use]
pub fn run_scenario(scenario: &SiteScenario, config: &ServiceConfig) -> PortfolioRecord {
    let t0 = Instant::now();
    let spans = &mut StageTimes::default();
    let clock = SimulationClock::days_at_minutes(config.days, config.step_minutes);
    let site = CachedSite::extract(scenario, clock, config.horizon_sectors, spans);
    let (archetype, latitude_deg, seed) = match &scenario.spec {
        Some(spec) => (
            spec.archetype.name().to_string(),
            spec.latitude_deg,
            spec.seed,
        ),
        None => ("paper".to_string(), scenario.site.latitude().value(), 2018),
    };
    let [greedy, anneal, exact] = Placer::all().map(|placer| {
        let solved = site.solve(config, placer, None, seed, spans).ok();
        solved.map(|(fitted, (_, report))| (fitted.topology(), report.energy.as_wh()))
    });
    // A roof too encumbered for even one module has no ladder fit and
    // keeps a zero record; the exhaustive search records nothing beyond
    // its node budget.
    let (topology, greedy_wh) = greedy.unzip();
    let anneal_wh = greedy_wh.map(|_| anneal.expect("annealing starts from the ladder fit").1);
    PortfolioRecord {
        scenario: scenario.name.clone(),
        archetype,
        latitude_deg,
        dims: (site.dataset.dims().width(), site.dataset.dims().height()),
        ng: site.dataset.valid().count(),
        series: topology.map_or(0, |t| t.series()),
        strings: topology.map_or(0, |t| t.strings()),
        greedy_wh: greedy_wh.unwrap_or(0.0),
        anneal_wh: anneal_wh.unwrap_or(0.0),
        exact_wh: exact.map(|(_, wh)| wh),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Default path of the portfolio artifact, relative to the working
/// directory.
pub const PORTFOLIO_JSON: &str = "BENCH_portfolio.json";

/// Renders the `BENCH_portfolio.json` document: a JSON array with one
/// object per scenario, sharing the `bench`/`scale`/`name` core of
/// `BENCH_evaluator.json` plus the portfolio measurements. `exact_wh` /
/// `exact_gap_percent` are omitted where the exhaustive search was
/// infeasible.
#[must_use]
pub fn render_portfolio_json(
    corpus_name: &str,
    scale: &str,
    records: &[PortfolioRecord],
) -> String {
    let items: Vec<json::JsonValue> = records
        .iter()
        .map(|r| {
            // The exact pair appears together or not at all (the schema
            // check enforces exactly that invariant).
            let exact = match (r.exact_wh, r.exact_gap_percent()) {
                (Some(wh), Some(gap)) => Some((wh, gap)),
                _ => None,
            };
            json::ObjectBuilder::new()
                .field("bench", format!("portfolio:{corpus_name}"))
                .field("scale", scale)
                .field("name", r.scenario.as_str())
                .field("archetype", r.archetype.as_str())
                .field("latitude_deg", r.latitude_deg)
                .field("width_cells", r.dims.0)
                .field("depth_cells", r.dims.1)
                .field("ng", r.ng)
                .field("series", r.series)
                .field("strings", r.strings)
                .field("greedy_wh", json::rounded(r.greedy_wh, 3))
                .field("anneal_wh", json::rounded(r.anneal_wh, 3))
                .field(
                    "anneal_gain_percent",
                    json::rounded(r.anneal_gain_percent(), 4),
                )
                .maybe("exact_wh", exact.map(|(wh, _)| json::rounded(wh, 3)))
                .maybe(
                    "exact_gap_percent",
                    exact.map(|(_, gap)| json::rounded(gap, 4)),
                )
                .field("wall_ms", json::rounded(r.wall_ms, 2))
                .build()
        })
        .collect();
    json::render_record_array(&items)
}

/// The front-end driver behind `pvplan suite`: checks `config`'s clock
/// with [`ServiceConfig::clock`], builds the preset corpus, runs the
/// portfolio under `config` on `runtime`, prints the summary table, and
/// writes the artifact — to `out` when given, otherwise to
/// [`PORTFOLIO_JSON`]. Returns the written path.
///
/// # Errors
///
/// A refused clock, or a filesystem error writing the artifact.
pub fn drive(
    preset: CorpusPreset,
    seed: u64,
    config: &ServiceConfig,
    runtime: Runtime,
    out: Option<&str>,
) -> Result<PathBuf, String> {
    let (days, step) = config
        .clock(None, None)
        .map_err(|e| format!("the portfolio clock is refused: {e:?}"))?;
    let steps = SimulationClock::days_at_minutes(days, step).num_steps();
    // pvlint: allow(R03): progress narration for the interactive harness; the artifact itself goes to the JSON file
    eprintln!(
        "portfolio: preset {preset} (seed {seed}), {} scenario(s), {steps} steps, {} thread(s)...",
        preset.scenario_count(),
        runtime.threads()
    );
    let t0 = Instant::now();
    let corpus = ScenarioCorpus::preset_with_seed(preset, seed);
    let records = run_portfolio(&corpus, config, runtime);
    print!("{}", format_table(&records));
    let total: f64 = records.iter().map(|r| r.greedy_wh).sum();
    // pvlint: allow(R02): drive() is the body of `pvplan suite`; stdout is its user interface
    println!(
        "{} scenario(s), total greedy energy {:.1} Wh, {:.2} s wall",
        records.len(),
        total,
        t0.elapsed().as_secs_f64()
    );

    let scale = format!("{preset} preset, {steps} steps, seed {seed}");
    let path = PathBuf::from(out.unwrap_or(PORTFOLIO_JSON));
    std::fs::write(
        &path,
        render_portfolio_json(corpus.name(), &scale, &records),
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display()); // pvlint: allow(R02): drive() is the body of `pvplan suite`; stdout is its user interface
    Ok(path)
}

/// Formats the human-readable portfolio summary table printed by the
/// harness binaries.
#[must_use]
pub fn format_table(records: &[PortfolioRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>9} {:>7} {:>6} {:>12} {:>12} {:>8} {:>8}\n",
        "scenario", "archetype", "lat", "Ng", "greedy Wh", "anneal Wh", "gain %", "ms"
    ));
    for r in records {
        out.push_str(&format!(
            "{:<22} {:>9} {:>7.1} {:>6} {:>12.1} {:>12.1} {:>8.3} {:>8.1}\n",
            r.scenario,
            r.archetype,
            r.latitude_deg,
            r.ng,
            r.greedy_wh,
            r.anneal_wh,
            r.anneal_gain_percent(),
            r.wall_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_gis::synth::ScenarioSpec;

    /// The tiny service settings with a smaller exact budget.
    fn tiny_config() -> ServiceConfig {
        ServiceConfig {
            exact_budget: 200,
            ..ServiceConfig::tiny()
        }
    }

    #[test]
    fn single_scenario_scores_positive_energy() {
        let scenario = ScenarioSpec::generate(2018, 1).build();
        let record = run_scenario(&scenario, &tiny_config());
        assert!(record.ng > 0);
        assert!(record.series * record.strings > 0, "ladder found no fit");
        assert!(record.greedy_wh > 0.0);
        assert!(record.anneal_wh >= record.greedy_wh - 1e-9);
        assert!(record.wall_ms > 0.0);
    }

    #[test]
    fn portfolio_records_keep_corpus_order_across_thread_counts() {
        let corpus = ScenarioCorpus::generate("t", 99, 3);
        let seq = run_portfolio(&corpus, &tiny_config(), Runtime::with_threads(1));
        let par = run_portfolio(&corpus, &tiny_config(), Runtime::with_threads(3));
        assert_eq!(seq.len(), 3);
        let lines = |rs: &[PortfolioRecord]| {
            rs.iter()
                .map(PortfolioRecord::deterministic_line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&seq), lines(&par));
        for (r, s) in seq.iter().zip(corpus.scenarios()) {
            assert_eq!(r.scenario, s.name);
        }
    }

    #[test]
    fn exact_search_fires_on_a_tiny_site_and_bounds_greedy() {
        use pv_gis::{RoofBuilder, Site, SiteScenario, WeatherGenerator};
        use pv_units::Meters;
        // A roof barely larger than two module footprints: few candidate
        // anchors, so C(candidates, 2) fits the node budget.
        let scenario = SiteScenario {
            name: "tiny".into(),
            spec: None,
            dsm: RoofBuilder::new(Meters::new(3.6), Meters::new(1.2)).build(),
            site: Site::turin(),
            weather: WeatherGenerator::new(7),
        };
        let config = ServiceConfig {
            max_modules: 2,
            exact_budget: 100_000,
            ..tiny_config()
        };
        let record = run_scenario(&scenario, &config);
        assert_eq!((record.series, record.strings), (2, 1));
        let exact = record.exact_wh.expect("exhaustive search fits the budget");
        assert!(exact >= record.greedy_wh - 1e-9, "exact is an upper bound");
        assert!(record.exact_gap_percent().unwrap() >= -1e-9);
    }

    #[test]
    fn rendered_json_parses_and_carries_the_shared_core() {
        let corpus = ScenarioCorpus::generate("t", 5, 1);
        let records = run_portfolio(&corpus, &tiny_config(), Runtime::with_threads(1));
        let doc = render_portfolio_json("t", "tiny", &records);
        let parsed = json::parse(&doc).expect("valid JSON");
        let items = parsed.as_array().unwrap();
        assert_eq!(items.len(), 1);
        let item = &items[0];
        assert_eq!(item.get("bench").unwrap().as_str(), Some("portfolio:t"));
        assert_eq!(item.get("scale").unwrap().as_str(), Some("tiny"));
        assert!(item.get("name").unwrap().as_str().is_some());
        assert!(item.get("greedy_wh").unwrap().as_number().unwrap() >= 0.0);
        assert!(item.get("wall_ms").unwrap().as_number().unwrap() >= 0.0);
    }
}
