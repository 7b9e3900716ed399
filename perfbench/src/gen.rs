//! Seeded, pure input generation.
//!
//! Every input a workload sends — site specs, the request mix, Zipf
//! draws and the open-loop schedule — is a function of the `--seed`
//! argument alone, so the same seed replays the same inputs and the
//! program under test only ever sees the generated bodies.

use pv_gis::synth::LATITUDE_BANDS;
use pv_gis::ScenarioSpec;

/// SplitMix64: a tiny, well-mixed PRNG that is trivially reproducible.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a seed, so streams
    /// (sites, mix, schedule) never share draws.
    pub fn stream(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Self(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Requests per stratification block (see [`stratified_units`]).
pub const BLOCK: usize = 100;

/// `n` uniform draws in `[0, 1)`, stratified per block of `block`: each
/// block holds exactly one draw in every `1/block` slice, in shuffled
/// order. Any prefix then matches the target distribution far more
/// closely than independent draws would, which keeps mix shares and
/// miss counts, and so the measured cost, steady across seeds.
pub fn stratified_units(rng: &mut Rng, n: usize, block: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let start = out.len();
        out.extend((0..block).map(|k| (k as f64 + rng.unit()) / block as f64));
        for i in (start + 1..out.len()).rev() {
            let j = start + rng.below(i - start + 1);
            out.swap(i, j);
        }
    }
    out.truncate(n);
    out
}

/// The corpus seed the site specs of a benchmark seed are drawn from.
pub fn corpus_seed(seed: u64) -> u64 {
    Rng::stream(seed, "corpus").next_u64()
}

/// The weather seed of the Table I batch for a benchmark seed.
pub fn weather_seed(seed: u64) -> u64 {
    Rng::stream(seed, "weather").next_u64()
}

/// `count` corpus sites forming a stratified sample: draw `oversample ×
/// count` candidates, split them by latitude band (daylight, and so
/// solve cost, falls with latitude), sort each band by its valid cell
/// count and keep every `oversample`-th. The kept set spans the
/// corpus' bands and roof sizes evenly for every seed, so a workload's
/// cost depends little on which seed drew it. `count` should be a
/// multiple of the band count.
pub fn stratified_sites(seed: u64, count: usize, oversample: usize) -> Vec<ScenarioSpec> {
    let corpus = corpus_seed(seed);
    let bands = LATITUDE_BANDS.len();
    let mut by_band: Vec<Vec<(usize, ScenarioSpec)>> = vec![Vec::new(); bands];
    for index in 0..(count * oversample) as u32 {
        let spec = ScenarioSpec::generate(corpus, index);
        let band = LATITUDE_BANDS
            .iter()
            .position(|&(lo, hi)| (lo..hi).contains(&spec.latitude_deg))
            .unwrap_or(bands - 1);
        let cells = spec.build().dsm.valid().count();
        by_band[band].push((cells, spec));
    }
    by_band
        .into_iter()
        .flat_map(|mut band| {
            band.sort_by_key(|(cells, spec)| (*cells, spec.index));
            band.into_iter()
                .skip(oversample / 2)
                .step_by(oversample)
                .take(count / bands)
                .map(|(_, spec)| spec)
        })
        .collect()
}

/// Which placer a served request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Greedy,
    Anneal,
    Exact,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Greedy, Kind::Anneal, Kind::Exact];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Greedy => "greedy",
            Kind::Anneal => "anneal",
            Kind::Exact => "exact",
        }
    }
}

/// One generated `/v1/place` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index of the request's site in the workload's site list.
    pub site: usize,
    pub kind: Kind,
    pub body: String,
}

/// Anneal chain seeds a warm-serving site is asked for; a small set, so
/// the distinct bodies (and the in-process reference) stay bounded.
const ANNEAL_SEEDS: u64 = 4;

/// The body of a request. Exact requests pin a 1×1 topology: exact at
/// the service's default 16 modules is a deterministic 422 over the
/// standard profile's node budget, and only 1×1 fits under it on every
/// corpus site.
pub fn body_for(spec: &str, kind: Kind, anneal_seed: u64) -> String {
    match kind {
        Kind::Greedy => spec.to_string(),
        Kind::Anneal => {
            format!(r#"{{"spec": "{spec}", "placer": "anneal", "seed": {anneal_seed}}}"#)
        }
        Kind::Exact => {
            format!(r#"{{"spec": "{spec}", "placer": "exact", "series": 1, "strings": 1}}"#)
        }
    }
}

/// Share of greedy / anneal / exact requests in the warm mix.
pub const WARM_MIX: [(Kind, f64); 3] = [
    (Kind::Greedy, 0.70),
    (Kind::Anneal, 0.27),
    (Kind::Exact, 0.03),
];

/// A seeded permutation of `0..n` (Fisher-Yates).
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// `n` warm-serving requests over `specs` (spec strings). The placer
/// follows [`WARM_MIX`] (stratified); each placer walks the sites in its
/// own seeded order, so every site sees each placer equally often and
/// the mix's cost does not hinge on which sites drew the slow placers.
pub fn warm_mix(seed: u64, stream: &str, specs: &[String], n: usize) -> Vec<Request> {
    let mut rng = Rng::stream(seed, stream);
    let kinds = stratified_units(&mut rng, n, BLOCK);
    let orders: Vec<Vec<usize>> = Kind::ALL
        .iter()
        .map(|_| permutation(&mut rng, specs.len()))
        .collect();
    let mut served = [0usize; 3];
    kinds
        .iter()
        .map(|&u_kind| {
            let mut acc = 0.0;
            let slot = WARM_MIX
                .iter()
                .position(|(_, share)| {
                    acc += share;
                    u_kind < acc
                })
                .unwrap_or(0);
            let kind = WARM_MIX[slot].0;
            let site = orders[slot][served[slot] % specs.len()];
            served[slot] += 1;
            let anneal_seed = rng.next_u64() % ANNEAL_SEEDS;
            Request {
                site,
                kind,
                body: body_for(&specs[site], kind, anneal_seed),
            }
        })
        .collect()
}

/// Zipf(`s`) over ranks `0..population`, by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(population: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=population)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The rank (0 = most popular) at uniform quantile `u`.
    pub fn rank_at(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The churn population of `population` sites, one per popularity rank
/// (0 = most popular), drawn in corpus order but dealt round-robin over
/// the fleet's shards: rank `k` lives on shard `k % shards`
/// (`shard_of` is the router's placement of a spec). Cold misses, which
/// fall on the long tail of ranks, then split evenly over the shards
/// for every seed instead of hinging on where a seed's sites hash.
pub fn churn_sites(
    seed: u64,
    population: usize,
    shards: usize,
    shard_of: impl Fn(&ScenarioSpec) -> usize,
) -> Vec<ScenarioSpec> {
    let corpus = corpus_seed(seed);
    let mut next_index = 0u32;
    let mut pools: Vec<std::collections::VecDeque<ScenarioSpec>> = vec![Default::default(); shards];
    (0..population)
        .map(|rank| {
            let target = rank % shards;
            loop {
                if let Some(spec) = pools[target].pop_front() {
                    return spec;
                }
                let spec = ScenarioSpec::generate(corpus, next_index);
                next_index += 1;
                if typical(&spec) {
                    pools[shard_of(&spec) % shards].push_back(spec);
                }
            }
        })
        .collect()
}

/// Whether a corpus site is a typical mid-latitude residential roof
/// (70–110 m², middle latitude band). The churn population keeps only
/// these, so a cold miss costs about the same whichever site missed and
/// the tail measures the serving path rather than the luck of the draw.
pub fn typical(spec: &ScenarioSpec) -> bool {
    let (lo, hi) = LATITUDE_BANDS[1];
    (lo..hi).contains(&spec.latitude_deg) && (70.0..110.0).contains(&(spec.width_m * spec.depth_m))
}

/// `n` Zipf-distributed popularity ranks (stratified) for the churn
/// stream `stream`.
pub fn zipf_ranks(seed: u64, stream: &str, zipf: &Zipf, n: usize) -> Vec<usize> {
    let mut rng = Rng::stream(seed, stream);
    stratified_units(&mut rng, n, BLOCK)
        .into_iter()
        .map(|u| zipf.rank_at(u))
        .collect()
}

/// Open-loop due times, seconds from the start: `rate` arrivals per
/// second over `seconds`, paced at a constant rate (as constant-
/// throughput load generators do) with each arrival jittered by up to a
/// quarter interval. Pacing keeps the number of chance collisions
/// between slow requests, and so the tail, steady from run to run.
pub fn paced_schedule(seed: u64, stream: &str, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::stream(seed, stream);
    let n = (rate * seconds).floor() as usize;
    (0..n)
        .map(|i| (i as f64 + 0.5 + (rng.unit() - 0.5) * 0.5) / rate)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<String> {
        (0..4).map(|i| format!("spec{i}")).collect()
    }

    #[test]
    fn same_seed_gives_an_identical_schedule_and_mix() {
        assert_eq!(
            paced_schedule(7, "open", 100.0, 3.0),
            paced_schedule(7, "open", 100.0, 3.0)
        );
        assert_eq!(
            warm_mix(7, "mix", &specs(), 200),
            warm_mix(7, "mix", &specs(), 200)
        );
        let zipf = Zipf::new(500, 1.2);
        assert_eq!(
            zipf_ranks(7, "z", &zipf, 300),
            zipf_ranks(7, "z", &zipf, 300)
        );
        let a: Vec<String> = stratified_sites(7, 6, 3)
            .iter()
            .map(|s| s.to_spec_string())
            .collect();
        let b: Vec<String> = stratified_sites(7, 6, 3)
            .iter()
            .map(|s| s.to_spec_string())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn a_different_seed_gives_a_different_schedule_and_mix() {
        assert_ne!(
            paced_schedule(7, "open", 100.0, 3.0),
            paced_schedule(8, "open", 100.0, 3.0)
        );
        assert_ne!(
            warm_mix(7, "mix", &specs(), 200),
            warm_mix(8, "mix", &specs(), 200)
        );
        let zipf = Zipf::new(500, 1.2);
        assert_ne!(
            zipf_ranks(7, "z", &zipf, 300),
            zipf_ranks(8, "z", &zipf, 300)
        );
        let shard = |s: &ScenarioSpec| (s.canonical_hash() % 2) as usize;
        assert_ne!(churn_sites(7, 50, 2, shard), churn_sites(8, 50, 2, shard));
        assert_ne!(weather_seed(7), weather_seed(8));
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        assert_ne!(
            paced_schedule(7, "open", 100.0, 3.0),
            paced_schedule(7, "closed", 100.0, 3.0)
        );
    }

    #[test]
    fn schedule_rate_and_range_are_as_asked() {
        let due = paced_schedule(3, "open", 200.0, 10.0);
        assert_eq!(due.len(), 2000);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due.iter().all(|&t| (0.0..10.0).contains(&t)));
        for (i, t) in due.iter().enumerate() {
            let slot = (i as f64 + 0.5) / 200.0;
            assert!(
                (t - slot).abs() <= 0.25 / 200.0 + 1e-12,
                "arrival {i} at {t}"
            );
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(1000, 1.2);
        let ranks = zipf_ranks(1, "z", &zipf, 5000);
        let top = ranks.iter().filter(|&&r| r < 10).count();
        let tail = ranks.iter().filter(|&&r| (500..510).contains(&r)).count();
        assert!(top > 20 * tail.max(1), "top {top} tail {tail}");
        assert!(ranks.iter().all(|&r| r < 1000));
    }

    #[test]
    fn warm_mix_honours_the_shares_and_exact_pins_1x1() {
        let mix = warm_mix(5, "mix", &specs(), 4000);
        let share = |k| mix.iter().filter(|r| r.kind == k).count() as f64 / mix.len() as f64;
        assert!((share(Kind::Greedy) - 0.70).abs() < 0.03);
        assert!((share(Kind::Anneal) - 0.27).abs() < 0.03);
        let exact = mix
            .iter()
            .find(|r| r.kind == Kind::Exact)
            .expect("some exact");
        assert!(exact.body.contains(r#""series": 1, "strings": 1"#));
    }

    #[test]
    fn warm_mix_spreads_each_placer_evenly_over_the_sites() {
        let mix = warm_mix(5, "mix", &specs(), 1000);
        for kind in Kind::ALL {
            let mut per_site = [0usize; 4];
            for r in mix.iter().filter(|r| r.kind == kind) {
                per_site[r.site] += 1;
            }
            let (lo, hi) = (
                per_site.iter().min().unwrap(),
                per_site.iter().max().unwrap(),
            );
            assert!(hi - lo <= 1, "{kind:?}: {per_site:?}");
        }
    }

    #[test]
    fn churn_sites_alternate_shards_by_rank() {
        let shard = |s: &ScenarioSpec| (s.canonical_hash() % 3) as usize;
        let sites = churn_sites(3, 200, 3, shard);
        assert_eq!(sites, churn_sites(3, 200, 3, shard));
        assert_eq!(sites.len(), 200);
        for (rank, site) in sites.iter().enumerate() {
            assert_eq!(shard(site), rank % 3, "rank {rank}");
        }
        let mut indices: Vec<u32> = sites.iter().map(|s| s.index).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), sites.len(), "no site repeats");
    }

    #[test]
    fn stratified_units_fill_every_slice_of_every_block() {
        let mut rng = Rng::stream(9, "s");
        let units = stratified_units(&mut rng, 250, 50);
        assert_eq!(units.len(), 250);
        for block in units.chunks(50) {
            let mut slices: Vec<usize> = block.iter().map(|u| (u * 50.0) as usize).collect();
            slices.sort_unstable();
            assert_eq!(slices, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stratified_sites_cover_every_band_equally_in_size_order() {
        let sites = stratified_sites(11, 9, 4);
        assert_eq!(sites.len(), 9);
        for (band, chunk) in sites.chunks(3).enumerate() {
            let (lo, hi) = LATITUDE_BANDS[band];
            assert!(chunk.iter().all(|s| (lo..hi).contains(&s.latitude_deg)));
            let cells: Vec<usize> = chunk
                .iter()
                .map(|s| s.build().dsm.valid().count())
                .collect();
            assert!(cells.windows(2).all(|w| w[0] <= w[1]), "{cells:?}");
        }
    }
}
