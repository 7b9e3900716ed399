//! Yearly-energy evaluation of a placement (paper Sec. III-B).
//!
//! For every time step the evaluator computes each module's operating point
//! from the mean irradiance over its covered cells, aggregates strings with
//! the series/parallel bottleneck equations, subtracts the wiring RI² loss
//! of each string's extra cable, and integrates over the simulation period.
//!
//! # Incremental delta evaluation
//!
//! Search loops (annealing, exhaustive enumeration) evaluate hundreds of
//! placements that differ from the previous one by a *single module*.
//! [`EvaluationContext`] therefore caches everything a re-score needs:
//!
//! - **per-module traces** — each module's per-step operating point
//!   (voltage and current), in module-major SoA blocks, built in parallel
//!   at construction ([`Runtime::for_each_chunk_mut`]) by a *fused*
//!   transposition + operating-point pass: each [`FUSE_TILE`]-step tile
//!   runs the single-group POA kernel
//!   ([`pv_gis::SolarDataset::mean_irradiance_group_into`]) into a scratch
//!   tile and then the module's own operating-point sweep
//!   ([`EmpiricalModule::operating_points`], bit-identical to its
//!   [`ModuleModel`] calls) while the means are still hot in cache — one
//!   sweep over the step range instead of two, with tiling provably
//!   invisible in the bits (both kernels are elementwise / sub-range
//!   stable). The means themselves are not kept: every fold reads only
//!   voltage and current;
//! - **per-string aggregates** — each string's per-step series voltage sum
//!   and bottleneck current, so a move touches only the affected string;
//! - the **undo buffer** of a try/commit/rollback move API
//!   ([`try_move`](EvaluationContext::try_move) /
//!   [`commit_move`](EvaluationContext::commit_move) /
//!   [`rollback_move`](EvaluationContext::rollback_move)): a rejected
//!   proposal swaps the old trace back without a second irradiance
//!   recompute;
//! - an optional **per-anchor [`TraceMemo`]** shared across contexts, so a
//!   revisited anchor costs a lookup instead of a kernel pass.
//!
//! [`evaluate`](EvaluationContext::evaluate) then only folds the cached
//! per-step data. Crucially it performs *the same floating-point
//! operations in the same order* as the from-scratch reference
//! [`evaluate_cold`](EvaluationContext::evaluate_cold) (same per-step
//! string folds, same fixed [`STEP_CHUNK`] windows, partial sums merged in
//! chunk order), so incremental reports are **bit-identical** to a cold
//! evaluation — on any thread count (the workspace determinism guarantee,
//! see DESIGN.md).

use crate::config::FloorplanConfig;
use crate::error::FloorplanError;
use crate::greedy::FloorplanResult;
use pv_geom::{CellCoord, Placement};
use pv_gis::{lanes, IrradianceGroup, SolarDataset};
use pv_model::{
    panel_step, string_wiring_overhead, EmpiricalModule, ModuleModel, OperatingPoint, WiringSpec,
};
use pv_runtime::Runtime;
use pv_units::{Amperes, Irradiance, Meters, Volts, WattHours, Watts};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Time steps per parallel work unit of the integration loop.
///
/// Fixed (never derived from the thread count) so partial energy sums are
/// always folded over identical step windows.
const STEP_CHUNK: usize = 256;

/// Per-module trace block layout: `[V | I]`, the module's per-step MPP
/// voltage and current, each of length `num_steps` — one contiguous
/// module-major block per module.
const TRACE_FIELDS: usize = 2;

/// Steps per tile of the fused transposition + operating-point pass
/// (4 KiB of means scratch and 8 KiB of trace per tile, comfortably
/// L1-resident).
///
/// The tile size cannot affect the output bits: the POA kernel is
/// sub-range stable (documented contract of `mean_irradiance_group_into`)
/// and the IV sweep is purely elementwise.
const FUSE_TILE: usize = 512;

/// Per-string aggregate block layout: `[Σ V | min I]`, each of length
/// `num_steps`.
const AGG_FIELDS: usize = 2;

/// Evaluation result for one placement over the simulation period.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyReport {
    /// Net extracted energy (panel output minus wiring loss).
    pub energy: WattHours,
    /// Panel output before wiring losses.
    pub gross_energy: WattHours,
    /// Energy dissipated in the extra string cabling.
    pub wiring_loss: WattHours,
    /// Upper bound: Σ of module MPP energies (no series/parallel
    /// bottleneck); the gap to `gross_energy` is the mismatch loss.
    pub sum_of_module_energy: WattHours,
    /// Total extra cable beyond default connectors, all strings.
    pub extra_wire: Meters,
    /// Extra cable cost at the configured $/m.
    pub wire_cost: f64,
}

impl EnergyReport {
    /// Fraction of the bottleneck-free energy lost to series/parallel
    /// mismatch, in `[0, 1]`.
    #[must_use]
    pub fn mismatch_fraction(&self) -> f64 {
        let bound = self.sum_of_module_energy.as_wh();
        if bound <= 0.0 {
            0.0
        } else {
            (1.0 - self.gross_energy.as_wh() / bound).max(0.0)
        }
    }

    /// Wiring loss as a fraction of net energy (the paper's "0.05%/m"
    /// scale check divides this by `extra_wire`).
    #[must_use]
    pub fn wiring_loss_fraction(&self) -> f64 {
        let e = self.energy.as_wh();
        if e <= 0.0 {
            0.0
        } else {
            self.wiring_loss.as_wh() / e
        }
    }
}

/// Shared memo of per-anchor module traces.
///
/// A module's trace (its per-step operating point, voltage and current)
/// is a pure function of its anchor for a fixed dataset, footprint and
/// module model, so search loops that revisit anchors — the annealer
/// proposing a previously seen position, a later request on the same
/// site — can reuse it. Create one memo per (dataset, config) pair and
/// pass it to [`EnergyEvaluator::context`]; it is thread-safe, so parallel
/// users share one memo. A trace takes `2 × steps × 8` bytes. The
/// exhaustive search does not use one: it traces every candidate in one
/// sweep over the roof.
///
/// Memoized traces are byte copies of kernel output, so memo hits are
/// bit-identical to recomputation. Memory is bounded by a byte budget
/// ([`TraceMemo::DEFAULT_BYTE_BUDGET`] unless overridden with
/// [`with_byte_budget`](Self::with_byte_budget)): once the budget is
/// reached, further anchors are simply recomputed instead of cached —
/// results are unaffected (a trace is the same bytes either way), only
/// the hit rate degrades.
///
/// ```
/// use pv_floorplan::{greedy_placement, EnergyEvaluator, FloorplanConfig, TraceMemo};
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_model::Topology;
/// use pv_units::{Meters, SimulationClock};
///
/// let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
/// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
///     .extract(&roof);
/// let config = FloorplanConfig::paper(Topology::new(2, 1)?)?;
/// let plan = greedy_placement(&data, &config)?;
/// let evaluator = EnergyEvaluator::new(&config);
///
/// let memo = TraceMemo::new();
/// let first = evaluator.context(&data, &plan, Some(&memo))?.evaluate();
/// assert_eq!(memo.len(), 2); // both module anchors published
/// // A second context on the same (dataset, config) pair starts warm —
/// // and memo hits are bit-identical to recomputation.
/// let second = evaluator.context(&data, &plan, Some(&memo))?.evaluate();
/// assert_eq!(first, second);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TraceMemo {
    anchors: Mutex<BTreeMap<CellCoord, Arc<[f64]>>>,
    byte_budget: usize,
}

impl Default for TraceMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceMemo {
    /// Default cache budget: 256 MiB of trace data (e.g. 478 anchors at
    /// the paper's 35,040-step clock, or every anchor of any smoke-scale
    /// roof).
    pub const DEFAULT_BYTE_BUDGET: usize = 256 << 20;

    /// An empty memo with the default byte budget.
    #[must_use]
    pub fn new() -> Self {
        Self::with_byte_budget(Self::DEFAULT_BYTE_BUDGET)
    }

    /// An empty memo that stops admitting new anchors once its stored
    /// traces exceed `bytes`.
    #[must_use]
    pub fn with_byte_budget(bytes: usize) -> Self {
        Self {
            anchors: Mutex::new(BTreeMap::new()),
            byte_budget: bytes,
        }
    }

    /// Number of memoized anchors.
    ///
    /// # Panics
    ///
    /// Panics if the memo's lock was poisoned by a panicking user.
    #[must_use]
    pub fn len(&self) -> usize {
        self.anchors.lock().expect("memo lock poisoned").len()
    }

    /// Whether the memo holds no anchors yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, anchor: CellCoord) -> Option<Arc<[f64]>> {
        self.anchors
            .lock()
            .expect("memo lock poisoned")
            .get(&anchor)
            .cloned()
    }

    fn insert(&self, anchor: CellCoord, trace: &[f64]) {
        let mut anchors = self.anchors.lock().expect("memo lock poisoned");
        if (anchors.len() + 1).saturating_mul(std::mem::size_of_val(trace)) > self.byte_budget {
            return; // budget reached: recompute instead of caching
        }
        anchors.entry(anchor).or_insert_with(|| trace.into());
    }
}

/// Evaluates placements against a [`SolarDataset`] under a configuration's
/// module model and topology, with the paper's AWG 10 wiring
/// ([`WiringSpec::awg10`]).
#[derive(Clone, Debug)]
pub struct EnergyEvaluator<'a> {
    config: &'a FloorplanConfig,
    runtime: Runtime,
}

impl<'a> EnergyEvaluator<'a> {
    /// Creates an evaluator borrowing the run configuration.
    ///
    /// The integration loop runs on [`Runtime::from_env`] workers
    /// (`PV_THREADS` or the machine's parallelism); override with
    /// [`with_runtime`](Self::with_runtime). Reports are bit-identical for
    /// every thread count.
    #[must_use]
    pub fn new(config: &'a FloorplanConfig) -> Self {
        Self {
            config,
            runtime: Runtime::from_env(),
        }
    }

    /// Sets the parallel runtime used by the integration loop.
    #[must_use]
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Builds a reusable [`EvaluationContext`] for `plan` — the entry
    /// point for search loops that evaluate many variations of one plan.
    ///
    /// With a shared per-anchor [`TraceMemo`], module traces for anchors
    /// already in the memo are copied instead of recomputed, and freshly
    /// computed traces are published to it. The memo must only be shared
    /// between contexts built from the *same* dataset and configuration (a
    /// trace is a pure function of the anchor only under that pairing).
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::PlacementSizeMismatch`] when the plan's
    /// module count differs from the configured topology.
    pub fn context<'d>(
        &self,
        dataset: &'d SolarDataset,
        plan: &FloorplanResult,
        memo: Option<&'d TraceMemo>,
    ) -> Result<EvaluationContext<'d>, FloorplanError>
    where
        'a: 'd,
    {
        let module = self.config.module();
        EvaluationContext::new(
            dataset,
            self.config,
            plan,
            self.runtime,
            memo,
            |k, ambient, block| {
                fill_module_trace(dataset, &plan.placement, k, module, ambient, memo, block);
            },
        )
    }

    /// Integrates the yearly energy of `plan` over `dataset`.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::PlacementSizeMismatch`] when the plan's
    /// module count differs from the configured topology.
    pub fn evaluate(
        &self,
        dataset: &SolarDataset,
        plan: &FloorplanResult,
    ) -> Result<EnergyReport, FloorplanError> {
        Ok(self.context(dataset, plan, None)?.evaluate())
    }
}

/// The undo record of a pending [`try_move`](EvaluationContext::try_move):
/// everything needed to restore the pre-move state without recomputation
/// (the bulk trace/aggregate bytes live in the context's persistent
/// scratch buffers).
#[derive(Clone, Debug)]
struct PendingMove {
    module: usize,
    old_anchor: CellCoord,
    old_extra: Meters,
}

/// Cached per-plan evaluation state, built once and re-scored many times.
///
/// Owns a copy of the plan's [`Placement`] so search loops can mutate it
/// in place. Single-module moves go through the try/commit/rollback API:
/// [`try_move`](Self::try_move) refreshes exactly the state that depends
/// on the moved module (its trace block, and its string's aggregates and
/// wiring overhead — `O(1 module)`, not
/// `O(N modules)`), and [`rollback_move`](Self::rollback_move) restores
/// the previous state from the undo buffer without touching the kernel.
/// [`evaluate`](Self::evaluate) re-scores from the caches and is
/// bit-identical to the from-scratch [`evaluate_cold`](Self::evaluate_cold).
///
/// # The try/commit/rollback contract
///
/// A search loop drives the context through proposals:
///
/// 1. [`try_move`](Self::try_move) — propose relocating one module; on
///    `Ok` the context scores the *proposed* state and holds the
///    displaced state in an undo buffer. At most one proposal is pending.
/// 2. [`evaluate`](Self::evaluate) — re-score from the caches
///    (`O(steps)`, no irradiance or module-model code).
/// 3. [`commit_move`](Self::commit_move) to accept, or
///    [`rollback_move`](Self::rollback_move) to reject — rollback swaps
///    the old state back **without recomputation**, and the context is
///    bit-identical to one that never proposed.
///
/// ```
/// use pv_floorplan::{greedy_placement, EnergyEvaluator, FloorplanConfig, SuitabilityMap};
/// use pv_gis::{RoofBuilder, SolarExtractor, Site};
/// use pv_model::Topology;
/// use pv_units::{Meters, SimulationClock};
///
/// let roof = RoofBuilder::new(Meters::new(6.0), Meters::new(2.0)).build();
/// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
///     .extract(&roof);
/// let config = FloorplanConfig::paper(Topology::new(2, 1)?)?;
/// let plan = greedy_placement(&data, &config)?;
/// let mut ctx = EnergyEvaluator::new(&config).context(&data, &plan, None)?;
/// let baseline = ctx.evaluate();
///
/// // Propose moving module 0 to the first feasible free anchor.
/// let map = SuitabilityMap::compute(&data, &config);
/// let proposed = map
///     .anchor_scores(config.footprint())
///     .enumerate()
///     .filter(|(_, s)| s.is_finite())
///     .find_map(|(a, _)| ctx.try_move(0, a).ok().map(|old| (a, old)));
/// let (new_anchor, old_anchor) = proposed.expect("roof has free anchors");
/// assert_eq!(ctx.anchors()[0], new_anchor);
///
/// // Reject it: state and score roll back bit-identically, for free.
/// ctx.rollback_move();
/// assert_eq!(ctx.anchors()[0], old_anchor);
/// let restored = ctx.evaluate();
/// assert_eq!(restored.energy.as_wh().to_bits(), baseline.energy.as_wh().to_bits());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct EvaluationContext<'d> {
    dataset: &'d SolarDataset,
    config: &'d FloorplanConfig,
    runtime: Runtime,
    placement: Placement,
    /// Module indices of each series string, in series-connection order.
    strings: Vec<Vec<usize>>,
    /// `string_of[k]` = series string of module `k`.
    string_of: Vec<usize>,
    /// The AWG 10 cable every string's extra length is scored with.
    wiring: WiringSpec,
    string_extra: Vec<Meters>,
    /// Per-step ambient temperature (°C), hoisted once so the fused IV
    /// sweep never chases `StepConditions` per module × step.
    ambient: Vec<f64>,
    /// Module-major trace cache: module `k` owns the contiguous block
    /// `[k·2S, (k+1)·2S)` holding its voltage and current traces (`S`
    /// steps each; zeros while the sun is down).
    trace: Vec<f64>,
    /// String-major aggregate cache: string `j` owns `[j·2S, (j+1)·2S)`
    /// holding its per-step series voltage sum and bottleneck current.
    agg: Vec<f64>,
    memo: Option<&'d TraceMemo>,
    /// Undo metadata of the pending proposal, if any.
    pending: Option<PendingMove>,
    /// Persistent undo scratch: the displaced trace block (2S values).
    undo_trace: Vec<f64>,
    /// Persistent undo scratch: the displaced aggregate block (2S values).
    undo_agg: Vec<f64>,
}

impl<'d> EvaluationContext<'d> {
    /// The context of `plan` whose module `k`'s trace block is written by
    /// `fill(k, ambient, block)` (`ambient` is the per-step ambient
    /// temperature), one block per module in parallel on `runtime`; `memo`
    /// serves the kernel fills of later [`try_move`](Self::try_move)s.
    /// Each block is an independent pure function of its anchor, so the
    /// thread count cannot affect the bytes.
    pub(crate) fn new(
        dataset: &'d SolarDataset,
        config: &'d FloorplanConfig,
        plan: &FloorplanResult,
        runtime: Runtime,
        memo: Option<&'d TraceMemo>,
        fill: impl Fn(usize, &[f64], &mut [f64]) + Sync,
    ) -> Result<Self, FloorplanError> {
        check_size(config, plan)?;
        let topology = config.topology();
        let num_steps = dataset.num_steps() as usize;
        let ambient = ambient_trace(dataset);
        let mut trace = vec![0.0f64; plan.placement.len() * trace_len(num_steps)];
        runtime.for_each_chunk_mut(&mut trace, trace_len(num_steps), |k, block| {
            fill(k, &ambient, block);
        });
        // Per-string module order (series connection order = enumeration
        // order within the string).
        let mut strings: Vec<Vec<usize>> =
            vec![Vec::with_capacity(topology.series()); topology.strings()];
        for (k, &s) in plan.string_of.iter().enumerate() {
            strings[s].push(k);
        }
        debug_assert!(strings.iter().all(|s| s.len() == topology.series()));

        let mut context = Self {
            dataset,
            config,
            runtime,
            placement: plan.placement.clone(),
            agg: vec![0.0f64; strings.len() * AGG_FIELDS * num_steps],
            strings,
            string_of: plan.string_of.clone(),
            wiring: WiringSpec::awg10(),
            string_extra: vec![Meters::ZERO; topology.strings()],
            ambient,
            trace,
            memo,
            pending: None,
            undo_trace: vec![0.0f64; trace_len(num_steps)],
            undo_agg: vec![0.0f64; AGG_FIELDS * num_steps],
        };
        for j in 0..context.strings.len() {
            context.refresh_string(j);
        }
        Ok(context)
    }

    /// The current placement under evaluation.
    #[inline]
    #[must_use]
    pub const fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Current module anchors, in module order.
    #[must_use]
    pub fn anchors(&self) -> Vec<CellCoord> {
        self.placement.modules().iter().map(|m| m.anchor).collect()
    }

    /// Number of simulated time steps.
    #[inline]
    fn num_steps(&self) -> usize {
        self.dataset.num_steps() as usize
    }

    /// Proposes moving module `k` to `anchor`, refreshing exactly the
    /// cached state that depends on it: module `k`'s irradiance group and
    /// trace block (via the single-group kernel, or a [`TraceMemo`] lookup
    /// when the anchor was seen before) and its string's aggregates and
    /// wiring overhead. Returns the previous anchor.
    ///
    /// The displaced state is kept in an undo buffer until the proposal is
    /// resolved with [`commit_move`](Self::commit_move) (keep it) or
    /// [`rollback_move`](Self::rollback_move) (swap the old state back at
    /// zero recomputation cost). At most one proposal is pending: a
    /// successful `try_move` implicitly commits the previous one. On error
    /// the context — including any pending proposal — is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::Geometry`] when the new position is out
    /// of bounds, covers invalid cells, or overlaps another module.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn try_move(&mut self, k: usize, anchor: CellCoord) -> Result<CellCoord, FloorplanError> {
        let old_anchor = self
            .placement
            .try_relocate(k, anchor, self.dataset.valid())?;
        // The move is geometrically valid: from here on the proposal
        // replaces any previously pending one.
        let s = self.string_of[k];
        let num_steps = self.num_steps();
        self.undo_trace
            .copy_from_slice(&self.trace[trace_block(k, num_steps)]);
        self.undo_agg
            .copy_from_slice(&self.agg[agg_block(s, num_steps)]);
        let old_extra = self.string_extra[s];

        fill_module_trace(
            self.dataset,
            &self.placement,
            k,
            self.config.module(),
            &self.ambient,
            self.memo,
            &mut self.trace[trace_block(k, num_steps)],
        );
        self.refresh_string(s);

        self.pending = Some(PendingMove {
            module: k,
            old_anchor,
            old_extra,
        });
        Ok(old_anchor)
    }

    /// Accepts the pending proposal: the undo buffer is discarded and the
    /// moved state becomes permanent. No-op when nothing is pending.
    pub fn commit_move(&mut self) {
        self.pending = None;
    }

    /// Rejects the pending proposal: placement, trace block, string
    /// aggregates and wiring overhead are restored from the
    /// undo buffer — **no** irradiance or operating-point recomputation.
    /// No-op when nothing is pending.
    ///
    /// # Panics
    ///
    /// Panics if the prior anchor has become infeasible, which cannot
    /// happen through this API (no other module moved since the proposal).
    pub fn rollback_move(&mut self) {
        let Some(undo) = self.pending.take() else {
            return;
        };
        let k = undo.module;
        let s = self.string_of[k];
        let num_steps = self.num_steps();
        self.placement
            .try_relocate(k, undo.old_anchor, self.dataset.valid())
            .expect("undoing a move to the prior anchor is always feasible");
        self.trace[trace_block(k, num_steps)].copy_from_slice(&self.undo_trace);
        self.agg[agg_block(s, num_steps)].copy_from_slice(&self.undo_agg);
        self.string_extra[s] = undo.old_extra;
    }

    /// Re-anchors modules `from..` at `anchors` (module `from + j` at
    /// `anchors[j]`, its trace block written by `fill(from + j, ambient,
    /// block)` as in [`new`](Self::new)), and refreshes the aggregates and
    /// wiring of their strings: the exhaustive search's leaf step. A
    /// pending proposal is committed first.
    ///
    /// # Panics
    ///
    /// Panics if the new modules do not fit the roof side by side, or
    /// `from + anchors.len()` differs from the module count.
    pub(crate) fn load_modules(
        &mut self,
        from: usize,
        anchors: &[CellCoord],
        fill: impl Fn(usize, &[f64], &mut [f64]),
    ) {
        assert_eq!(
            from + anchors.len(),
            self.string_of.len(),
            "one anchor per module"
        );
        self.pending = None;
        while self.placement.len() > from {
            self.placement.pop();
        }
        let num_steps = self.num_steps();
        for (j, &anchor) in anchors.iter().enumerate() {
            self.placement
                .try_place(anchor, self.dataset.valid())
                .expect("loaded modules fit the roof side by side");
            let k = from + j;
            fill(k, &self.ambient, &mut self.trace[trace_block(k, num_steps)]);
        }
        for s in 0..self.strings.len() {
            if self.strings[s].iter().any(|&k| k >= from) {
                self.refresh_string(s);
            }
        }
    }

    /// Refolds string `j`'s aggregate block `[Σ V | min I]` from its
    /// members' traces and recomputes its wiring overhead from their
    /// current centres.
    ///
    /// The fold is member-outer and elementwise (two streaming lane folds
    /// per member, in series-connection order) rather than step-outer with
    /// an inner member gather — the same per-element fold order over
    /// members, so bit-identical to the cold path's inline string fold,
    /// but the inner loops vectorize.
    fn refresh_string(&mut self, j: usize) {
        let num_steps = self.num_steps();
        let (v_sum, i_min) = self.agg[agg_block(j, num_steps)].split_at_mut(num_steps);
        v_sum.fill(0.0);
        i_min.fill(f64::INFINITY);
        for &k in &self.strings[j] {
            let (volts, amps) = self.trace[trace_block(k, num_steps)].split_at(num_steps);
            lanes::add_assign(v_sum, volts);
            lanes::min_assign(i_min, amps);
        }
        let centers = self.strings[j].iter().map(|&k| self.placement.center(k));
        self.string_extra[j] = string_wiring_overhead(centers, &self.wiring);
    }

    /// Re-scores the current placement from the cached traces and string
    /// aggregates — the hot path of incremental search: after a
    /// [`try_move`](Self::try_move) this touches no irradiance or module
    /// model code at all, only the per-step folds.
    ///
    /// Time chunks of fixed size are folded independently (in parallel on
    /// the context's [`Runtime`]) and merged in chunk order, performing
    /// the same operations in the same order as
    /// [`evaluate_cold`](Self::evaluate_cold), so the report is
    /// bit-identical to a cold evaluation on every thread count.
    #[must_use]
    pub fn evaluate(&self) -> EnergyReport {
        let wiring = &self.wiring;
        let n_modules = self.placement.len();
        let num_steps = self.num_steps();

        let (gross, loss, unconstrained) = self.runtime.reduce_chunks(
            num_steps,
            STEP_CHUNK,
            |steps| {
                let mut gross = 0.0f64;
                let mut loss = 0.0f64;
                let mut unconstrained = 0.0f64;
                for i in steps {
                    let cond = self.dataset.conditions(i as u32);
                    if !cond.sun_up {
                        continue;
                    }
                    for k in 0..n_modules {
                        let base = k * trace_len(num_steps);
                        let v = self.trace[base + i];
                        let c = self.trace[base + num_steps + i];
                        unconstrained += (Volts::new(v) * Amperes::new(c)).as_watts();
                    }

                    // Series/parallel bottleneck (paper Sec. III-B1) from
                    // the cached per-string aggregates.
                    let strings = self.string_extra.iter().enumerate().map(|(j, &extra)| {
                        let base = j * AGG_FIELDS * num_steps;
                        let v = Volts::new(self.agg[base + i]);
                        (v, Amperes::new(self.agg[base + num_steps + i]), extra)
                    });
                    let (p_panel, step_loss) = panel_step(strings, wiring);
                    gross += p_panel.as_watts();
                    loss += step_loss.as_watts();
                }
                (gross, loss, unconstrained)
            },
            (0.0f64, 0.0f64, 0.0f64),
            |acc, part| (acc.0 + part.0, acc.1 + part.1, acc.2 + part.2),
        );

        self.report_from(gross, loss, unconstrained)
    }

    /// Integrates the energy of the current placement from scratch — the
    /// pre-caching reference path (irradiance kernel and operating points
    /// recomputed for **all** modules at every call), kept as the
    /// benchmark baseline and the bit-identity anchor for
    /// [`evaluate`](Self::evaluate).
    ///
    /// The incremental and cold paths perform the same floating-point
    /// operations in the same fixed chunk order, so their reports agree
    /// to the last bit — after any sequence of moves, on any thread count:
    ///
    /// ```
    /// use pv_floorplan::{greedy_placement, EnergyEvaluator, FloorplanConfig};
    /// use pv_gis::{RoofBuilder, SolarExtractor, Site};
    /// use pv_model::Topology;
    /// use pv_units::{Meters, SimulationClock};
    ///
    /// let roof = RoofBuilder::new(Meters::new(4.0), Meters::new(2.0)).build();
    /// let data = SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(1, 240))
    ///     .extract(&roof);
    /// let config = FloorplanConfig::paper(Topology::new(2, 1)?)?;
    /// let plan = greedy_placement(&data, &config)?;
    /// let ctx = EnergyEvaluator::new(&config).context(&data, &plan, None)?;
    /// let warm = ctx.evaluate();
    /// let cold = ctx.evaluate_cold();
    /// assert_eq!(warm.energy.as_wh().to_bits(), cold.energy.as_wh().to_bits());
    /// assert_eq!(warm, cold);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn evaluate_cold(&self) -> EnergyReport {
        let module = self.config.module();
        let wiring = &self.wiring;
        let n_modules = self.placement.len();
        let num_steps = self.num_steps();

        let groups: Vec<IrradianceGroup> = (0..n_modules)
            .map(|k| {
                let cells: Vec<CellCoord> = self.placement.cells_of(k).collect();
                self.dataset.irradiance_group(&cells)
            })
            .collect();
        let (gross, loss, unconstrained) = self.runtime.reduce_chunks(
            num_steps,
            STEP_CHUNK,
            |steps| {
                // Module-major means block: module `k` owns
                // `[k·len, (k+1)·len)` of this chunk's steps.
                let len = steps.len();
                let mut means = vec![0.0f64; len * n_modules];
                for (group, block) in groups.iter().zip(means.chunks_exact_mut(len)) {
                    self.dataset.mean_irradiance_group_into(
                        group,
                        steps.start as u32..steps.end as u32,
                        block,
                    );
                }
                let mut ops: Vec<OperatingPoint> = vec![OperatingPoint::default(); n_modules];
                let mut gross = 0.0f64;
                let mut loss = 0.0f64;
                let mut unconstrained = 0.0f64;
                for (rel, i) in steps.enumerate() {
                    let cond = self.dataset.conditions(i as u32);
                    if !cond.sun_up {
                        continue;
                    }
                    let ambient = cond.ambient;
                    for k in 0..n_modules {
                        let g = Irradiance::from_w_per_m2(means[k * len + rel]);
                        ops[k] = module.operating_point(g, ambient);
                        unconstrained += ops[k].power().as_watts();
                    }

                    // Series/parallel bottleneck (paper Sec. III-B1).
                    let members = self.strings.iter().zip(&self.string_extra);
                    let strings = members.map(|(mods, &extra)| {
                        let v: f64 = mods.iter().map(|&k| ops[k].voltage.value()).sum();
                        let i_str = mods
                            .iter()
                            .map(|&k| ops[k].current.value())
                            .fold(f64::INFINITY, f64::min);
                        (Volts::new(v), Amperes::new(i_str), extra)
                    });
                    let (p_panel, step_loss) = panel_step(strings, wiring);
                    gross += p_panel.as_watts();
                    loss += step_loss.as_watts();
                }
                (gross, loss, unconstrained)
            },
            (0.0f64, 0.0f64, 0.0f64),
            |acc, part| (acc.0 + part.0, acc.1 + part.1, acc.2 + part.2),
        );

        self.report_from(gross, loss, unconstrained)
    }

    fn report_from(&self, gross: f64, loss: f64, unconstrained: f64) -> EnergyReport {
        let wiring = &self.wiring;
        let extra_wire: Meters = self.string_extra.iter().copied().sum();
        let dt = self.dataset.step_duration();
        let to_energy = |w: f64| Watts::new(w).over(dt);
        EnergyReport {
            energy: to_energy(gross - loss),
            gross_energy: to_energy(gross),
            wiring_loss: to_energy(loss),
            sum_of_module_energy: to_energy(unconstrained),
            extra_wire,
            wire_cost: wiring.cost(extra_wire),
        }
    }
}

/// Per-step ambient temperature (°C) of `dataset`: what the
/// operating-point sweep reads beside each module's mean irradiance.
pub(crate) fn ambient_trace(dataset: &SolarDataset) -> Vec<f64> {
    (0..dataset.num_steps())
        .map(|i| dataset.conditions(i).ambient.as_celsius())
        .collect()
}

/// `Err` unless `plan` places exactly the configured module count.
fn check_size(config: &FloorplanConfig, plan: &FloorplanResult) -> Result<(), FloorplanError> {
    let expected = config.topology().num_modules();
    if plan.placement.len() == expected {
        Ok(())
    } else {
        Err(FloorplanError::PlacementSizeMismatch {
            expected,
            actual: plan.placement.len(),
        })
    }
}

/// Values in one module's trace block at `num_steps` steps.
#[inline]
pub(crate) const fn trace_len(num_steps: usize) -> usize {
    TRACE_FIELDS * num_steps
}

/// Index range of module `k`'s trace block.
#[inline]
const fn trace_block(k: usize, num_steps: usize) -> Range<usize> {
    k * trace_len(num_steps)..(k + 1) * trace_len(num_steps)
}

/// Index range of string `j`'s aggregate block.
#[inline]
const fn agg_block(j: usize, num_steps: usize) -> Range<usize> {
    j * AGG_FIELDS * num_steps..(j + 1) * AGG_FIELDS * num_steps
}

/// Fills module `k`'s trace block for its cells in `placement`,
/// consulting (and feeding) the optional per-anchor memo; the module's
/// irradiance group is built only on a memo miss.
fn fill_module_trace(
    dataset: &SolarDataset,
    placement: &Placement,
    k: usize,
    module: &EmpiricalModule,
    ambient: &[f64],
    memo: Option<&TraceMemo>,
    block: &mut [f64],
) {
    let anchor = placement.modules()[k].anchor;
    if let Some(cached) = memo.and_then(|memo| memo.get(anchor)) {
        assert_eq!(
            cached.len(),
            block.len(),
            "memoized trace length mismatch: the memo was built for a \
             different dataset or configuration"
        );
        block.copy_from_slice(&cached);
        return;
    }
    let cells: Vec<CellCoord> = placement.cells_of(k).collect();
    let group = dataset.irradiance_group(&cells);
    trace_from_means(
        module,
        ambient,
        |steps, means| {
            dataset.mean_irradiance_group_into(&group, steps.start as u32..steps.end as u32, means);
        },
        block,
    );
    if let Some(memo) = memo {
        memo.insert(anchor, block);
    }
}

/// Writes a module's trace block `[V | I]` from its mean irradiance, the
/// fused transposition + operating-point pass: for each [`FUSE_TILE`] of
/// steps, `means(steps, tile)` writes the module's means into a scratch
/// tile, and the module's operating-point sweep turns the tile into
/// voltage and current while it is still cache-hot. Sun-down steps carry
/// a mean of 0, for which the sweep yields exact `0.0` volts and amps.
pub(crate) fn trace_from_means(
    module: &EmpiricalModule,
    ambient: &[f64],
    mut means: impl FnMut(Range<usize>, &mut [f64]),
    block: &mut [f64],
) {
    let num_steps = ambient.len();
    let (volts, amps) = block.split_at_mut(num_steps);
    let mut scratch = [0.0f64; FUSE_TILE];
    for start in (0..num_steps).step_by(FUSE_TILE) {
        let tile = start..(start + FUSE_TILE).min(num_steps);
        let g = &mut scratch[..tile.len()];
        means(tile.clone(), g);
        module.operating_points(
            g,
            &ambient[tile.clone()],
            &mut volts[tile.clone()],
            &mut amps[tile],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_placement;
    use crate::traditional::traditional_placement;
    use pv_gis::{Obstacle, RoofBuilder, Site, SolarExtractor};
    use pv_model::Topology;
    use pv_units::{Meters, SimulationClock};

    fn config(m: usize, n: usize) -> FloorplanConfig {
        FloorplanConfig::paper(Topology::new(m, n).unwrap()).unwrap()
    }

    fn dataset(roof: &pv_gis::Dsm, days: u32) -> SolarDataset {
        SolarExtractor::new(Site::turin(), SimulationClock::days_at_minutes(days, 60))
            .seed(21)
            .extract(roof)
    }

    fn chimney_roof() -> pv_gis::Dsm {
        RoofBuilder::new(Meters::new(10.0), Meters::new(4.0))
            .obstacle(Obstacle::chimney(
                Meters::new(5.0),
                Meters::new(1.5),
                Meters::new(0.8),
                Meters::new(0.8),
                Meters::new(2.0),
            ))
            .build()
    }

    #[test]
    fn energy_is_positive_and_consistent() {
        let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(4.0)).build();
        let data = dataset(&roof, 3);
        let cfg = config(2, 2);
        let plan = greedy_placement(&data, &cfg).unwrap();
        let report = EnergyEvaluator::new(&cfg).evaluate(&data, &plan).unwrap();
        assert!(report.energy.as_wh() > 0.0);
        assert!(report.gross_energy.as_wh() >= report.energy.as_wh());
        assert!(report.sum_of_module_energy.as_wh() >= report.gross_energy.as_wh() - 1e-9);
        assert!((0.0..=1.0).contains(&report.mismatch_fraction()));
    }

    #[test]
    fn report_is_bit_identical_across_thread_counts() {
        let data = dataset(&chimney_roof(), 5);
        let cfg = config(2, 2);
        let plan = greedy_placement(&data, &cfg).unwrap();
        let seq = EnergyEvaluator::new(&cfg)
            .with_runtime(Runtime::sequential())
            .evaluate(&data, &plan)
            .unwrap();
        for threads in [2usize, 3, 8] {
            let par = EnergyEvaluator::new(&cfg)
                .with_runtime(Runtime::with_threads(threads))
                .evaluate(&data, &plan)
                .unwrap();
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    fn incremental_is_bit_identical_to_cold_reference() {
        // The caching refactor's core claim: `evaluate` (from traces) and
        // `evaluate_cold` (kernel + operating points from scratch) produce
        // the same bits, on planar and undulating roofs.
        for undulating in [false, true] {
            let mut builder =
                RoofBuilder::new(Meters::new(10.0), Meters::new(4.0)).obstacle(Obstacle::chimney(
                    Meters::new(5.0),
                    Meters::new(1.5),
                    Meters::new(0.8),
                    Meters::new(0.8),
                    Meters::new(2.0),
                ));
            if undulating {
                builder = builder.undulation(pv_units::Degrees::new(5.0), Meters::new(2.5), 7);
            }
            let data = dataset(&builder.build(), 4);
            let cfg = config(2, 2);
            let plan = greedy_placement(&data, &cfg).unwrap();
            for threads in [1usize, 3] {
                let ctx = EnergyEvaluator::new(&cfg)
                    .with_runtime(Runtime::with_threads(threads))
                    .context(&data, &plan, None)
                    .unwrap();
                assert_eq!(
                    ctx.evaluate(),
                    ctx.evaluate_cold(),
                    "undulating {undulating}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn context_relocate_matches_fresh_context() {
        let data = dataset(&chimney_roof(), 3);
        let cfg = config(2, 1);
        let plan = greedy_placement(&data, &cfg).unwrap();
        let evaluator = EnergyEvaluator::new(&cfg).with_runtime(Runtime::sequential());
        let mut ctx = evaluator.context(&data, &plan, None).unwrap();

        // Move module 1 to a fresh anchor, then compare against a context
        // built from scratch on the moved placement.
        let target = pv_geom::CellCoord::new(30, 10);
        let old = ctx.try_move(1, target).unwrap();
        ctx.commit_move();
        assert_ne!(old, target);
        let moved_plan = FloorplanResult {
            placement: ctx.placement().clone(),
            string_of: plan.string_of.clone(),
            mean_anchor_score: f64::NAN,
        };
        let fresh = evaluator
            .context(&data, &moved_plan, None)
            .unwrap()
            .evaluate();
        assert_eq!(ctx.evaluate(), fresh);

        // Undo restores the original report exactly.
        ctx.try_move(1, old).unwrap();
        ctx.commit_move();
        let original = evaluator.context(&data, &plan, None).unwrap().evaluate();
        assert_eq!(ctx.evaluate(), original);
    }

    #[test]
    fn rollback_restores_the_full_context_state() {
        let data = dataset(&chimney_roof(), 3);
        let cfg = config(2, 1);
        let plan = greedy_placement(&data, &cfg).unwrap();
        let memo = TraceMemo::new();
        let evaluator = EnergyEvaluator::new(&cfg).with_runtime(Runtime::sequential());
        let mut ctx = evaluator.context(&data, &plan, Some(&memo)).unwrap();
        let pristine = ctx.clone();

        let target = pv_geom::CellCoord::new(30, 10);
        let old = ctx.try_move(1, target).unwrap();
        assert_ne!(old, target);
        assert_ne!(ctx.anchors(), pristine.anchors());
        ctx.rollback_move();

        // Every cached structure is restored, not just the report:
        // placement, trace blocks, string aggregates and wiring extras.
        assert_eq!(ctx.placement.modules(), pristine.placement.modules());
        assert_eq!(ctx.trace, pristine.trace);
        assert_eq!(ctx.agg, pristine.agg);
        assert_eq!(ctx.string_extra, pristine.string_extra);
        assert!(ctx.pending.is_none());
        assert_eq!(ctx.evaluate(), pristine.evaluate());

        // Rollback / commit with nothing pending are no-ops.
        ctx.rollback_move();
        ctx.commit_move();
        assert_eq!(ctx.trace, pristine.trace);
    }

    #[test]
    fn trace_memo_makes_revisited_anchors_lookups() {
        let data = dataset(&chimney_roof(), 2);
        let cfg = config(2, 1);
        let plan = greedy_placement(&data, &cfg).unwrap();
        let memo = TraceMemo::new();
        let evaluator = EnergyEvaluator::new(&cfg).with_runtime(Runtime::sequential());
        let mut ctx = evaluator.context(&data, &plan, Some(&memo)).unwrap();
        assert_eq!(memo.len(), 2); // both initial anchors published

        let target = pv_geom::CellCoord::new(30, 10);
        let old = ctx.try_move(1, target).unwrap();
        assert_eq!(memo.len(), 3);
        ctx.rollback_move();
        // Revisiting both known anchors adds nothing new.
        ctx.try_move(1, target).unwrap();
        ctx.commit_move();
        ctx.try_move(1, old).unwrap();
        ctx.commit_move();
        assert_eq!(memo.len(), 3);

        // A second context sharing the memo reproduces the same report.
        let fresh = evaluator.context(&data, &plan, Some(&memo)).unwrap();
        assert_eq!(fresh.evaluate(), ctx.evaluate());
    }

    #[test]
    fn trace_memo_byte_budget_degrades_to_recompute() {
        let data = dataset(&chimney_roof(), 2);
        let cfg = config(2, 1);
        let plan = greedy_placement(&data, &cfg).unwrap();
        let evaluator = EnergyEvaluator::new(&cfg).with_runtime(Runtime::sequential());
        let unmemoized = evaluator.context(&data, &plan, None).unwrap().evaluate();
        // A budget too small for a single trace: nothing is admitted, and
        // every evaluation still produces the unmemoized result.
        let tiny = TraceMemo::with_byte_budget(64);
        let ctx = evaluator.context(&data, &plan, Some(&tiny)).unwrap();
        assert!(tiny.is_empty());
        assert_eq!(ctx.evaluate(), unmemoized);

        // A budget of exactly k two-field blocks `[V | I]` admits k anchors
        // and refuses the (k+1)-th; here k = 2, the plan's module count.
        let block_bytes = 2 * data.num_steps() as usize * std::mem::size_of::<f64>();
        let memo = TraceMemo::with_byte_budget(2 * block_bytes);
        let mut ctx = evaluator.context(&data, &plan, Some(&memo)).unwrap();
        assert_eq!(memo.len(), 2);
        ctx.try_move(1, pv_geom::CellCoord::new(30, 10)).unwrap();
        assert_eq!(memo.len(), 2);
        ctx.rollback_move();
        assert_eq!(ctx.evaluate(), unmemoized);
    }

    #[test]
    fn relocate_rejects_overlap_and_preserves_state() {
        let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(4.0)).build();
        let data = dataset(&roof, 2);
        let cfg = config(2, 1);
        let plan = greedy_placement(&data, &cfg).unwrap();
        let evaluator = EnergyEvaluator::new(&cfg).with_runtime(Runtime::sequential());
        let mut ctx = evaluator.context(&data, &plan, None).unwrap();
        let before = ctx.evaluate();
        let other = ctx.placement().modules()[0].anchor;
        assert!(matches!(
            ctx.try_move(1, other),
            Err(FloorplanError::Geometry(_))
        ));
        assert_eq!(ctx.evaluate(), before);
    }

    #[test]
    fn uniform_roof_has_negligible_mismatch() {
        let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(4.0)).build();
        let data = dataset(&roof, 3);
        let cfg = config(2, 2);
        let plan = greedy_placement(&data, &cfg).unwrap();
        let report = EnergyEvaluator::new(&cfg).evaluate(&data, &plan).unwrap();
        assert!(report.mismatch_fraction() < 1e-9);
    }

    #[test]
    fn compact_block_has_zero_wiring_overhead() {
        let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(4.0)).build();
        let data = dataset(&roof, 2);
        let cfg = config(2, 2);
        let plan = traditional_placement(&data, &cfg).unwrap();
        let report = EnergyEvaluator::new(&cfg).evaluate(&data, &plan).unwrap();
        // Adjacent landscape modules sit at 1.6 m centres = the default
        // connector length, so horizontal hops cost nothing; only row
        // breaks may add a little.
        assert!(report.extra_wire.as_meters() <= 2.5);
        assert!((report.wire_cost - report.extra_wire.as_meters()).abs() < 1e-9);
    }

    #[test]
    fn wiring_loss_scale_matches_paper() {
        // ~0.05% of yearly energy per metre of extra cable (Sec. V-C).
        let roof = RoofBuilder::new(Meters::new(16.0), Meters::new(5.0)).build();
        let data = dataset(&roof, 4);
        let cfg = config(4, 1);
        let plan = greedy_placement(&data, &cfg).unwrap();
        let report = EnergyEvaluator::new(&cfg).evaluate(&data, &plan).unwrap();
        if report.extra_wire.as_meters() > 0.5 {
            let pct_per_meter =
                report.wiring_loss_fraction() * 100.0 / report.extra_wire.as_meters();
            assert!(pct_per_meter < 0.3, "{pct_per_meter} %/m");
        }
    }

    #[test]
    fn shaded_module_bottlenecks_entire_string() {
        // Build a roof where one module of a 2-series string sits in deep
        // shade: the string's energy should be dominated by the weak module.
        let roof = RoofBuilder::new(Meters::new(8.0), Meters::new(2.0))
            .obstacle(Obstacle::off_roof_block(
                Meters::new(4.4),
                Meters::new(0.0),
                Meters::new(0.4),
                Meters::new(2.0),
                Meters::new(4.0),
            ))
            .build();
        let data = dataset(&roof, 4);
        let cfg = config(2, 1);
        // Hand-build: module 0 bright at (0,0), module 1 shaded at (25, 0)
        // just east of the wall.
        use pv_geom::{CellCoord, Placement};
        let mut placement = Placement::new(data.dims(), cfg.footprint());
        placement
            .try_place(CellCoord::new(0, 0), data.valid())
            .unwrap();
        placement
            .try_place(CellCoord::new(25, 0), data.valid())
            .unwrap();
        let plan = FloorplanResult {
            placement,
            string_of: vec![0, 0],
            mean_anchor_score: 0.0,
        };
        let report = EnergyEvaluator::new(&cfg).evaluate(&data, &plan).unwrap();
        assert!(
            report.mismatch_fraction() > 0.02,
            "mismatch {}",
            report.mismatch_fraction()
        );
    }

    #[test]
    fn size_mismatch_rejected() {
        let roof = RoofBuilder::new(Meters::new(10.0), Meters::new(4.0)).build();
        let data = dataset(&roof, 1);
        let cfg2 = config(2, 1);
        let plan = greedy_placement(&data, &cfg2).unwrap();
        let cfg4 = config(2, 2);
        let err = EnergyEvaluator::new(&cfg4)
            .evaluate(&data, &plan)
            .unwrap_err();
        assert!(matches!(
            err,
            FloorplanError::PlacementSizeMismatch {
                expected: 4,
                actual: 2
            }
        ));
    }
}
