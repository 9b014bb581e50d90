//! Online updating of the delay prediction table.
//!
//! The paper's conclusion points out that the proposed approach "could be
//! effective in accounting for other static and dynamic timing variations,
//! for example due to process, temperature and voltage fluctuations, by
//! (online-)updating of the used delay prediction table". This module
//! implements that extension: an adaptive controller that starts from a
//! conservative table (or a pre-characterized LUT), observes the actual
//! dynamic delay of every cycle through an on-chip delay monitor — modelled
//! here by the [`TimingModel`] — and updates the per-class, per-stage entries
//! at run time:
//!
//! * entries are *tightened* toward the observed delays plus a safety margin
//!   (learning the LUT in the field instead of at characterization time);
//! * whenever the monitor reports a near-violation, the affected entry is
//!   *backed off*, which lets the table track slow drift (temperature,
//!   voltage droop, aging) that would invalidate a static characterization.

use crate::{ClockGenerator, DelayLut};
use idca_isa::TimingClass;
use idca_pipeline::{
    CycleObserver, CycleRecord, DigestCycle, IrqPhase, PipelineTrace, RunSummary, Stage,
    TimingDigest,
};
use idca_timing::{
    surged, CornerBank, CycleLanes, CycleTiming, FaultPlan, IrqCursor, IrqTimeline, Ps,
    TimingModel, LANE_WIDTH,
};
use serde::{Deserialize, Serialize};

/// Configuration of the online-adaptive clock controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Safety margin added on top of every observed delay when tightening an
    /// entry (fraction, e.g. `0.05` = 5 %).
    pub margin: f64,
    /// Fractional increase applied to an entry whose realized period turned
    /// out to be insufficient (the monitor flagged a violation).
    pub violation_backoff: f64,
    /// Number of observations of a `(stage, class)` pair required before its
    /// entry may drop below the static period.
    pub warmup_observations: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            margin: 0.05,
            violation_backoff: 0.10,
            warmup_observations: 4,
        }
    }
}

/// Result of one adaptive run over a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// Number of replayed cycles.
    pub cycles: u64,
    /// Average realized clock period in picoseconds.
    pub avg_period_ps: Ps,
    /// Effective clock frequency in MHz.
    pub effective_frequency_mhz: f64,
    /// Speedup over conventional clocking at the (drift-free) static period.
    pub speedup_over_static: f64,
    /// Cycles whose realized period undercut the actual dynamic delay.
    pub violations: u64,
    /// The subset of [`AdaptiveOutcome::violations`] that occurred during
    /// exception-entry cycles (when the entry delay surge is in effect).
    /// Zero for interrupt-free runs.
    #[serde(default)]
    pub entry_violations: u64,
    /// Violating cycles caught by the fault plan's detection window and
    /// repaired at the replay penalty. Zero without a fault plan.
    pub recovered_cycles: u64,
    /// Total replay cycles charged for the recovered violations.
    pub replay_penalty_cycles: u64,
    /// Violating cycles that escaped the detection window — silent
    /// data-corruption risk.
    pub silent_risk_cycles: u64,
    /// Effective clock frequency in MHz **after** charging the replay
    /// penalty time — bit-equal to
    /// [`AdaptiveOutcome::effective_frequency_mhz`] when nothing was
    /// recovered.
    pub recovery_frequency_mhz: f64,
    /// Cycles spent at the conservative static period while entries warmed up.
    pub warmup_cycles: u64,
}

/// Environmental drift applied on top of the nominal dynamic delays,
/// modelling temperature/voltage variation over the course of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Drift {
    /// No drift: delays are exactly the nominal model's.
    None,
    /// Delays grow linearly by `fraction_per_kilocycle` every 1000 cycles
    /// (e.g. self-heating slowing the core down).
    LinearSlowdown {
        /// Fractional delay increase per 1000 cycles.
        fraction_per_kilocycle: f64,
    },
}

impl Drift {
    fn factor(self, cycle: u64) -> f64 {
        match self {
            Drift::None => 1.0,
            Drift::LinearSlowdown {
                fraction_per_kilocycle,
            } => 1.0 + fraction_per_kilocycle * (cycle as f64 / 1000.0),
        }
    }
}

/// Streaming online-adaptive clock controller: a [`CycleObserver`] that
/// replays the adaptive prediction/observation/update loop on every cycle as
/// the pipeline simulator produces it. Created by [`AdaptiveObserver::new`];
/// [`run_adaptive`] drives the same accumulation from a materialized trace.
pub struct AdaptiveObserver<'a> {
    model: &'a TimingModel,
    config: AdaptiveConfig,
    generator: &'a ClockGenerator,
    drift: Drift,
    static_period: Ps,
    // `learned[idx]` is the running maximum of (observed delay × (1+margin))
    // for that (stage, class) pair; it is only *used* for prediction once the
    // pair has been observed at least `warmup_observations` times. A seed LUT
    // pre-populates the learned values (field-refinement of an existing
    // characterization instead of learning from scratch).
    learned: Vec<Ps>,
    observations: Vec<u64>,
    faults: Option<&'a FaultPlan>,
    irq: Option<IrqCursor<'a>>,
    surge_factor: f64,
    total_time: f64,
    penalty_time: f64,
    violations: u64,
    entry_violations: u64,
    recovered_cycles: u64,
    replay_penalty_cycles: u64,
    silent_risk_cycles: u64,
    warmup_cycles: u64,
    outcome: Option<AdaptiveOutcome>,
}

impl<'a> AdaptiveObserver<'a> {
    /// Creates the controller. Entries start at the static period (or at
    /// `seed_lut` when provided) so the very first occurrences of an
    /// instruction class are always safe.
    #[must_use]
    pub fn new(
        model: &'a TimingModel,
        config: &AdaptiveConfig,
        generator: &'a ClockGenerator,
        seed_lut: Option<&DelayLut>,
        drift: Drift,
    ) -> Self {
        let table_len = Stage::COUNT * TimingClass::COUNT;
        let learned: Vec<Ps> = match seed_lut {
            Some(lut) => {
                let mut t = vec![0.0; table_len];
                for stage in Stage::ALL {
                    for class in TimingClass::ALL {
                        t[stage.index() * TimingClass::COUNT + class.index()] =
                            lut.delay_ps(stage, class);
                    }
                }
                t
            }
            None => vec![0.0; table_len],
        };
        let observations = vec![
            if seed_lut.is_some() {
                config.warmup_observations
            } else {
                0
            };
            table_len
        ];
        AdaptiveObserver {
            model,
            config: *config,
            generator,
            drift,
            static_period: model.static_period_ps(),
            learned,
            observations,
            faults: None,
            irq: None,
            surge_factor: 1.0,
            total_time: 0.0,
            penalty_time: 0.0,
            violations: 0,
            entry_violations: 0,
            recovered_cycles: 0,
            replay_penalty_cycles: 0,
            silent_risk_cycles: 0,
            warmup_cycles: 0,
            outcome: None,
        }
    }

    /// Attaches a [`FaultPlan`]: the cycle-computing entry points
    /// ([`CycleObserver::observe_cycle`],
    /// [`AdaptiveObserver::observe_digest`]) perturb each cycle's timing
    /// through the plan — so the controller both *suffers* the transient
    /// and *learns from* the perturbed delays — and every violation is
    /// classified through the plan's recovery model.
    /// [`AdaptiveObserver::observe_digest_timed`] expects the caller to
    /// have applied [`FaultPlan::faulted`] already.
    #[must_use]
    pub fn with_faults(mut self, faults: &'a FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches the interrupt scenario, exactly as
    /// [`PolicyObserver::with_interrupts`](crate::PolicyObserver::with_interrupts):
    /// `surge_factor` (`1 + surge`) scales every stage delay during
    /// exception-entry cycles — so the controller both *suffers* the surge
    /// and *learns from* the surged delays — and violations on those cycles
    /// are additionally tallied as [`AdaptiveOutcome::entry_violations`].
    ///
    /// The **live** path reads each record's `irq_phase` directly — pass
    /// `None` for `timeline`. The **replay** paths rebuild phases from the
    /// digest event stream — pass the run's [`IrqTimeline`]. The
    /// cycle-computing entry points apply the surge themselves (faults
    /// first, then the surge); [`AdaptiveObserver::observe_digest_timed`]
    /// expects the caller to have applied it, like the fault factors.
    #[must_use]
    pub fn with_interrupts(mut self, timeline: Option<&'a IrqTimeline>, surge_factor: f64) -> Self {
        self.irq = timeline.map(IrqTimeline::cursor);
        self.surge_factor = surge_factor;
        self
    }

    fn entry_at(&mut self, cycle: u64) -> bool {
        self.irq
            .as_mut()
            .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry)
    }

    /// Consumes the controller and returns the outcome of the run.
    ///
    /// # Panics
    ///
    /// Panics if the simulation never called [`CycleObserver::finish`].
    #[must_use]
    pub fn into_outcome(self) -> AdaptiveOutcome {
        self.outcome
            .expect("simulation must complete (finish) before taking the outcome")
    }

    /// The current learned table entry of a `(stage, class)` pair, in
    /// picoseconds. Entries start at 0 (or at the seed LUT) and only ever
    /// grow: they are the running maximum of `observed × (1 + margin)`,
    /// plus any violation backoff. Exposed so tests can assert the
    /// convergence invariants of the online-updating outlook.
    #[must_use]
    pub fn learned_ps(&self, stage: Stage, class: TimingClass) -> Ps {
        self.learned[stage.index() * TimingClass::COUNT + class.index()]
    }

    /// How many times a `(stage, class)` pair has been observed so far.
    #[must_use]
    pub fn observation_count(&self, stage: Stage, class: TimingClass) -> u64 {
        self.observations[stage.index() * TimingClass::COUNT + class.index()]
    }

    /// The controller configuration.
    #[must_use]
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Replays the predict/observe/update loop on one *digested* cycle —
    /// the replay counterpart of [`CycleObserver::observe_cycle`],
    /// bit-identical to observing the originating [`CycleRecord`].
    pub fn observe_digest(&mut self, cycle: u64, digest_cycle: &DigestCycle) {
        let entry = self.entry_at(cycle);
        let timing = self.model.digest_cycle_timing(cycle, digest_cycle);
        let timing = match self.faults {
            Some(plan) => plan.faulted(cycle, &timing),
            None => timing,
        };
        let timing = if entry {
            surged(&timing, self.surge_factor)
        } else {
            timing
        };
        self.observe_parts(cycle, &digest_cycle.classes, &timing, entry);
    }

    /// [`AdaptiveObserver::observe_digest`] with the cycle's
    /// [`CycleTiming`] already evaluated (shared across the observers of
    /// one replay pass). Fault factors **and** the entry surge are the
    /// caller's responsibility; the cycle's interrupt phase still comes
    /// from the attached timeline cursor.
    pub fn observe_digest_timed(
        &mut self,
        cycle: u64,
        digest_cycle: &DigestCycle,
        timing: &CycleTiming,
    ) {
        let entry = self.entry_at(cycle);
        self.observe_parts(cycle, &digest_cycle.classes, timing, entry);
    }

    /// The predict/observe/update loop shared by the live and the replay
    /// paths, driven by the per-stage classes and the cycle's dynamic
    /// delays.
    fn observe_parts(
        &mut self,
        cycle: u64,
        classes: &[TimingClass; Stage::COUNT],
        timing: &CycleTiming,
        entry: bool,
    ) {
        // 1. Predict: the controller only sees the instruction classes; any
        //    entry that is still warming up keeps the whole cycle at the
        //    always-safe static period.
        let mut requested: Ps = 0.0;
        let mut warm = true;
        for stage in Stage::ALL {
            let idx = stage.index() * TimingClass::COUNT + classes[stage.index()].index();
            if self.observations[idx] < self.config.warmup_observations {
                warm = false;
            } else {
                requested = requested.max(self.learned[idx]);
            }
        }
        if !warm {
            requested = requested.max(self.static_period);
            self.warmup_cycles += 1;
        }
        let realized = self.generator.realize(requested);

        // 2. Observe: the delay monitor reports the actual per-stage delays
        //    of the cycle (with environmental drift applied).
        let drift_factor = self.drift.factor(cycle);
        let actual_max = timing.max_delay_ps * drift_factor;
        let violated = realized + 1e-9 < actual_max;
        if violated {
            self.violations += 1;
            self.entry_violations += u64::from(entry);
            if let Some(plan) = self.faults {
                let spec = plan.spec();
                if actual_max <= realized * (1.0 + spec.detect_window) {
                    self.recovered_cycles += 1;
                    self.replay_penalty_cycles += u64::from(spec.replay_penalty);
                    self.penalty_time += realized * f64::from(spec.replay_penalty);
                } else {
                    self.silent_risk_cycles += 1;
                }
            }
        }
        self.total_time += realized;

        // 3. Adapt the in-flight entries.
        for stage in Stage::ALL {
            let idx = stage.index() * TimingClass::COUNT + classes[stage.index()].index();
            let observed = timing.stage(stage) * drift_factor;
            self.observations[idx] += 1;
            let target = observed * (1.0 + self.config.margin);
            if target > self.learned[idx] {
                self.learned[idx] = target;
            }
            if violated && observed + 1e-9 > realized {
                // This stage's path was (one of) the violators: back off so
                // the next occurrence gets extra headroom against the drift.
                self.learned[idx] = (self.learned[idx] * (1.0 + self.config.violation_backoff))
                    .min(self.static_period * 2.0);
            }
        }
    }
}

impl CycleObserver for AdaptiveObserver<'_> {
    fn observe_cycle(&mut self, record: &CycleRecord) {
        let entry = record.irq_phase == IrqPhase::Entry;
        let mut classes = [TimingClass::Bubble; Stage::COUNT];
        for stage in Stage::ALL {
            classes[stage.index()] = record.timing_class(stage);
        }
        let timing = self.model.cycle_timing(record);
        let timing = match self.faults {
            Some(plan) => plan.faulted(record.cycle, &timing),
            None => timing,
        };
        let timing = if entry {
            surged(&timing, self.surge_factor)
        } else {
            timing
        };
        self.observe_parts(record.cycle, &classes, &timing, entry);
    }

    fn finish(&mut self, summary: &RunSummary) {
        let cycles = summary.cycles;
        let avg_period_ps = if cycles == 0 {
            0.0
        } else {
            self.total_time / cycles as f64
        };
        let effective_frequency_mhz = if avg_period_ps > 0.0 {
            1.0e6 / avg_period_ps
        } else {
            0.0
        };
        let recovery_period_ps = if cycles == 0 {
            0.0
        } else {
            (self.total_time + self.penalty_time) / cycles as f64
        };
        self.outcome = Some(AdaptiveOutcome {
            cycles,
            avg_period_ps,
            effective_frequency_mhz,
            speedup_over_static: if avg_period_ps > 0.0 {
                self.static_period / avg_period_ps
            } else {
                1.0
            },
            violations: self.violations,
            entry_violations: self.entry_violations,
            recovered_cycles: self.recovered_cycles,
            replay_penalty_cycles: self.replay_penalty_cycles,
            silent_risk_cycles: self.silent_risk_cycles,
            recovery_frequency_mhz: if recovery_period_ps > 0.0 {
                1.0e6 / recovery_period_ps
            } else {
                0.0
            },
            warmup_cycles: self.warmup_cycles,
        });
    }
}

/// Start of the lane vector of one `(stage, class)` learned-table entry in
/// the [`AdaptiveBank`]'s structure-of-arrays tables.
fn table_offset(padded: usize, stage: Stage, class: TimingClass) -> usize {
    entry_index(stage, class) * padded
}

/// Index of one `(stage, class)` entry in the [`AdaptiveBank`]'s per-entry
/// scalar tables (observation counts, proof caches, deferred learns).
fn entry_index(stage: Stage, class: TimingClass) -> usize {
    stage.index() * TimingClass::COUNT + class.index()
}

/// The corner-batched online-adaptive controller: the learned delay tables,
/// observation counters and run accumulators of `M` independent
/// [`AdaptiveObserver`]s packed in structure-of-arrays layout, mirroring
/// [`CornerBank`] on the timing side.
///
/// In a corner-batched digest replay the adaptive controller used to be the
/// only remaining per-corner scalar state: every corner's observer re-walked
/// its own `learned`/`observations` tables per cycle. The bank instead keys
/// each `(stage, class)` entry once per cycle (the classes come from the
/// corner-invariant digest) and folds all `M` lanes of that entry
/// contiguously — predict, realize, observe, adapt — in lane-friendly loops
/// padded to [`LANE_WIDTH`].
///
/// Every lane performs **exactly** the scalar arithmetic of
/// [`AdaptiveObserver`] in the same order, so outcome `i` is bit-identical
/// to running `AdaptiveObserver` against `models[i]` alone — pinned by the
/// unit tests here and the workspace banked-replay property tests.
pub struct AdaptiveBank<'a> {
    config: AdaptiveConfig,
    generator: &'a ClockGenerator,
    drift: Drift,
    corners: usize,
    padded: usize,
    /// Per-corner static periods (the always-safe fallback request).
    static_period: Vec<Ps>,
    /// Learned-table lanes, `(stage, class)`-major: entry
    /// `(stage.index() * TimingClass::COUNT + class.index()) * padded + lane`
    /// is corner `lane`'s running maximum of `observed × (1 + margin)` —
    /// once the entry's deferred learn (`pending`) is settled.
    learned: Vec<Ps>,
    /// Observation counters, one per `(stage, class)` entry (index
    /// `stage.index() * TimingClass::COUNT + class.index()`). Every observe
    /// pass bumps a keyed entry on all lanes together and construction,
    /// reset and seeding are lane-uniform too, so one count serves every
    /// corner — and with it, warmth is a per-entry fact.
    observations: Vec<u64>,
    /// Bound-proof cache, one scalar per `(stage, class)` entry (same
    /// index as `observations`): the largest blended excitation `x` for
    /// which `learned ≥ delays_from_excitation(x) × (1 + margin)` holds on
    /// every lane (`-inf` = nothing verified), so a learn at or below it is
    /// a no-op. Learned values only grow between violations, so a verified
    /// excitation stays covered until a violation (whose capped backoff may
    /// shrink an entry) or a reset clears the cache.
    covered: Vec<f64>,
    /// Deferred learns, one scalar per entry: the largest blended
    /// excitation a proven cycle observed on the entry since its lanes were
    /// last settled (`-inf` = none). On a violation-free cycle the learn
    /// `learned = max(learned, delay(x) × (1 + margin))` is monotone in `x`
    /// (see [`AdaptiveBank::proof_ready`]), so any run of them equals one
    /// fold at their largest `x` — applied by
    /// [`AdaptiveBank::settle`] before the entry's lanes are next read.
    pending: Vec<f64>,
    /// Static-fit cache, one scalar per entry: the largest excitation whose
    /// delay lanes have been verified to fit every corner's static period
    /// (the bank's own compare, `static + 1e-9 ≥ delay`), so a cold cycle
    /// padded to the static period cannot violate on that stage. Depends on
    /// the static periods and the corner bank only, so only a reset clears
    /// it.
    fits_static: Vec<f64>,
    /// Scratch lanes (`padded` long) for one delay-bound evaluation.
    bound: Vec<Ps>,
    faults: Option<FaultPlan>,
    total_time: Vec<f64>,
    penalty_time: Vec<f64>,
    violations: Vec<u64>,
    entry_violations: Vec<u64>,
    recovered_cycles: Vec<u64>,
    replay_penalty_cycles: Vec<u64>,
    silent_risk_cycles: Vec<u64>,
    /// Cycles at the static period while entries warmed up. Warmth is a
    /// per-entry fact, so this count is the same on every lane.
    warmup_cycles: u64,
    /// Proven cycles that deferred at least one learn (see
    /// [`AdaptiveBank::deferred_learn_cycles`]).
    deferred_cycles: u64,
    /// Per-cycle predicted request lanes (`padded` long), reused across the
    /// whole walk.
    requested: Vec<Ps>,
    // Exact-kernel scratch (`padded` long): the realized period of violated
    // lanes, `+inf` otherwise, so the adapt pass's backoff test is one
    // `f64` compare. Padding lanes stay `+inf` forever.
    violation_limit: Vec<Ps>,
    // Exact-kernel constant (`padded` long): `2 x static_period` per
    // corner, the adapt pass's backoff cap (padding lanes 0).
    backoff_cap: Vec<Ps>,
    outcomes: Option<Vec<AdaptiveOutcome>>,
}

impl<'a> AdaptiveBank<'a> {
    /// Creates one adaptive controller per model, exactly as
    /// [`AdaptiveObserver::new`] would: entries start at 0 (or at
    /// `seed_lut`, with the warmup already satisfied) so the very first
    /// occurrences of an instruction class are always safe.
    #[must_use]
    pub fn new(
        models: &[TimingModel],
        config: &AdaptiveConfig,
        generator: &'a ClockGenerator,
        seed_lut: Option<&DelayLut>,
        drift: Drift,
    ) -> Self {
        Self::from_static_periods(
            models.iter().map(TimingModel::static_period_ps).collect(),
            config,
            generator,
            seed_lut,
            drift,
        )
    }

    /// [`AdaptiveBank::new`] from the corners' static periods alone — the
    /// only model parameter the controllers consume (the dynamic delays
    /// arrive pre-evaluated as [`CycleLanes`] through
    /// [`AdaptiveBank::observe_cycle_lanes`]), so callers that already
    /// hold the periods (e.g. via [`CornerBank::static_period_ps`]) need
    /// not materialize a model slice.
    #[must_use]
    pub fn from_static_periods(
        static_periods: Vec<Ps>,
        config: &AdaptiveConfig,
        generator: &'a ClockGenerator,
        seed_lut: Option<&DelayLut>,
        drift: Drift,
    ) -> Self {
        let corners = static_periods.len();
        let padded = corners.next_multiple_of(LANE_WIDTH);
        let table_len = Stage::COUNT * TimingClass::COUNT;
        // Padded copy of the backoff cap (`2 x` each corner's static
        // period, exactly the scalar expression hoisted out of the adapt
        // loop); padding lanes cap at 0 and are never read back.
        let mut backoff_cap = vec![0.0; padded];
        for (cap, period) in backoff_cap.iter_mut().zip(&static_periods) {
            *cap = *period * 2.0;
        }
        let mut bank = AdaptiveBank {
            config: *config,
            generator,
            drift,
            corners,
            padded,
            static_period: static_periods,
            learned: vec![0.0; table_len * padded],
            observations: vec![0; table_len],
            covered: vec![f64::NEG_INFINITY; table_len],
            pending: vec![f64::NEG_INFINITY; table_len],
            fits_static: vec![f64::NEG_INFINITY; table_len],
            bound: vec![0.0; padded],
            faults: None,
            total_time: vec![0.0; corners],
            penalty_time: vec![0.0; corners],
            violations: vec![0; corners],
            entry_violations: vec![0; corners],
            recovered_cycles: vec![0; corners],
            replay_penalty_cycles: vec![0; corners],
            silent_risk_cycles: vec![0; corners],
            warmup_cycles: 0,
            deferred_cycles: 0,
            requested: vec![0.0; padded],
            violation_limit: vec![Ps::INFINITY; padded],
            backoff_cap,
            outcomes: None,
        };
        bank.seed_tables(seed_lut);
        bank
    }

    /// Attaches a [`FaultPlan`] for the recovery accounting. The
    /// [`CycleLanes`] handed to [`AdaptiveBank::observe_cycle_lanes`]
    /// must already carry the plan's perturbation
    /// ([`CycleLanes::apply_fault_factors`]) — the bank itself only
    /// classifies violations as recovered or silent risk, lane by lane,
    /// exactly like the scalar observer.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Replaces the fault plan (or clears it) without reallocating lanes —
    /// the worker-scratch path reuses one bank across sweep jobs.
    pub fn set_faults(&mut self, faults: Option<FaultPlan>) {
        self.faults = faults;
    }

    /// Clears the learned tables and run accumulators so the bank can
    /// replay another digest without reallocating its lane storage —
    /// equivalent to rebuilding it via [`AdaptiveBank::from_static_periods`]
    /// with the same periods, config, generator and drift.
    pub fn reset(&mut self, seed_lut: Option<&DelayLut>) {
        self.learned.fill(0.0);
        self.observations.fill(0);
        self.covered.fill(f64::NEG_INFINITY);
        self.pending.fill(f64::NEG_INFINITY);
        self.fits_static.fill(f64::NEG_INFINITY);
        self.seed_tables(seed_lut);
        self.total_time.fill(0.0);
        self.penalty_time.fill(0.0);
        self.violations.fill(0);
        self.entry_violations.fill(0);
        self.recovered_cycles.fill(0);
        self.replay_penalty_cycles.fill(0);
        self.silent_risk_cycles.fill(0);
        self.warmup_cycles = 0;
        self.deferred_cycles = 0;
        self.outcomes = None;
    }

    /// Pre-populates every entry from `seed_lut` with the warmup already
    /// satisfied (field refinement of an existing characterization).
    fn seed_tables(&mut self, seed_lut: Option<&DelayLut>) {
        let Some(lut) = seed_lut else { return };
        for stage in Stage::ALL {
            for class in TimingClass::ALL {
                let at = table_offset(self.padded, stage, class);
                self.learned[at..at + self.corners].fill(lut.delay_ps(stage, class));
            }
        }
        self.observations.fill(self.config.warmup_observations);
    }

    /// Number of corners in the bank (excluding padding lanes).
    #[must_use]
    pub fn corners(&self) -> usize {
        self.corners
    }

    /// `true` when the bank holds no corner.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.corners == 0
    }

    /// One corner's current learned table entry, in picoseconds — the
    /// banked counterpart of [`AdaptiveObserver::learned_ps`]. The entry's
    /// deferred learn, if any, is settled first (which is why the read
    /// takes the [`CornerBank`] the replay evaluates its delays with), so
    /// the value is the one the per-cycle learn would hold.
    ///
    /// # Panics
    ///
    /// Panics if `corner >= self.corners()` (padding lanes are not
    /// corners).
    #[must_use]
    pub fn learned_ps(
        &mut self,
        bank: &CornerBank,
        corner: usize,
        stage: Stage,
        class: TimingClass,
    ) -> Ps {
        self.assert_corner(corner);
        self.settle_entry(bank, stage, class);
        self.learned[table_offset(self.padded, stage, class) + corner]
    }

    /// How many times one corner has observed a `(stage, class)` pair —
    /// the banked counterpart of [`AdaptiveObserver::observation_count`].
    /// Every corner observes every cycle, so the count is the same for all
    /// of them.
    ///
    /// # Panics
    ///
    /// Panics if `corner >= self.corners()`.
    #[must_use]
    pub fn observation_count(&self, corner: usize, stage: Stage, class: TimingClass) -> u64 {
        self.assert_corner(corner);
        self.observations[entry_index(stage, class)]
    }

    /// Cycles since the last reset that [`AdaptiveBank::observe_proven`]
    /// proved while deferring at least one learn (a cold entry, or a warm
    /// one the cycle's excitation outgrew) — the proven cycles the
    /// dither-worst cover alone could not settle.
    #[must_use]
    pub fn deferred_learn_cycles(&self) -> u64 {
        self.deferred_cycles
    }

    fn assert_corner(&self, corner: usize) {
        assert!(
            corner < self.corners,
            "corner {corner} is out of range for an adaptive bank of {} corners",
            self.corners
        );
    }

    /// [`AdaptiveBank::observe_cycle_lanes_phased`] outside an interrupt
    /// entry.
    ///
    /// # Panics
    ///
    /// See [`AdaptiveBank::observe_cycle_lanes_phased`].
    pub fn observe_cycle_lanes(&mut self, cycle: u64, dc: &DigestCycle, lanes: &CycleLanes) {
        self.observe_cycle_lanes_phased(cycle, dc, lanes, false);
    }

    /// Replays the predict/observe/update loop of **all** corners on one
    /// digested cycle straight off a [`idca_timing::BankEvaluator`]'s
    /// structure-of-arrays [`CycleLanes`] — the exact kernel of the
    /// corner-batched sweep. No per-corner [`CycleTiming`] structs are
    /// materialized: the observe pass folds the contiguous max-delay lanes
    /// and the adapt pass folds each keyed `(stage, class)` entry against
    /// the matching contiguous stage lanes. Bit-identical, lane by lane, to
    /// the scalar observer (the hoisted `(1 + margin)`-style factors are
    /// computed exactly as the scalar expressions, just once per cycle
    /// instead of once per lane).
    ///
    /// The bank lives in `'static` worker scratch, so it cannot hold a
    /// borrowed timeline cursor: the caller supplies the cycle's
    /// interrupt-entry classification as `entry`, and must already have
    /// applied the fault factors and the entry surge to `lanes`.
    ///
    /// # Panics
    ///
    /// Panics if the lanes' padded width differs from the bank's, or if a
    /// keyed entry still holds a deferred learn — after
    /// [`AdaptiveBank::observe_proven`], call [`AdaptiveBank::settle`]
    /// before this kernel.
    // `inline(never)` is load-bearing: letting this body inline into the
    // sweep's replay loop (alongside the evaluator and the three policy
    // banks) doubles the replay time at 100×8 — the merged loop spills
    // registers across every pass. Keeping it a call leaves each kernel
    // small enough to vectorize cleanly.
    #[inline(never)]
    pub fn observe_cycle_lanes_phased(
        &mut self,
        cycle: u64,
        dc: &DigestCycle,
        lanes: &CycleLanes,
        entry: bool,
    ) {
        let padded = self.padded;
        assert_eq!(lanes.padded_lanes(), padded, "lane widths must match");
        assert!(
            self.is_settled(&dc.classes),
            "a keyed entry holds a deferred learn: settle the cycle first"
        );
        let corners = self.corners;
        if corners == 0 {
            return;
        }
        let generator = self.generator;

        // 1. Predict: the controllers only see the (corner-invariant)
        //    instruction classes; any entry still warming up keeps the whole
        //    cycle at the always-safe static period. The observation counts
        //    are per-entry scalars, so the fold touches only `f64` lanes and
        //    the warm flag collapses to one bool per cycle.
        let all_warm = self.predict_warm_lanes(&dc.classes);

        // 2. Realize and observe: the same arithmetic (and order of
        //    operations) as the scalar observer, over length-bound slices
        //    so the per-lane indexing stays check-free.
        let drift_factor = self.drift.factor(cycle);
        let recovery = self.faults.as_ref().map(|plan| {
            let spec = plan.spec();
            (
                1.0 + spec.detect_window,
                u64::from(spec.replay_penalty),
                f64::from(spec.replay_penalty),
            )
        });
        let actual_lanes = &lanes.max_lanes()[..corners];
        let requested = &self.requested[..corners];
        let static_period = &self.static_period[..corners];
        let violations = &mut self.violations[..corners];
        let entry_violations = &mut self.entry_violations[..corners];
        let recovered = &mut self.recovered_cycles[..corners];
        let replayed = &mut self.replay_penalty_cycles[..corners];
        let silent = &mut self.silent_risk_cycles[..corners];
        let penalty_time = &mut self.penalty_time[..corners];
        let total_time = &mut self.total_time[..corners];
        let violation_limit = &mut self.violation_limit[..corners];
        // Warmth is lane-uniform (see the predict pass), so the cold-lane
        // padding is one loop-invariant branch the compiler unswitches.
        let cold = !all_warm;
        self.warmup_cycles += u64::from(cold);
        let mut any_violated = false;
        for lane in 0..corners {
            let padded_up = requested[lane].max(static_period[lane]);
            let request = if cold { padded_up } else { requested[lane] };
            let realized = generator.realize(request);
            let actual_max = actual_lanes[lane] * drift_factor;
            let violated = realized + 1e-9 < actual_max;
            any_violated |= violated;
            violations[lane] += u64::from(violated);
            entry_violations[lane] += u64::from(violated && entry);
            if let Some((detect_factor, penalty_cycles, penalty)) = recovery {
                let detected = violated && actual_max <= realized * detect_factor;
                recovered[lane] += u64::from(detected);
                replayed[lane] += u64::from(detected) * penalty_cycles;
                silent[lane] += u64::from(violated && !detected);
                // `x + 0.0 == x` bit-exactly for the non-negative
                // accumulator, so the select matches the scalar observer's
                // guarded add while keeping the loop branch-free.
                penalty_time[lane] += if detected { realized * penalty } else { 0.0 };
            }
            total_time[lane] += realized;
            // The adapt pass only asks "was this lane violated, and is the
            // observed delay above its realized period" — encoding the
            // non-violated case as `+inf` turns that into a single compare.
            violation_limit[lane] = if violated { realized } else { Ps::INFINITY };
        }
        if any_violated {
            // A violation may back an entry off, and the cap can shrink it:
            // no cached cover (which also lets a settle skip its fold) can
            // be trusted any more.
            self.covered.fill(f64::NEG_INFINITY);
        }

        // 3. Adapt the in-flight entries, lane-contiguously per keyed
        //    `(stage, class)` entry against that stage's contiguous delay
        //    lanes.
        let margin_factor = 1.0 + self.config.margin;
        let backoff_factor = 1.0 + self.config.violation_backoff;
        for stage in Stage::ALL {
            let class = dc.classes[stage.index()];
            let at = table_offset(padded, stage, class);
            self.observations[entry_index(stage, class)] += 1;
            // The learn fold runs over the full padded width in fixed-trip
            // chunks (compile-time trip count, packed compare-and-blend).
            // Padding lanes carry a 0 delay, a 0 cap and a `+inf` violation
            // limit; their learned entries are never read back.
            let learned = &mut self.learned[at..at + padded];
            let observed_lanes = &lanes.stage_lanes(stage)[..padded];
            let violation_limit = &self.violation_limit[..padded];
            let backoff_cap = &self.backoff_cap[..padded];
            let chunks = learned
                .chunks_exact_mut(LANE_WIDTH)
                .zip(observed_lanes.chunks_exact(LANE_WIDTH))
                .zip(violation_limit.chunks_exact(LANE_WIDTH))
                .zip(backoff_cap.chunks_exact(LANE_WIDTH));
            for (((learned4, observed4), limit4), cap4) in chunks {
                for l in 0..LANE_WIDTH {
                    let observed = observed4[l] * drift_factor;
                    let target = observed * margin_factor;
                    let grown = if target > learned4[l] {
                        target
                    } else {
                        learned4[l]
                    };
                    // This lane's stage was (one of) the violators: back off
                    // so the next occurrence gets headroom against drift.
                    // Select form of the scalar conditional update — the
                    // `f64::min` cap as a compare-and-select over finite
                    // non-negative periods picks bit-identical values.
                    let boosted = grown * backoff_factor;
                    let backed = if boosted < cap4[l] { boosted } else { cap4[l] };
                    let backoff = observed + 1e-9 > limit4[l];
                    learned4[l] = if backoff { backed } else { grown };
                }
            }
        }
    }

    /// The predict pass shared by the exact kernel and the proven path:
    /// folds the warm keyed entries' learned lanes into `requested` (from
    /// 0) and returns whether all six keyed entries are warm. The warm
    /// entries must be settled.
    #[inline]
    fn predict_warm_lanes(&mut self, classes: &[TimingClass; Stage::COUNT]) -> bool {
        let padded = self.padded;
        self.requested.fill(0.0);
        let mut all_warm = true;
        for stage in Stage::ALL {
            let class = classes[stage.index()];
            if self.observations[entry_index(stage, class)] >= self.config.warmup_observations {
                let at = table_offset(padded, stage, class);
                let learned = &self.learned[at..at + padded];
                let requested = &mut self.requested[..padded];
                // Comparison-select form of the scalar `f64::max` fold:
                // learned periods are finite and non-negative (never NaN
                // or -0.0), so the picked value is bit-identical — and the
                // fixed-trip inner loop gives the vectorizer a compile-time
                // width (a runtime trip of `padded` = 8 lanes stays scalar).
                let chunks = requested
                    .chunks_exact_mut(LANE_WIDTH)
                    .zip(learned.chunks_exact(LANE_WIDTH));
                for (req4, learned4) in chunks {
                    for l in 0..LANE_WIDTH {
                        let learned = learned4[l];
                        req4[l] = if learned > req4[l] { learned } else { req4[l] };
                    }
                }
            } else {
                all_warm = false;
            }
        }
        all_warm
    }

    /// Whether the proven path ([`AdaptiveBank::observe_proven`]) may
    /// settle any cycle of a replay whose delays come from `bank`. Every
    /// precondition of the proof is checked here:
    ///
    /// * no drift — a drift factor would scale the observed delays past a
    ///   bound computed without it, and a deferred learn could not
    ///   reproduce the per-cycle factor;
    /// * the ideal clock generator — a quantizing generator may realize a
    ///   period below the request;
    /// * a non-negative margin — `learned ≥ bound × (1 + margin)` must
    ///   imply `learned ≥ bound`, and `× (1 + margin)` must keep the order
    ///   of two delays so that deferred learns fold to their largest;
    /// * a bank of the same corner count whose delay fold is monotone
    ///   ([`CornerBank::bound_is_monotone`]), so a larger excitation never
    ///   gives a smaller delay on any lane.
    ///
    /// A fault plan does not void the proof: a proven cycle violates on no
    /// lane, so the plan's recovery accounting has nothing to classify. The
    /// caller must instead keep every cycle whose lanes are perturbed after
    /// evaluation — fault factors other than exactly `1.0`, the
    /// interrupt-entry surge — on the exact path.
    #[must_use]
    pub fn proof_ready(&self, bank: &CornerBank) -> bool {
        self.drift == Drift::None
            && matches!(self.generator, ClockGenerator::Ideal)
            && self.config.margin >= 0.0
            && bank.corners() == self.corners
            && bank.bound_is_monotone()
    }

    /// Tries to replay one digested cycle on the **proven** path, from the
    /// cycle's blended excitations alone (no delay lanes). The cycle is
    /// proven violation-free on every corner when each keyed entry is
    /// either
    ///
    /// * warm and *covered* (`learned ≥ delay(x) × (1 + margin)` on every
    ///   lane, with `delay` the [`CornerBank::delays_from_excitation`]
    ///   lanes at its actual excitation `x`) — its learn is a no-op;
    /// * on a cold cycle (some keyed entry still warming up, so every lane
    ///   requests at least its static period), of a delay that fits every
    ///   corner's static period — its learn is deferred;
    /// * otherwise of a delay that fits the cycle's predicted request on
    ///   every lane, under the bank's own compare — its learn is deferred.
    ///
    /// Then only the cycle's visible effects are folded now — the predicted
    /// (or static-padded) period into each lane's realized-time sum, in
    /// cycle order so the sums stay bit-identical to the exact kernel, the
    /// warmup count and the six counter bumps — and each deferred learn
    /// raises its entry's pending excitation; the method returns `true`.
    /// Otherwise it leaves every accumulator, counter and pending learn
    /// untouched (it may only have settled warm entries and extended the
    /// proof caches) and returns `false`: the caller must
    /// [`AdaptiveBank::settle`] the cycle, evaluate its lanes and run
    /// [`AdaptiveBank::observe_cycle_lanes_phased`].
    ///
    /// `excitations` must be [`idca_timing::stage_excitations`] of the
    /// cycle, and the cycle must be unperturbed (no fault factor other than
    /// `1.0`, no entry surge): the proof covers the lanes as `bank`
    /// evaluates them. Always `false` unless [`AdaptiveBank::proof_ready`]
    /// holds for `bank`.
    pub fn observe_proven(
        &mut self,
        classes: &[TimingClass; Stage::COUNT],
        excitations: &[f64; Stage::COUNT],
        bank: &CornerBank,
    ) -> bool {
        if self.corners == 0 || !self.proof_ready(bank) {
            return false;
        }
        let warmup = self.config.warmup_observations;
        // Stages whose entry may still learn from this cycle.
        let mut learns = [false; Stage::COUNT];
        for stage in Stage::ALL {
            let (class, excitation) = (classes[stage.index()], excitations[stage.index()]);
            if self.observations[entry_index(stage, class)] >= warmup {
                // The predict pass reads the warm entries' lanes.
                self.settle_entry(bank, stage, class);
                learns[stage.index()] = !self.covers(bank, stage, class, excitation);
            } else {
                learns[stage.index()] = true;
            }
        }
        let cold = !self.predict_warm_lanes(classes);
        let corners = self.corners;
        if cold {
            // The exact kernel's static padding, in the same expression.
            for (requested, &period) in self.requested[..corners]
                .iter_mut()
                .zip(&self.static_period[..corners])
            {
                *requested = requested.max(period);
            }
        }
        for stage in Stage::ALL {
            let (class, excitation) = (classes[stage.index()], excitations[stage.index()]);
            if learns[stage.index()]
                && !(cold && self.fits_static(bank, stage, class, excitation))
                && !self.fits_request(bank, stage, class, excitation)
            {
                return false;
            }
        }

        // The ideal generator realizes every request exactly, so the
        // exact kernel's `total_time += realize(request)` is this add.
        for (total, &requested) in self.total_time[..corners]
            .iter_mut()
            .zip(&self.requested[..corners])
        {
            *total += requested;
        }
        self.warmup_cycles += u64::from(cold);
        for stage in Stage::ALL {
            let index = entry_index(stage, classes[stage.index()]);
            self.observations[index] += 1;
            if learns[stage.index()] {
                let pending = &mut self.pending[index];
                *pending = pending.max(excitations[stage.index()]);
            }
        }
        self.deferred_cycles += u64::from(learns.contains(&true));
        true
    }

    /// Applies the deferred learns of one cycle's six keyed entries, so the
    /// exact kernel ([`AdaptiveBank::observe_cycle_lanes_phased`]) may read
    /// and adapt them. `bank` must be the [`CornerBank`] the proven cycles
    /// were offered with. A no-op when nothing is pending.
    pub fn settle(&mut self, classes: &[TimingClass; Stage::COUNT], bank: &CornerBank) {
        for stage in Stage::ALL {
            self.settle_entry(bank, stage, classes[stage.index()]);
        }
    }

    /// Whether none of the six keyed entries holds a deferred learn.
    fn is_settled(&self, classes: &[TimingClass; Stage::COUNT]) -> bool {
        Stage::ALL.iter().all(|&stage| {
            self.pending[entry_index(stage, classes[stage.index()])] == f64::NEG_INFINITY
        })
    }

    /// Folds one entry's pending learn into its lanes — one
    /// [`CornerBank::delays_from_excitation`] pass, unless the entry already
    /// covers the pending excitation (then the fold is a no-op).
    fn settle_entry(&mut self, bank: &CornerBank, stage: Stage, class: TimingClass) {
        let index = entry_index(stage, class);
        let pending = std::mem::replace(&mut self.pending[index], f64::NEG_INFINITY);
        if pending <= self.covered[index] {
            return;
        }
        bank.delays_from_excitation(stage, class, pending, &mut self.bound);
        let at = table_offset(self.padded, stage, class);
        // The exact kernel's learn with a drift factor of 1.0 (`x × 1.0`
        // is `x` bit for bit): `delays_from_excitation` evaluates the same
        // delay expression as the evaluator's lanes.
        let margin_factor = 1.0 + self.config.margin;
        for (learned, &delay) in self.learned[at..at + self.corners]
            .iter_mut()
            .zip(&self.bound[..self.corners])
        {
            let target = delay * margin_factor;
            if target > *learned {
                *learned = target;
            }
        }
        // Every lane now holds at least `delay(pending) × (1 + margin)`.
        self.covered[index] = pending;
    }

    /// Whether the `(stage, class)` entry covers `excitation` on every
    /// lane, extending the proof cache when a fresh check succeeds.
    fn covers(
        &mut self,
        bank: &CornerBank,
        stage: Stage,
        class: TimingClass,
        excitation: f64,
    ) -> bool {
        let index = entry_index(stage, class);
        if excitation <= self.covered[index] {
            return true;
        }
        bank.delays_from_excitation(stage, class, excitation, &mut self.bound);
        let at = table_offset(self.padded, stage, class);
        let margin_factor = 1.0 + self.config.margin;
        let covered = self.learned[at..at + self.corners]
            .iter()
            .zip(&self.bound[..self.corners])
            .fold(true, |all, (&learned, &bound)| {
                all & (learned >= bound * margin_factor)
            });
        if covered {
            self.covered[index] = excitation;
        }
        covered
    }

    /// Whether the `(stage, class)` delay at `excitation` fits every
    /// corner's static period under the bank's own compare, extending the
    /// static-fit cache when a fresh check succeeds.
    fn fits_static(
        &mut self,
        bank: &CornerBank,
        stage: Stage,
        class: TimingClass,
        excitation: f64,
    ) -> bool {
        let index = entry_index(stage, class);
        if excitation <= self.fits_static[index] {
            return true;
        }
        bank.delays_from_excitation(stage, class, excitation, &mut self.bound);
        let fits = self.static_period[..self.corners]
            .iter()
            .zip(&self.bound[..self.corners])
            .fold(true, |all, (&period, &delay)| {
                all & (delay <= period + 1e-9)
            });
        if fits {
            self.fits_static[index] = excitation;
        }
        fits
    }

    /// Whether the `(stage, class)` delay at `excitation` fits the cycle's
    /// predicted request (`requested`, already padded on a cold cycle) on
    /// every lane under the bank's own compare.
    fn fits_request(
        &mut self,
        bank: &CornerBank,
        stage: Stage,
        class: TimingClass,
        excitation: f64,
    ) -> bool {
        bank.delays_from_excitation(stage, class, excitation, &mut self.bound);
        self.requested[..self.corners]
            .iter()
            .zip(&self.bound[..self.corners])
            .fold(true, |all, (&requested, &delay)| {
                all & (delay <= requested + 1e-9)
            })
    }

    /// Finalizes every corner's outcome from the run totals — the banked
    /// counterpart of [`CycleObserver::finish`] on each scalar observer.
    /// Pending learns change no outcome, so none need settling first.
    pub fn finish(&mut self, summary: &RunSummary) {
        let cycles = summary.cycles;
        let outcomes = (0..self.corners)
            .map(|lane| {
                let avg_period_ps = if cycles == 0 {
                    0.0
                } else {
                    self.total_time[lane] / cycles as f64
                };
                let effective_frequency_mhz = if avg_period_ps > 0.0 {
                    1.0e6 / avg_period_ps
                } else {
                    0.0
                };
                let recovery_period_ps = if cycles == 0 {
                    0.0
                } else {
                    (self.total_time[lane] + self.penalty_time[lane]) / cycles as f64
                };
                AdaptiveOutcome {
                    cycles,
                    avg_period_ps,
                    effective_frequency_mhz,
                    speedup_over_static: if avg_period_ps > 0.0 {
                        self.static_period[lane] / avg_period_ps
                    } else {
                        1.0
                    },
                    violations: self.violations[lane],
                    entry_violations: self.entry_violations[lane],
                    recovered_cycles: self.recovered_cycles[lane],
                    replay_penalty_cycles: self.replay_penalty_cycles[lane],
                    silent_risk_cycles: self.silent_risk_cycles[lane],
                    recovery_frequency_mhz: if recovery_period_ps > 0.0 {
                        1.0e6 / recovery_period_ps
                    } else {
                        0.0
                    },
                    warmup_cycles: self.warmup_cycles,
                }
            })
            .collect();
        self.outcomes = Some(outcomes);
    }

    /// Consumes the bank and returns one outcome per corner (index =
    /// corner).
    ///
    /// # Panics
    ///
    /// Panics if the replay never called [`AdaptiveBank::finish`].
    #[must_use]
    pub fn into_outcomes(self) -> Vec<AdaptiveOutcome> {
        self.outcomes
            .expect("the replay must complete (finish) before taking the outcomes")
    }

    /// [`AdaptiveBank::into_outcomes`] without consuming the bank — the
    /// worker-scratch path takes the outcomes and keeps the lane storage
    /// (after [`AdaptiveBank::reset`]) for the next job.
    ///
    /// # Panics
    ///
    /// Panics if the replay never called [`AdaptiveBank::finish`].
    #[must_use]
    pub fn take_outcomes(&mut self) -> Vec<AdaptiveOutcome> {
        self.outcomes
            .take()
            .expect("the replay must complete (finish) before taking the outcomes")
    }
}

/// Replays `trace` under an online-adaptive delay table.
///
/// Every cycle the controller requests the maximum table entry of the
/// classes in flight (exactly like the instruction-based policy), realizes
/// it through `generator`, and then uses the observed actual delay of the
/// cycle (scaled by `drift`) to update the table: tighten unexcited entries
/// toward `observed × (1 + margin)`, back off entries that proved too
/// optimistic. Drives the same accumulation as [`AdaptiveObserver`], so a
/// materialized trace and a streaming run produce identical outcomes.
#[must_use]
pub fn run_adaptive(
    model: &TimingModel,
    trace: &PipelineTrace,
    config: &AdaptiveConfig,
    generator: &ClockGenerator,
    seed_lut: Option<&DelayLut>,
    drift: Drift,
) -> AdaptiveOutcome {
    let mut observer = AdaptiveObserver::new(model, config, generator, seed_lut, drift);
    for record in trace.cycles() {
        observer.observe_cycle(record);
    }
    observer.finish(&RunSummary {
        cycles: trace.cycle_count(),
        retired: trace.retired(),
    });
    observer.into_outcome()
}

/// Replays a [`TimingDigest`] under the online-adaptive delay table — the
/// simulate-once / evaluate-many counterpart of [`run_adaptive`]: one
/// digested simulation can train and evaluate the controller against any
/// number of (e.g. PVT-varied) timing models without re-simulating. Drives
/// the same accumulation as [`AdaptiveObserver`] on the live pass, so the
/// outcome and the learned table are bit-identical.
#[must_use]
pub fn replay_adaptive_digest(
    model: &TimingModel,
    digest: &TimingDigest,
    config: &AdaptiveConfig,
    generator: &ClockGenerator,
    seed_lut: Option<&DelayLut>,
    drift: Drift,
) -> AdaptiveOutcome {
    let mut observer = AdaptiveObserver::new(model, config, generator, seed_lut, drift);
    digest.for_each_cycle(|cycle, dc| observer.observe_digest(cycle, dc));
    observer.finish(&digest.summary());
    observer.into_outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::InstructionBased;
    use crate::run_with_policy;
    use idca_isa::asm::Assembler;
    use idca_pipeline::{SimConfig, Simulator};
    use idca_timing::ProfileKind;

    fn long_trace() -> PipelineTrace {
        let program = Assembler::new()
            .assemble(
                "        l.addi r1, r0, 0x200
                         l.addi r3, r0, 400
                 loop:   l.add  r4, r4, r3
                         l.mul  r5, r3, r4
                         l.sw   0(r1), r5
                         l.lwz  r6, 0(r1)
                         l.xor  r7, r6, r4
                         l.slli r8, r7, 3
                         l.addi r3, r3, -1
                         l.sfne r3, r0
                         l.bf   loop
                         l.nop  0
                         l.nop  1",
            )
            .unwrap();
        Simulator::new(SimConfig::default())
            .run(&program)
            .unwrap()
            .trace
    }

    #[test]
    fn adaptive_table_learns_a_speedup_from_scratch() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let trace = long_trace();
        let outcome = run_adaptive(
            &model,
            &trace,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        assert_eq!(
            outcome.violations, 0,
            "margin must keep the adaptation safe"
        );
        assert!(
            outcome.speedup_over_static > 1.15,
            "learned speedup {}",
            outcome.speedup_over_static
        );
        assert!(outcome.warmup_cycles < outcome.cycles / 4);
    }

    #[test]
    fn adaptive_approaches_the_precharacterized_policy() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let trace = long_trace();
        let adaptive = run_adaptive(
            &model,
            &trace,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        let characterized = run_with_policy(
            &model,
            &trace,
            &InstructionBased::from_model(&model),
            &ClockGenerator::Ideal,
        );
        let ratio = adaptive.effective_frequency_mhz / characterized.effective_frequency_mhz;
        // Learning online (with a 5 % margin) should recover most of the
        // statically characterized gain.
        assert!(ratio > 0.85, "adaptive recovers only {ratio} of the gain");
        assert!(ratio < 1.05);
    }

    #[test]
    fn seeded_table_starts_fast_and_stays_safe() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let trace = long_trace();
        let seed = DelayLut::from_model(&model);
        let outcome = run_adaptive(
            &model,
            &trace,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            Some(&seed),
            Drift::None,
        );
        assert_eq!(outcome.violations, 0);
        assert!(outcome.speedup_over_static > 1.2);
    }

    #[test]
    fn adaptation_tracks_environmental_drift() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let trace = long_trace();
        // 1 % slowdown per 1000 cycles: by the end of the run every path is
        // several percent slower than the characterization assumed.
        let drift = Drift::LinearSlowdown {
            fraction_per_kilocycle: 0.01,
        };

        // A frozen, pre-characterized LUT has no way to notice the drift.
        let frozen_lut = DelayLut::from_model(&model);
        let frozen = {
            let policy = InstructionBased::new(frozen_lut.clone());
            let mut violations = 0;
            for record in trace.cycles() {
                let requested = crate::ClockPolicy::period_ps(&policy, record);
                let actual = model.cycle_timing(record).max_delay_ps * drift.factor(record.cycle);
                if requested + 1e-9 < actual {
                    violations += 1;
                }
            }
            violations
        };
        assert!(
            frozen > 0,
            "the drift must be strong enough to break the frozen LUT"
        );

        // The adaptive table backs off as soon as the monitor reports
        // trouble and keeps the violation count dramatically lower.
        let adaptive = run_adaptive(
            &model,
            &trace,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            Some(&frozen_lut),
            drift,
        );
        assert!(
            adaptive.violations * 10 < frozen,
            "adaptive {} vs frozen {frozen}",
            adaptive.violations
        );
        assert!(adaptive.speedup_over_static > 1.05);
    }

    fn varied_models(count: u32, master_seed: u64) -> Vec<TimingModel> {
        use idca_timing::VariationModel;
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let vm = VariationModel::default();
        (0..count)
            .map(|i| vm.apply(&nominal, &vm.sample_corner(master_seed, i)))
            .collect()
    }

    /// A copy of `model` at a slower supply voltage (same profile and
    /// library): its delays outgrow the original model's static period.
    fn at_voltage(model: &TimingModel, voltage_mv: u32) -> TimingModel {
        TimingModel::new(model.profile().clone(), model.library().clone(), voltage_mv)
            .expect("the voltage is characterized")
    }

    /// Replays `digest` through the exact lanes kernel on every cycle.
    fn replay_lanes(
        models: &[TimingModel],
        digest: &TimingDigest,
        config: &AdaptiveConfig,
        seed_lut: Option<&DelayLut>,
        drift: Drift,
    ) -> Vec<AdaptiveOutcome> {
        let corner_bank = CornerBank::from_models(models);
        let mut bank = AdaptiveBank::new(models, config, &ClockGenerator::Ideal, seed_lut, drift);
        let mut evaluator = corner_bank.evaluator();
        digest.for_each_cycle(|cycle, dc| {
            bank.observe_cycle_lanes(cycle, dc, evaluator.cycle_lanes(cycle, dc));
        });
        bank.finish(&digest.summary());
        bank.into_outcomes()
    }

    #[test]
    fn adaptive_bank_is_bit_identical_to_scalar_observers() {
        let digest = TimingDigest::from_trace(&long_trace());
        let config = AdaptiveConfig::default();
        // Corner counts straddling the lane width, plus both seeding modes
        // and a non-trivial drift (which exercises the backoff path).
        for corners in [1usize, 3, 4, 5, 8] {
            let models = varied_models(corners as u32, 0xADA7);
            let seed = DelayLut::from_model(&models[0]);
            for (seed_lut, drift) in [
                (None, Drift::None),
                (
                    Some(&seed),
                    Drift::LinearSlowdown {
                        fraction_per_kilocycle: 0.02,
                    },
                ),
            ] {
                let banked = replay_lanes(&models, &digest, &config, seed_lut, drift);
                assert_eq!(banked.len(), corners);
                for (corner, model) in models.iter().enumerate() {
                    let scalar = replay_adaptive_digest(
                        model,
                        &digest,
                        &config,
                        &ClockGenerator::Ideal,
                        seed_lut,
                        drift,
                    );
                    assert_eq!(banked[corner], scalar, "corners {corners} lane {corner}");
                }
            }
        }
    }

    #[test]
    fn adaptive_bank_learned_tables_match_the_scalar_observer() {
        let digest = TimingDigest::from_trace(&long_trace());
        let models = varied_models(3, 7);
        let config = AdaptiveConfig::default();
        let corner_bank = CornerBank::from_models(&models);
        let mut bank =
            AdaptiveBank::new(&models, &config, &ClockGenerator::Ideal, None, Drift::None);
        let mut evaluator = corner_bank.evaluator();
        digest.for_each_cycle(|cycle, dc| {
            bank.observe_cycle_lanes(cycle, dc, evaluator.cycle_lanes(cycle, dc));
        });
        for (corner, model) in models.iter().enumerate() {
            let mut scalar =
                AdaptiveObserver::new(model, &config, &ClockGenerator::Ideal, None, Drift::None);
            digest.for_each_cycle(|cycle, dc| scalar.observe_digest(cycle, dc));
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    assert_eq!(
                        bank.learned_ps(&corner_bank, corner, stage, class),
                        scalar.learned_ps(stage, class)
                    );
                    assert_eq!(
                        bank.observation_count(corner, stage, class),
                        scalar.observation_count(stage, class)
                    );
                }
            }
        }
    }

    /// The per-cycle lane perturbations of a test replay: the fault plan's
    /// factors and, on the cycles `entry` selects, a 1.25x entry surge
    /// (faults first, the sweep's canonical order).
    #[derive(Clone, Copy)]
    struct Perturbation<'p> {
        faults: Option<&'p FaultPlan>,
        entry: fn(u64) -> bool,
    }

    const UNPERTURBED: Perturbation<'static> = Perturbation {
        faults: None,
        entry: |_| false,
    };

    impl Perturbation<'_> {
        /// Whether `cycle`'s lanes leave the bank exactly as evaluated.
        fn unperturbed(&self, cycle: u64) -> bool {
            let faulted = self
                .faults
                .is_some_and(|plan| plan.stage_factors(cycle).iter().any(|&f| f != 1.0));
            !faulted && !(self.entry)(cycle)
        }

        /// Evaluates one cycle's lanes and applies the perturbation.
        fn lanes<'e>(
            &self,
            evaluator: &'e mut idca_timing::BankEvaluator<'_>,
            cycle: u64,
            dc: &DigestCycle,
        ) -> &'e CycleLanes {
            let lanes = evaluator.cycle_lanes(cycle, dc);
            if let Some(plan) = self.faults {
                lanes.apply_fault_factors(&plan.stage_factors(cycle));
            }
            if (self.entry)(cycle) {
                lanes.apply_surge(1.25);
            }
            lanes
        }

        /// Settles the cycle's entries and runs the exact lanes kernel on
        /// it.
        fn observe_exact(
            &self,
            bank: &mut AdaptiveBank<'_>,
            evaluator: &mut idca_timing::BankEvaluator<'_>,
            cycle: u64,
            dc: &DigestCycle,
        ) {
            bank.settle(&dc.classes, evaluator.bank());
            let lanes = self.lanes(evaluator, cycle, dc);
            bank.observe_cycle_lanes_phased(cycle, dc, lanes, (self.entry)(cycle));
        }

        /// The scalar observer's view of the same cycle: the model's own
        /// timing, perturbed in the same order.
        fn observe_scalar(
            &self,
            observer: &mut AdaptiveObserver<'_>,
            model: &TimingModel,
            cycle: u64,
            dc: &DigestCycle,
        ) {
            let timing = model.digest_cycle_timing(cycle, dc);
            let timing = match self.faults {
                Some(plan) => plan.faulted(cycle, &timing),
                None => timing,
            };
            let entry = (self.entry)(cycle);
            let timing = if entry { surged(&timing, 1.25) } else { timing };
            observer.observe_parts(cycle, &dc.classes, &timing, entry);
        }
    }

    /// Replays `digest` through `bank` under `perturbation`, offering every
    /// unperturbed cycle to [`AdaptiveBank::observe_proven`] and running
    /// the exact lanes kernel otherwise; returns the number of proven
    /// cycles and of unperturbed cycles.
    fn replay_with_proof(
        bank: &mut AdaptiveBank<'_>,
        corners: &CornerBank,
        digest: &TimingDigest,
        perturbation: Perturbation<'_>,
    ) -> (u64, u64) {
        let mut evaluator = corners.evaluator();
        let (mut proven, mut unperturbed) = (0, 0);
        digest.for_each_cycle(|cycle, dc| {
            let excitations = idca_timing::stage_excitations(cycle, dc);
            let quiet = perturbation.unperturbed(cycle);
            unperturbed += u64::from(quiet);
            if quiet && bank.observe_proven(&dc.classes, &excitations, corners) {
                proven += 1;
            } else {
                perturbation.observe_exact(bank, &mut evaluator, cycle, dc);
            }
        });
        bank.finish(&digest.summary());
        (proven, unperturbed)
    }

    /// [`replay_with_proof`] without the proof: every cycle exact.
    fn replay_exact(
        bank: &mut AdaptiveBank<'_>,
        corners: &CornerBank,
        digest: &TimingDigest,
        perturbation: Perturbation<'_>,
    ) {
        let mut evaluator = corners.evaluator();
        digest.for_each_cycle(|cycle, dc| {
            perturbation.observe_exact(bank, &mut evaluator, cycle, dc);
        });
        bank.finish(&digest.summary());
    }

    fn assert_same_tables(a: &mut AdaptiveBank<'_>, b: &mut AdaptiveBank<'_>, bank: &CornerBank) {
        for corner in 0..a.corners() {
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    assert_eq!(
                        a.learned_ps(bank, corner, stage, class).to_bits(),
                        b.learned_ps(bank, corner, stage, class).to_bits()
                    );
                    assert_eq!(
                        a.observation_count(corner, stage, class),
                        b.observation_count(corner, stage, class)
                    );
                }
            }
        }
    }

    #[test]
    fn proven_path_is_bit_identical_to_the_exact_kernel() {
        let digest = TimingDigest::from_trace(&long_trace());
        let config = AdaptiveConfig::default();
        // Droops and spikes strong enough to violate (and back entries
        // off) on some corners, plus short entry windows.
        let spec = idca_timing::FaultSpec::parse(
            "seed=3,droop-rate=0.3,droop-mag=0.3,spike-rate=0.02,spike-mag=0.5,penalty=4",
        )
        .unwrap();
        let plan = FaultPlan::new(&spec);
        let perturbations = [
            ("steady", UNPERTURBED),
            (
                "faults",
                Perturbation {
                    faults: Some(&plan),
                    entry: |_| false,
                },
            ),
            (
                "faults+entries",
                Perturbation {
                    faults: Some(&plan),
                    entry: |cycle| cycle % 193 < 3,
                },
            ),
        ];
        for corners in [1usize, 3, 4, 5, 8] {
            let models = varied_models(corners as u32, 0xB0D);
            let corner_bank = CornerBank::from_models(&models);
            for (label, perturbation) in perturbations {
                let new_bank = || {
                    let mut bank = AdaptiveBank::new(
                        &models,
                        &config,
                        &ClockGenerator::Ideal,
                        None,
                        Drift::None,
                    );
                    bank.set_faults(perturbation.faults.copied());
                    bank
                };
                let mut proven_bank = new_bank();
                assert!(proven_bank.proof_ready(&corner_bank));
                let (proven, unperturbed) =
                    replay_with_proof(&mut proven_bank, &corner_bank, &digest, perturbation);
                let mut exact_bank = new_bank();
                replay_exact(&mut exact_bank, &corner_bank, &digest, perturbation);
                assert!(
                    proven > unperturbed / 2 && proven <= unperturbed,
                    "{label} corners {corners}: {proven} of {unperturbed} proven"
                );
                if perturbation.faults.is_some() {
                    assert!(unperturbed < digest.cycles(), "{label}: nothing perturbed");
                }
                assert_same_tables(&mut proven_bank, &mut exact_bank, &corner_bank);
                assert_eq!(
                    proven_bank.into_outcomes(),
                    exact_bank.into_outcomes(),
                    "{label} corners {corners}"
                );
            }
        }
    }

    /// How one cycle of [`deferred_learn_is_bit_identical_to_per_cycle_learn`]
    /// was replayed.
    #[derive(Debug, Default)]
    struct CycleKinds {
        cold: u64,
        covered: u64,
        record: u64,
        violating: u64,
        faulted: u64,
        entry: u64,
    }

    #[test]
    fn deferred_learn_is_bit_identical_to_per_cycle_learn() {
        let digest = TimingDigest::from_trace(&long_trace());
        let spec = idca_timing::FaultSpec::parse(
            "seed=5,droop-rate=0.3,droop-mag=0.3,spike-rate=0.02,spike-mag=0.5,penalty=4",
        )
        .unwrap();
        let plan = FaultPlan::new(&spec);
        let perturbations = [
            UNPERTURBED,
            Perturbation {
                faults: Some(&plan),
                entry: |cycle| cycle % 211 < 3,
            },
        ];
        // A zero margin learns exactly the observed delays, so a warm entry
        // meeting a larger excitation can violate on an unperturbed cycle.
        let configs = [
            AdaptiveConfig::default(),
            AdaptiveConfig {
                margin: 0.0,
                ..AdaptiveConfig::default()
            },
        ];
        let mut kinds = CycleKinds::default();
        for corners in [1u32, 5, 8] {
            let models = varied_models(corners, 0xDEF);
            // Delays evaluated at the corners' own voltage, and at 0.65 V
            // against the static periods of the original corners: there
            // the static padding of a cold cycle does not cover every
            // delay, so the entries whose static bound fails must send
            // their cold cycles to the exact path.
            let slow: Vec<TimingModel> = models.iter().map(|m| at_voltage(m, 650)).collect();
            for (delays, static_fits) in [(&models, true), (&slow, false)] {
                let corner_bank = CornerBank::from_models(delays);
                for config in &configs {
                    for perturbation in perturbations {
                        let seen = deferred_against_exact_and_scalar(
                            &models,
                            delays,
                            &corner_bank,
                            config,
                            perturbation,
                            &digest,
                        );
                        if !static_fits {
                            // The slow delays outgrow the static padding.
                            assert!(seen.violating > 0, "{seen:?}");
                        }
                        kinds.cold += seen.cold;
                        kinds.covered += seen.covered;
                        kinds.record += seen.record;
                        kinds.violating += seen.violating;
                        kinds.faulted += seen.faulted;
                        kinds.entry += seen.entry;
                    }
                }
            }
        }
        let counts = [
            kinds.cold,
            kinds.covered,
            kinds.record,
            kinds.violating,
            kinds.faulted,
            kinds.entry,
        ];
        assert!(
            counts.iter().all(|&n| n > 0),
            "every kind of cycle must occur: {kinds:?}"
        );
    }

    /// Walks `digest` in lockstep through a bank on the proven path, a bank
    /// on the exact kernel and one scalar observer per corner (static
    /// periods from `models`, delays from `delays`), comparing every
    /// learned value and observation count every 97 cycles and the
    /// outcomes at the end. Returns how the proven bank replayed the
    /// cycles.
    fn deferred_against_exact_and_scalar(
        models: &[TimingModel],
        delays: &[TimingModel],
        corner_bank: &CornerBank,
        config: &AdaptiveConfig,
        perturbation: Perturbation<'_>,
        digest: &TimingDigest,
    ) -> CycleKinds {
        let generator = &ClockGenerator::Ideal;
        let new_bank = || {
            let mut bank = AdaptiveBank::new(models, config, generator, None, Drift::None);
            bank.set_faults(perturbation.faults.copied());
            bank
        };
        let (mut proven_bank, mut exact_bank) = (new_bank(), new_bank());
        assert!(proven_bank.proof_ready(corner_bank));
        let mut scalars: Vec<AdaptiveObserver<'_>> = models
            .iter()
            .zip(delays)
            .map(|(model, delays)| {
                let mut observer =
                    AdaptiveObserver::new(delays, config, generator, None, Drift::None);
                observer.static_period = model.static_period_ps();
                match perturbation.faults {
                    Some(plan) => observer.with_faults(plan),
                    None => observer,
                }
            })
            .collect();
        let mut evaluator = corner_bank.evaluator();
        let mut kinds = CycleKinds::default();
        let warmup = config.warmup_observations;
        digest.for_each_cycle(|cycle, dc| {
            let quiet = perturbation.unperturbed(cycle);
            let entry = (perturbation.entry)(cycle);
            kinds.entry += u64::from(entry);
            kinds.faulted += u64::from(!quiet && !entry);
            let cold = Stage::ALL.iter().any(|&stage| {
                proven_bank.observations[entry_index(stage, dc.classes[stage.index()])] < warmup
            });
            let deferred = proven_bank.deferred_learn_cycles();
            let excitations = idca_timing::stage_excitations(cycle, dc);
            let proven =
                quiet && proven_bank.observe_proven(&dc.classes, &excitations, corner_bank);
            if proven {
                let deferred = proven_bank.deferred_learn_cycles() > deferred;
                kinds.cold += u64::from(cold);
                kinds.record += u64::from(!cold && deferred);
                kinds.covered += u64::from(!cold && !deferred);
            } else {
                proven_bank.settle(&dc.classes, corner_bank);
            }
            let violations: u64 = exact_bank.violations.iter().sum();
            let lanes = perturbation.lanes(&mut evaluator, cycle, dc);
            exact_bank.observe_cycle_lanes_phased(cycle, dc, lanes, entry);
            if !proven {
                proven_bank.observe_cycle_lanes_phased(cycle, dc, lanes, entry);
            }
            let violated = exact_bank.violations.iter().sum::<u64>() > violations;
            assert!(
                !(proven && violated),
                "cycle {cycle} was proven but violates"
            );
            kinds.violating += u64::from(quiet && violated);
            for (scalar, model) in scalars.iter_mut().zip(delays) {
                perturbation.observe_scalar(scalar, model, cycle, dc);
            }
            if cycle % 97 == 0 {
                assert_same_tables(&mut proven_bank, &mut exact_bank, corner_bank);
                assert_scalar_tables(&mut proven_bank, &scalars, corner_bank);
            }
        });
        assert_same_tables(&mut proven_bank, &mut exact_bank, corner_bank);
        assert_scalar_tables(&mut proven_bank, &scalars, corner_bank);
        let summary = digest.summary();
        proven_bank.finish(&summary);
        exact_bank.finish(&summary);
        let proven = proven_bank.into_outcomes();
        assert_eq!(proven, exact_bank.into_outcomes());
        for (corner, mut scalar) in scalars.into_iter().enumerate() {
            scalar.finish(&summary);
            assert_eq!(proven[corner], scalar.into_outcome(), "corner {corner}");
        }
        kinds
    }

    fn assert_scalar_tables(
        bank: &mut AdaptiveBank<'_>,
        scalars: &[AdaptiveObserver<'_>],
        corner_bank: &CornerBank,
    ) {
        for (corner, scalar) in scalars.iter().enumerate() {
            for stage in Stage::ALL {
                for class in TimingClass::ALL {
                    assert_eq!(
                        bank.learned_ps(corner_bank, corner, stage, class).to_bits(),
                        scalar.learned_ps(stage, class).to_bits(),
                        "corner {corner} {stage:?} {class:?}"
                    );
                    assert_eq!(
                        bank.observation_count(corner, stage, class),
                        scalar.observation_count(stage, class)
                    );
                }
            }
        }
    }

    #[test]
    fn proof_preconditions_fall_back_to_the_exact_path() {
        let digest = TimingDigest::from_trace(&long_trace());
        let models = varied_models(5, 0xB0D);
        let corner_bank = CornerBank::from_models(&models);
        let quantized = ClockGenerator::quantized_50ps();
        let drift = Drift::LinearSlowdown {
            fraction_per_kilocycle: 0.01,
        };
        let negative_margin = AdaptiveConfig {
            margin: -0.01,
            ..AdaptiveConfig::default()
        };
        let default = AdaptiveConfig::default();
        // One corner whose adder execute delay falls with excitation.
        let mut skewed = models.clone();
        let (stage, class) = (Stage::Execute, TimingClass::Add);
        let profile = skewed[2].profile().with_path_group(
            stage,
            class,
            skewed[2].worst_case_ps(stage, class),
            -skewed[2].profile().spread(stage, class),
        );
        skewed[2] = TimingModel::new(
            profile,
            skewed[2].library().clone(),
            skewed[2].operating_point().voltage_mv,
        )
        .expect("same operating point");
        let skewed_bank = CornerBank::from_models(&skewed);
        let ideal = &ClockGenerator::Ideal;
        let cases = [
            ("drift", default, ideal, drift, &corner_bank),
            (
                "quantized generator",
                default,
                &quantized,
                Drift::None,
                &corner_bank,
            ),
            (
                "negative margin",
                negative_margin,
                ideal,
                Drift::None,
                &corner_bank,
            ),
            ("negative spread", default, ideal, Drift::None, &skewed_bank),
        ];
        for (label, config, generator, drift, corner_bank) in cases {
            let new_bank = || AdaptiveBank::new(&models, &config, generator, None, drift);
            let mut bank = new_bank();
            assert!(!bank.proof_ready(corner_bank), "{label}");
            let (proven, _) = replay_with_proof(&mut bank, corner_bank, &digest, UNPERTURBED);
            assert_eq!(proven, 0, "{label}: no cycle may skip");
            let mut exact = new_bank();
            replay_exact(&mut exact, corner_bank, &digest, UNPERTURBED);
            assert_eq!(bank.into_outcomes(), exact.into_outcomes(), "{label}");
        }
        // A bank of another corner count cannot vouch for these lanes.
        let bank = AdaptiveBank::new(
            &models[..4],
            &default,
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        assert!(!bank.proof_ready(&corner_bank));

        // Delays at 0.60 V against the static periods of the original
        // corners: the static bound of the entries fails, so no cold cycle
        // may be proven, and the violations the static padding cannot
        // prevent must appear.
        let slow: Vec<TimingModel> = models.iter().map(|m| at_voltage(m, 600)).collect();
        let slow_bank = CornerBank::from_models(&slow);
        let new_bank = || AdaptiveBank::new(&models, &default, ideal, None, Drift::None);
        let mut bank = new_bank();
        assert!(bank.proof_ready(&slow_bank));
        replay_with_proof(&mut bank, &slow_bank, &digest, UNPERTURBED);
        let mut exact = new_bank();
        replay_exact(&mut exact, &slow_bank, &digest, UNPERTURBED);
        assert_same_tables(&mut bank, &mut exact, &slow_bank);
        let exact = exact.into_outcomes();
        assert!(exact.iter().all(|o| o.violations > 0), "0.60 V violates");
        assert_eq!(bank.into_outcomes(), exact);

        // A fault plan is no walk-level precondition: the faulted bank is
        // ready, and proves only the unperturbed cycles it is offered.
        let spec = idca_timing::FaultSpec::parse("seed=8,droop-rate=0.5,droop-mag=0.6").unwrap();
        let plan = FaultPlan::new(&spec);
        let faulted = Perturbation {
            faults: Some(&plan),
            entry: |_| false,
        };
        let new_bank =
            || AdaptiveBank::new(&models, &default, ideal, None, Drift::None).with_faults(plan);
        let mut bank = new_bank();
        assert!(bank.proof_ready(&corner_bank));
        let (proven, unperturbed) = replay_with_proof(&mut bank, &corner_bank, &digest, faulted);
        assert!(proven > 0 && proven <= unperturbed && unperturbed < digest.cycles());
        let mut exact = new_bank();
        replay_exact(&mut exact, &corner_bank, &digest, faulted);
        let exact = exact.into_outcomes();
        assert!(exact.iter().any(|o| o.violations > 0), "the droops violate");
        assert_eq!(bank.into_outcomes(), exact);
        // The proof cannot see the factors: offered every cycle, it would
        // wrongly prove faulted ones, which is why the caller gates them.
        let mut ungated = new_bank();
        let mut evaluator = corner_bank.evaluator();
        digest.for_each_cycle(|cycle, dc| {
            let excitations = idca_timing::stage_excitations(cycle, dc);
            if !ungated.observe_proven(&dc.classes, &excitations, &corner_bank) {
                faulted.observe_exact(&mut ungated, &mut evaluator, cycle, dc);
            }
        });
        ungated.finish(&digest.summary());
        assert_ne!(ungated.into_outcomes(), exact);
    }

    #[test]
    fn proof_cache_is_cleared_by_reset_and_by_a_violating_cycle() {
        let digest = TimingDigest::from_trace(&long_trace());
        let models = varied_models(3, 0xB0D);
        let corner_bank = CornerBank::from_models(&models);
        let config = AdaptiveConfig::default();
        let mut bank =
            AdaptiveBank::new(&models, &config, &ClockGenerator::Ideal, None, Drift::None);
        let cached = |bank: &AdaptiveBank<'_>| bank.covered.iter().any(|&x| x > f64::NEG_INFINITY);
        let pending = |bank: &AdaptiveBank<'_>| bank.pending.iter().any(|&x| x > f64::NEG_INFINITY);
        assert!(!cached(&bank));
        assert!(replay_with_proof(&mut bank, &corner_bank, &digest, UNPERTURBED).0 > 0);
        assert!(cached(&bank));
        assert!(bank.deferred_learn_cycles() > 0);
        bank.reset(None);
        assert!(!cached(&bank), "reset clears the proof cache");
        assert!(!pending(&bank), "reset drops the deferred learns");
        assert!(bank.fits_static.iter().all(|&x| x == f64::NEG_INFINITY));
        assert_eq!(bank.deferred_learn_cycles(), 0);

        // Warm up and prove, then feed one cycle from a much slower corner:
        // it violates (and may back entries off, the cap shrinking them), so
        // every cached cover — which also lets a settle skip its fold — is
        // void.
        let slow_models: Vec<TimingModel> = models.iter().map(|m| at_voltage(m, 600)).collect();
        let slow_bank = CornerBank::from_models(&slow_models);
        replay_with_proof(&mut bank, &corner_bank, &digest, UNPERTURBED);
        assert!(cached(&bank));
        let before: u64 = bank.violations.iter().sum();
        let (cycle, dc) = (digest.cycles(), digest.pool()[0]);
        bank.settle(&dc.classes, &corner_bank);
        bank.observe_cycle_lanes(cycle, &dc, slow_bank.evaluator().cycle_lanes(cycle, &dc));
        assert!(
            bank.violations.iter().sum::<u64>() > before,
            "the slow cycle violates"
        );
        assert!(!cached(&bank), "a violation clears the proof cache");
    }

    #[test]
    #[should_panic(expected = "settle the cycle first")]
    fn exact_kernel_rejects_an_unsettled_entry() {
        let digest = TimingDigest::from_trace(&long_trace());
        let models = varied_models(3, 7);
        let corner_bank = CornerBank::from_models(&models);
        let mut bank = AdaptiveBank::new(
            &models,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        let dc = digest.pool()[0];
        let excitations = idca_timing::stage_excitations(0, &dc);
        assert!(bank.observe_proven(&dc.classes, &excitations, &corner_bank));
        bank.observe_cycle_lanes(1, &dc, corner_bank.evaluator().cycle_lanes(1, &dc));
    }

    #[test]
    #[should_panic(expected = "corner 3 is out of range")]
    fn observation_count_rejects_a_padding_lane() {
        let models = varied_models(3, 7);
        let bank = AdaptiveBank::new(
            &models,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        let _ = bank.observation_count(3, Stage::Execute, TimingClass::Add);
    }

    #[test]
    #[should_panic(expected = "corner 3 is out of range")]
    fn learned_ps_rejects_a_padding_lane() {
        let models = varied_models(3, 7);
        let corner_bank = CornerBank::from_models(&models);
        let mut bank = AdaptiveBank::new(
            &models,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        let _ = bank.learned_ps(&corner_bank, 3, Stage::Execute, TimingClass::Add);
    }

    #[test]
    fn empty_adaptive_bank_is_inert() {
        let digest = TimingDigest::from_trace(&long_trace());
        let outcomes = replay_lanes(&[], &digest, &AdaptiveConfig::default(), None, Drift::None);
        assert!(outcomes.is_empty());
    }

    #[test]
    fn empty_trace_is_neutral() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let empty = PipelineTrace::from_parts(vec![], 0);
        let outcome = run_adaptive(
            &model,
            &empty,
            &AdaptiveConfig::default(),
            &ClockGenerator::Ideal,
            None,
            Drift::None,
        );
        assert_eq!(outcome.cycles, 0);
        assert_eq!(outcome.violations, 0);
        assert_eq!(outcome.speedup_over_static, 1.0);
    }
}
