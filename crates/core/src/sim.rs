//! The dynamic-clock simulation driver.
//!
//! This is the software equivalent of the paper's enhanced cycle-accurate
//! instruction-set simulator: for every cycle it asks a [`ClockPolicy`] for
//! the clock period, passes the request through the [`ClockGenerator`]
//! model, accumulates the resulting execution time and — crucially — checks
//! the *frequency-over-scaling without timing errors* invariant by comparing
//! every realized period against the actual dynamic delay of that cycle.
//!
//! The driver is a streaming accumulator: [`PolicyObserver`] implements
//! [`CycleObserver`] and evaluates each cycle as the pipeline simulator
//! produces it, so several policies can be compared in one simulation pass
//! (see [`crate::eval`]). [`run_with_policy`] replays a materialized
//! [`PipelineTrace`] through the same accumulation.

use crate::{ClockGenerator, ClockPolicy};
use idca_pipeline::{
    CycleObserver, CycleRecord, DigestCycle, IrqPhase, PipelineTrace, RunSummary, TimingDigest,
};
use idca_timing::{
    surged, ActivityObserver, ActivitySummary, CornerBank, CycleTiming, FaultPlan, IrqCursor,
    IrqTimeline, Ps, TimingModel,
};
use serde::{Deserialize, Serialize};

/// Result of replaying one trace under one clocking policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Name of the policy that produced this outcome.
    pub policy: String,
    /// Number of cycles in the replayed trace.
    pub cycles: u64,
    /// Architecturally retired instructions.
    pub retired: u64,
    /// Total execution time in picoseconds (sum of realized periods).
    pub total_time_ps: f64,
    /// Average realized clock period in picoseconds.
    pub avg_period_ps: Ps,
    /// Shortest realized period.
    pub min_period_ps: Ps,
    /// Longest realized period.
    pub max_period_ps: Ps,
    /// Effective clock frequency in MHz (cycles / total time).
    pub effective_frequency_mhz: f64,
    /// Instructions per second, in millions (throughput metric).
    pub mips: f64,
    /// Cycles in which the realized period was shorter than the actual
    /// dynamic delay — must be zero for a correctly constructed LUT.
    pub violations: u64,
    /// The subset of [`RunOutcome::violations`] that occurred during
    /// exception-entry cycles (the flush-and-redirect window after an
    /// interrupt is accepted, when the entry delay surge is in effect).
    /// Zero for interrupt-free runs.
    #[serde(default)]
    pub entry_violations: u64,
    /// Violating cycles whose overshoot stayed inside the fault plan's
    /// detection window: a Razor-style detect-and-replay pipeline catches
    /// them and re-executes at the replay penalty. Zero without a fault
    /// plan.
    pub recovered_cycles: u64,
    /// Total replay cycles charged for the recovered violations (the fault
    /// plan's per-event penalty times [`RunOutcome::recovered_cycles`]).
    pub replay_penalty_cycles: u64,
    /// Violating cycles whose overshoot escaped the detection window — the
    /// detect-and-replay net misses them, so they are tallied as silent
    /// data-corruption risk instead of being repaired.
    pub silent_risk_cycles: u64,
    /// Effective clock frequency in MHz **after** charging the replay
    /// penalty time for every recovered violation — the
    /// throughput-under-recovery score. Bit-equal to
    /// [`RunOutcome::effective_frequency_mhz`] when nothing was recovered.
    pub recovery_frequency_mhz: f64,
    /// Switching-activity summary of the trace (for the power model).
    pub activity: ActivitySummary,
}

impl RunOutcome {
    /// Speedup of this outcome relative to a baseline outcome
    /// (ratio of effective frequencies; > 1 means faster).
    #[must_use]
    pub fn speedup_over(&self, baseline: &RunOutcome) -> f64 {
        if baseline.effective_frequency_mhz == 0.0 {
            1.0
        } else {
            self.effective_frequency_mhz / baseline.effective_frequency_mhz
        }
    }

    /// [`RunOutcome::speedup_over`] on the recovery-charged frequencies —
    /// the *effective* speedup once every detected violation has paid its
    /// replay penalty. Equals the raw speedup when neither run recovered
    /// anything.
    #[must_use]
    pub fn recovery_speedup_over(&self, baseline: &RunOutcome) -> f64 {
        if baseline.recovery_frequency_mhz == 0.0 {
            1.0
        } else {
            self.recovery_frequency_mhz / baseline.recovery_frequency_mhz
        }
    }
}

/// Streaming dynamic-clock evaluation: a [`CycleObserver`] that applies a
/// [`ClockPolicy`] to every cycle as the pipeline simulator produces it,
/// realizes the requested period through a [`ClockGenerator`], checks the
/// no-timing-violation invariant against `model` and accumulates the
/// switching activity — everything [`run_with_policy`] reports, with no
/// materialized trace.
///
/// Several `PolicyObserver`s can ride on the same
/// [`run_observed`](idca_pipeline::Simulator::run_observed) pass, which is
/// how [`crate::eval::compare_program`] evaluates the static baseline and a
/// dynamic policy with a single simulation of each benchmark.
pub struct PolicyObserver<'a> {
    model: &'a TimingModel,
    policy: &'a dyn ClockPolicy,
    generator: &'a ClockGenerator,
    faults: Option<&'a FaultPlan>,
    irq: Option<IrqCursor<'a>>,
    surge_factor: f64,
    total_time_ps: f64,
    penalty_time_ps: f64,
    min_period_ps: Ps,
    max_period_ps: Ps,
    violations: u64,
    entry_violations: u64,
    recovered_cycles: u64,
    replay_penalty_cycles: u64,
    silent_risk_cycles: u64,
    activity: ActivityObserver,
    outcome: Option<RunOutcome>,
}

impl<'a> PolicyObserver<'a> {
    /// Creates an observer evaluating `policy` through `generator` against
    /// the dynamic delays of `model`.
    #[must_use]
    pub fn new(
        model: &'a TimingModel,
        policy: &'a dyn ClockPolicy,
        generator: &'a ClockGenerator,
    ) -> Self {
        PolicyObserver {
            model,
            policy,
            generator,
            faults: None,
            irq: None,
            surge_factor: 1.0,
            total_time_ps: 0.0,
            penalty_time_ps: 0.0,
            min_period_ps: Ps::INFINITY,
            max_period_ps: 0.0,
            violations: 0,
            entry_violations: 0,
            recovered_cycles: 0,
            replay_penalty_cycles: 0,
            silent_risk_cycles: 0,
            activity: ActivityObserver::new(),
            outcome: None,
        }
    }

    /// Attaches a [`FaultPlan`]: the cycle-computing entry points
    /// ([`CycleObserver::observe_cycle`], [`PolicyObserver::observe_digest`])
    /// perturb each cycle's timing through the plan, and every violation is
    /// classified through the plan's recovery model — detected-and-replayed
    /// (inside the detection window, at the configured penalty) or silent
    /// corruption risk. The prepared entry points
    /// ([`PolicyObserver::observe_digest_timed`] and friends) expect the
    /// *caller* to have applied [`FaultPlan::faulted`] already; the plan
    /// then only drives the recovery accounting.
    #[must_use]
    pub fn with_faults(mut self, faults: &'a FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches the interrupt scenario: `surge_factor` (`1 + surge`, so
    /// `1.0` = no surge) scales every stage delay during exception-entry
    /// cycles, and violations on those cycles are additionally tallied as
    /// [`RunOutcome::entry_violations`].
    ///
    /// The phase source differs per path: the **live** path
    /// ([`CycleObserver::observe_cycle`]) reads each record's
    /// `irq_phase` directly — pass `None` for `timeline`. The **replay**
    /// paths ([`PolicyObserver::observe_digest`] and friends) rebuild the
    /// phases from the digest event stream — pass the run's
    /// [`IrqTimeline`]. Both classify exactly the same cycles as entry
    /// cycles (pinned by the interrupt differential tests).
    ///
    /// Like faults, the surge convention splits by entry point: the
    /// cycle-computing entry points apply the surge themselves (after the
    /// fault perturbation — the canonical composition order), while the
    /// prepared entry points expect the caller to have applied
    /// [`surged`] / [`CycleLanes::apply_surge`](idca_timing::CycleLanes::apply_surge)
    /// already.
    #[must_use]
    pub fn with_interrupts(mut self, timeline: Option<&'a IrqTimeline>, surge_factor: f64) -> Self {
        self.irq = timeline.map(IrqTimeline::cursor);
        self.surge_factor = surge_factor;
        self
    }

    /// Whether `cycle` is an exception-entry cycle according to the
    /// attached replay timeline (`false` when none is attached).
    fn entry_at(&mut self, cycle: u64) -> bool {
        self.irq
            .as_mut()
            .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry)
    }

    /// Consumes the observer and returns the outcome of the run.
    ///
    /// # Panics
    ///
    /// Panics if the simulation never called [`CycleObserver::finish`]
    /// (i.e. the run errored out or the observer was never driven).
    #[must_use]
    pub fn into_outcome(self) -> RunOutcome {
        self.outcome
            .expect("simulation must complete (finish) before taking the outcome")
    }

    /// Evaluates one *digested* cycle — the replay counterpart of
    /// [`CycleObserver::observe_cycle`]: the policy decides from the
    /// digest's classes, the violation check compares against the digest
    /// replay of the model's dynamic delays, and the activity statistics
    /// fold the digest's occupancy bits. Bit-identical to observing the
    /// originating [`CycleRecord`].
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
        let requested = self.policy.digest_period_ps(cycle, digest_cycle);
        self.step(requested, timing.max_delay_ps, entry);
        self.activity.observe_digest(digest_cycle);
    }

    /// [`PolicyObserver::observe_digest`] with the cycle's [`CycleTiming`]
    /// already evaluated, so several observers riding the same replay (the
    /// suite evaluation folds a baseline and a dynamic policy per digest)
    /// share one model evaluation per cycle.
    pub fn observe_digest_timed(
        &mut self,
        cycle: u64,
        digest_cycle: &DigestCycle,
        timing: &CycleTiming,
    ) {
        let entry = self.entry_at(cycle);
        let requested = self.policy.digest_period_ps(cycle, digest_cycle);
        self.step(requested, timing.max_delay_ps, entry);
        self.activity.observe_digest(digest_cycle);
    }

    /// [`PolicyObserver::observe_digest_timed`] with the policy's requested
    /// period precomputed and the cycle's interrupt-entry classification
    /// supplied by the caller, for callers that discard
    /// [`RunOutcome::activity`] (no switching-activity fold; the outcome's
    /// activity summary stays at its empty default, every other field is
    /// accumulated identically). The caller must also have applied the
    /// fault perturbation and, on entry cycles, the entry surge to
    /// `timing`.
    pub fn observe_timing_prepared_phased(
        &mut self,
        requested: Ps,
        timing: &CycleTiming,
        entry: bool,
    ) {
        self.step(requested, timing.max_delay_ps, entry);
    }

    /// The per-cycle accumulation shared by the live and the replay paths:
    /// realize the requested period, check the violation invariant against
    /// the actual dynamic delay, accumulate the realized time — and, when a
    /// fault plan is attached, classify each violation as recovered (the
    /// overshoot fits the detection window; a replay penalty is charged) or
    /// as silent corruption risk. `entry` marks exception-entry cycles,
    /// whose violations are additionally tallied as
    /// [`RunOutcome::entry_violations`].
    fn step(&mut self, requested: Ps, actual: Ps, entry: bool) {
        let realized = self.generator.realize(requested);
        if realized + 1e-9 < actual {
            self.violations += 1;
            self.entry_violations += u64::from(entry);
            if let Some(plan) = self.faults {
                let spec = plan.spec();
                if actual <= realized * (1.0 + spec.detect_window) {
                    self.recovered_cycles += 1;
                    self.replay_penalty_cycles += u64::from(spec.replay_penalty);
                    self.penalty_time_ps += realized * f64::from(spec.replay_penalty);
                } else {
                    self.silent_risk_cycles += 1;
                }
            }
        }
        self.total_time_ps += realized;
        self.min_period_ps = self.min_period_ps.min(realized);
        self.max_period_ps = self.max_period_ps.max(realized);
    }
}

impl CycleObserver for PolicyObserver<'_> {
    fn observe_cycle(&mut self, record: &CycleRecord) {
        let entry = record.irq_phase == IrqPhase::Entry;
        let requested = self.policy.period_ps(record);
        let timing = self.model.cycle_timing(record);
        let timing = match self.faults {
            Some(plan) => plan.faulted(record.cycle, &timing),
            None => timing,
        };
        let actual = if entry {
            surged(&timing, self.surge_factor).max_delay_ps
        } else {
            timing.max_delay_ps
        };
        self.step(requested, actual, entry);
        self.activity.observe_cycle(record);
    }

    fn finish(&mut self, summary: &RunSummary) {
        self.activity.finish(summary);
        let cycles = summary.cycles;
        let avg_period_ps = if cycles == 0 {
            0.0
        } else {
            self.total_time_ps / cycles as f64
        };
        let effective_frequency_mhz = if avg_period_ps > 0.0 {
            1.0e6 / avg_period_ps
        } else {
            0.0
        };
        let mips = if self.total_time_ps > 0.0 {
            summary.retired as f64 / (self.total_time_ps * 1e-6)
        } else {
            0.0
        };
        let recovery_period_ps = if cycles == 0 {
            0.0
        } else {
            (self.total_time_ps + self.penalty_time_ps) / cycles as f64
        };
        let recovery_frequency_mhz = if recovery_period_ps > 0.0 {
            1.0e6 / recovery_period_ps
        } else {
            0.0
        };
        self.outcome = Some(RunOutcome {
            policy: self.policy.name().to_string(),
            cycles,
            retired: summary.retired,
            total_time_ps: self.total_time_ps,
            avg_period_ps,
            min_period_ps: if cycles == 0 { 0.0 } else { self.min_period_ps },
            max_period_ps: self.max_period_ps,
            effective_frequency_mhz,
            mips,
            violations: self.violations,
            entry_violations: self.entry_violations,
            recovered_cycles: self.recovered_cycles,
            replay_penalty_cycles: self.replay_penalty_cycles,
            silent_risk_cycles: self.silent_risk_cycles,
            recovery_frequency_mhz,
            activity: self.activity.summary(),
        });
    }
}

/// Replays `trace` under `policy`, realizing every requested period through
/// `generator`, and checks each cycle against the actual dynamic delays of
/// `model`. This drives the same accumulation as [`PolicyObserver`], so a
/// materialized trace and a streaming run produce identical outcomes.
///
/// The returned [`RunOutcome::violations`] counts the cycles whose realized
/// period undercut the true dynamic delay; with a LUT built from the
/// analytic worst-case profile this is zero by construction, and with a
/// characterization-derived LUT it measures how representative the
/// characterization workload was.
#[must_use]
pub fn run_with_policy(
    model: &TimingModel,
    trace: &PipelineTrace,
    policy: &dyn ClockPolicy,
    generator: &ClockGenerator,
) -> RunOutcome {
    let mut observer = PolicyObserver::new(model, policy, generator);
    for record in trace.cycles() {
        observer.observe_cycle(record);
    }
    observer.finish(&RunSummary {
        cycles: trace.cycle_count(),
        retired: trace.retired(),
    });
    observer.into_outcome()
}

/// Replays a [`TimingDigest`] under `policy` — the simulate-once /
/// evaluate-many entry point: one digested simulation can be evaluated
/// against any number of (e.g. PVT-varied) timing models without a
/// simulator in the loop. Drives the same accumulation as
/// [`PolicyObserver`] on the live pass, so the outcome — violations,
/// realized periods, effective frequency, activity — is bit-identical to
/// [`run_with_policy`] on the originating execution.
#[must_use]
pub fn replay_digest(
    model: &TimingModel,
    digest: &TimingDigest,
    policy: &dyn ClockPolicy,
    generator: &ClockGenerator,
) -> RunOutcome {
    let mut observer = PolicyObserver::new(model, policy, generator);
    digest.for_each_cycle(|cycle, dc| observer.observe_digest(cycle, dc));
    observer.finish(&digest.summary());
    observer.into_outcome()
}

/// Replays a [`TimingDigest`] under `policy` against **all** `models` in a
/// single digest walk — the corner-batched counterpart of
/// [`replay_digest`]. The per-cycle dither and excitation blend are
/// computed once and broadcast; the per-corner delay folds run through the
/// [`CornerBank`]'s vectorized lanes. Outcome `i` is bit-identical to
/// `replay_digest(&models[i], digest, policy, generator)` (pinned by the
/// banked-replay property tests), at a fraction of the walk cost.
///
/// # Example
///
/// Capture a digest once, then evaluate one policy against several
/// PVT-varied corners in a single walk:
///
/// ```
/// use idca_core::{policy::InstructionBased, replay_digest_banked, ClockGenerator};
/// use idca_isa::asm::Assembler;
/// use idca_pipeline::{DigestObserver, SimConfig, Simulator};
/// use idca_timing::{ProfileKind, TimingModel, VariationModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Assembler::new().assemble(
///     "l.addi r3, r0, 20\nloop: l.addi r3, r3, -1\n l.sfne r3, r0\n l.bf loop\n l.nop 0\n l.nop 1\n",
/// )?;
/// let mut observer = DigestObserver::new();
/// Simulator::new(SimConfig::default()).run_observed(&program, &mut [&mut observer])?;
/// let digest = observer.into_digest();
///
/// let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
/// let variation = VariationModel::default();
/// let corners: Vec<TimingModel> = (0..4u32)
///     .map(|i| variation.apply(&nominal, &variation.sample_corner(7, i)))
///     .collect();
/// let policy = InstructionBased::from_model(&nominal);
///
/// let outcomes = replay_digest_banked(&corners, &digest, &policy, &ClockGenerator::Ideal);
/// assert_eq!(outcomes.len(), corners.len());
/// assert!(outcomes.iter().all(|o| o.cycles == digest.cycles()));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn replay_digest_banked(
    models: &[TimingModel],
    digest: &TimingDigest,
    policy: &dyn ClockPolicy,
    generator: &ClockGenerator,
) -> Vec<RunOutcome> {
    let bank = CornerBank::from_models(models);
    let mut pbank = crate::PolicyBank::new(policy.name(), models.len(), generator);
    let mut evaluator = bank.evaluator();
    let mut activity = ActivityObserver::new();
    digest.for_each_run(|start, len, dc| {
        for cycle in start..start + u64::from(len) {
            // The policy sees only the digest, never the model, so its
            // request is corner-invariant: decide once, broadcast to every
            // lane. It may still depend on the cycle index (the genie
            // oracle dithers), so it is re-derived per cycle; the bank
            // skips its realize-and-derive refill whenever the request
            // repeats.
            pbank.begin_block(policy.digest_period_ps(cycle, dc));
            // The evaluated cycle stays in structure-of-arrays form: the
            // bank folds the contiguous max-delay lanes directly.
            pbank.observe_actuals(evaluator.cycle_lanes(cycle, dc).max_lanes());
            // The activity fold reads only the digest cycle —
            // corner-invariant — so one shared fold replaces the
            // per-corner copies.
            activity.observe_digest(dc);
        }
    });
    let summary = digest.summary();
    pbank.finish(&summary);
    activity.finish(&summary);
    let activity = activity.summary();
    let mut outcomes = pbank.into_outcomes();
    for outcome in &mut outcomes {
        outcome.activity = activity;
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GenieOracle, InstructionBased, StaticClock};
    use crate::DelayLut;
    use idca_isa::asm::Assembler;
    use idca_pipeline::{SimConfig, Simulator};
    use idca_timing::ProfileKind;

    fn trace(src: &str) -> PipelineTrace {
        let program = Assembler::new().assemble(src).unwrap();
        Simulator::new(SimConfig::default())
            .run(&program)
            .unwrap()
            .trace
    }

    fn mixed_trace() -> PipelineTrace {
        trace(
            "        l.addi r1, r0, 0x100
                     l.addi r3, r0, 50
             loop:   l.mul  r5, r3, r3
                     l.sw   0(r1), r5
                     l.lwz  r6, 0(r1)
                     l.add  r4, r4, r6
                     l.xor  r7, r4, r3
                     l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1",
        )
    }

    #[test]
    fn static_clock_matches_sta_frequency() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let outcome = run_with_policy(
            &model,
            &mixed_trace(),
            &StaticClock::of_model(&model),
            &ClockGenerator::Ideal,
        );
        assert!((outcome.effective_frequency_mhz - 493.6).abs() < 1.0);
        assert_eq!(outcome.violations, 0);
        assert_eq!(outcome.min_period_ps, outcome.max_period_ps);
    }

    #[test]
    fn instruction_based_is_faster_without_violations() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_trace();
        let baseline = run_with_policy(
            &model,
            &t,
            &StaticClock::of_model(&model),
            &ClockGenerator::Ideal,
        );
        let dynamic = run_with_policy(
            &model,
            &t,
            &InstructionBased::from_model(&model),
            &ClockGenerator::Ideal,
        );
        assert_eq!(dynamic.violations, 0);
        let speedup = dynamic.speedup_over(&baseline);
        assert!(speedup > 1.15, "speedup {speedup}");
        assert!(dynamic.mips > baseline.mips);
    }

    #[test]
    fn genie_oracle_bounds_the_lut_policy() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_trace();
        let lut = run_with_policy(
            &model,
            &t,
            &InstructionBased::from_model(&model),
            &ClockGenerator::Ideal,
        );
        let genie = run_with_policy(
            &model,
            &t,
            &GenieOracle::new(model.clone()),
            &ClockGenerator::Ideal,
        );
        assert!(genie.effective_frequency_mhz >= lut.effective_frequency_mhz);
        assert_eq!(genie.violations, 0);
    }

    #[test]
    fn quantized_generator_reduces_but_preserves_gain() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_trace();
        let policy = InstructionBased::from_model(&model);
        let ideal = run_with_policy(&model, &t, &policy, &ClockGenerator::Ideal);
        let quantized = run_with_policy(&model, &t, &policy, &ClockGenerator::quantized_50ps());
        assert!(quantized.effective_frequency_mhz <= ideal.effective_frequency_mhz);
        assert_eq!(quantized.violations, 0);
        let baseline = run_with_policy(
            &model,
            &t,
            &StaticClock::of_model(&model),
            &ClockGenerator::Ideal,
        );
        assert!(quantized.speedup_over(&baseline) > 1.1);
    }

    #[test]
    fn undersized_static_clock_is_flagged_as_violating() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_trace();
        // Clock the core at half the static period: plenty of violations.
        let reckless = StaticClock::new(model.static_period_ps() / 2.0);
        let outcome = run_with_policy(&model, &t, &reckless, &ClockGenerator::Ideal);
        assert!(outcome.violations > 0);
    }

    #[test]
    fn characterized_lut_replayed_on_same_workload_has_no_violations() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let t = mixed_trace();
        let dta = idca_timing::dta::DynamicTimingAnalysis::run(&model, &t);
        let lut = DelayLut::from_dta(&dta, 1);
        let outcome = run_with_policy(
            &model,
            &t,
            &InstructionBased::new(lut),
            &ClockGenerator::Ideal,
        );
        assert_eq!(outcome.violations, 0);
    }

    #[test]
    fn banked_replay_matches_per_corner_replay() {
        use idca_timing::VariationModel;
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let vm = VariationModel::default();
        let models: Vec<TimingModel> = (0..5)
            .map(|i| vm.apply(&nominal, &vm.sample_corner(0xBA2C, i)))
            .collect();
        let digest = idca_pipeline::TimingDigest::from_trace(&mixed_trace());
        let policy = InstructionBased::from_model(&nominal);
        let banked = replay_digest_banked(&models, &digest, &policy, &ClockGenerator::Ideal);
        assert_eq!(banked.len(), models.len());
        for (model, outcome) in models.iter().zip(&banked) {
            let scalar = replay_digest(model, &digest, &policy, &ClockGenerator::Ideal);
            assert_eq!(*outcome, scalar);
        }
        // An empty bank yields no outcomes but also no panic.
        assert!(replay_digest_banked(&[], &digest, &policy, &ClockGenerator::Ideal).is_empty());
    }

    #[test]
    fn empty_trace_produces_neutral_outcome() {
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let empty = PipelineTrace::from_parts(vec![], 0);
        let outcome = run_with_policy(
            &model,
            &empty,
            &StaticClock::of_model(&model),
            &ClockGenerator::Ideal,
        );
        assert_eq!(outcome.cycles, 0);
        assert_eq!(outcome.effective_frequency_mhz, 0.0);
        assert_eq!(outcome.violations, 0);
    }
}
