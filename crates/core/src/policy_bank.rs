//! Corner-batched accumulation for table-driven clock policies.
//!
//! [`PolicyBank`] is the policy-side counterpart of
//! [`idca_timing::CornerBank`] and [`crate::AdaptiveBank`]: it packs the
//! per-corner accumulator state of one [`PolicyObserver`](crate::PolicyObserver)
//! — realized-time, violation, fault-recovery and min/max folds — into
//! [`LANE_WIDTH`]-padded structure-of-arrays lanes, so a digest replay
//! updates all `M` corners of one policy in contiguous loops instead of
//! `M` scalar `observe_timing_prepared_phased` calls per cycle.
//!
//! The bank exploits a structural property of the table-driven policies
//! (static / instruction-based / execute-only): their requested period
//! depends only on the digest classes (or on nothing at all), never on the
//! cycle index, and — because every corner deploys the same guarded LUT —
//! not on the corner either. [`PolicyBank::begin_block`] takes that
//! request once per digest cycle and derives the realized period, the
//! violation threshold and the fault detection limit only when the request
//! differs from the previous cycle's (a *block* is a stretch of
//! consecutive cycles repeating one request);
//! [`PolicyBank::observe_actuals`] then reduces the cycle to a
//! compare-and-count over the lanes.
//!
//! A cycle a delay bound has proved violation-free on every corner moves
//! nothing corner-specific but the realized-time sums, so
//! [`PolicyBank::observe_proven`] accepts it in O(1): while the bank has
//! only seen corner-invariant blocks, the realized-time sum and the min/max
//! periods are the same on every lane and are kept as one scalar fold
//! (broadcast by [`PolicyBank::finish`]); once a per-corner block arrives,
//! the bank counts the cycles that share the current per-lane realized
//! periods and adds them to the lanes, in cycle order, only when those
//! periods change or the walk ends. The exact kernel feeds the same folds,
//! so proven and exact cycles interleave freely.
//!
//! Every fold replicates [`PolicyObserver`](crate::PolicyObserver)'s
//! arithmetic operation-for-operation (same order, same constants), so
//! [`PolicyBank::into_outcomes`] is bit-identical to running `M`
//! independent scalar observers — pinned by the property tests in
//! `tests/banked_replay.rs` and `tests/fault_replay.rs`.

use crate::sim::RunOutcome;
use crate::ClockGenerator;
use idca_pipeline::{CycleObserver, RunSummary};
use idca_timing::{ActivityObserver, FaultPlan, Ps, LANE_WIDTH};

/// Which kind of block the bank is in (the request cache key).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Block {
    /// No block since creation, reset or a fault-plan change.
    None,
    /// A corner-invariant block at this request.
    Uniform(Ps),
    /// A per-corner block (its requests are in `last_requests`).
    PerCorner,
}

/// SoA-packed per-corner accumulators of one clock policy evaluated
/// against `M` PVT corners — see the [module docs](self).
///
/// # Protocol
///
/// For each digest cycle: one call to [`PolicyBank::begin_block`]
/// (corner-invariant request) or [`PolicyBank::begin_block_per_corner`]
/// (per-corner requests, e.g. the per-corner static period), then either
/// one [`PolicyBank::observe_actuals`] with the lane-packed actual delays or —
/// for a cycle a delay bound proved violation-free on every corner — one
/// [`PolicyBank::observe_proven`]. After the walk, [`PolicyBank::finish`]
/// with the run summary and [`PolicyBank::into_outcomes`] to take the
/// per-corner [`RunOutcome`]s.
#[derive(Debug, Clone)]
pub struct PolicyBank<'a> {
    policy_name: String,
    generator: &'a ClockGenerator,
    faults: Option<FaultPlan>,
    corners: usize,
    padded: usize,
    // Per-lane accumulators, `padded` long; the padding lanes accumulate
    // against zeroed requests/actuals and are never read back. The
    // realized-time and min/max lanes are only live in per-corner mode
    // (see `per_corner`).
    total_time_ps: Vec<f64>,
    penalty_time_ps: Vec<f64>,
    min_period_ps: Vec<Ps>,
    max_period_ps: Vec<Ps>,
    violations: Vec<u64>,
    entry_violations: Vec<u64>,
    recovered_cycles: Vec<u64>,
    replay_penalty_cycles: Vec<u64>,
    silent_risk_cycles: Vec<u64>,
    // Block-hoisted per-lane values: the generator-realized period, the
    // violation threshold (`realized + 1e-9`), the fault detection limit
    // (`realized * (1 + detect_window)`) and the per-event penalty time
    // (`realized * replay_penalty`). `lanes_current` says whether they hold
    // the current block: a corner-invariant block fills them only when an
    // exact cycle needs them, so proven cycles never touch the lanes.
    realized: Vec<Ps>,
    threshold: Vec<Ps>,
    detect_limit: Vec<Ps>,
    penalty_step: Vec<f64>,
    lanes_current: bool,
    // The current block, so a repeated request (the common case: the
    // table-driven policies emit a handful of distinct periods) skips the
    // realize-and-derive refill; per-corner requests are kept in
    // `last_requests`.
    block: Block,
    last_requests: Vec<Ps>,
    // The current corner-invariant block's realized period.
    uniform_realized: Ps,
    // Whether a per-corner block arrived since creation or reset. Until
    // then every lane's realized-time sum and min/max periods are the same,
    // kept once in the scalar folds below; afterwards they live in the
    // lanes, with `pending_cycles` cycles at the current realized lanes not
    // yet added to `total_time_ps`.
    per_corner: bool,
    uniform_total_ps: f64,
    uniform_min_ps: Ps,
    uniform_max_ps: Ps,
    pending_cycles: u64,
    outcomes: Option<Vec<RunOutcome>>,
}

impl<'a> PolicyBank<'a> {
    /// Creates a bank accumulating `corners` lanes for the policy named
    /// `policy_name` (the name lands verbatim in [`RunOutcome::policy`]),
    /// realizing every request through `generator`.
    #[must_use]
    pub fn new(
        policy_name: impl Into<String>,
        corners: usize,
        generator: &'a ClockGenerator,
    ) -> Self {
        let padded = corners.next_multiple_of(LANE_WIDTH);
        PolicyBank {
            policy_name: policy_name.into(),
            generator,
            faults: None,
            corners,
            padded,
            total_time_ps: vec![0.0; padded],
            penalty_time_ps: vec![0.0; padded],
            min_period_ps: vec![Ps::INFINITY; padded],
            max_period_ps: vec![0.0; padded],
            violations: vec![0; padded],
            entry_violations: vec![0; padded],
            recovered_cycles: vec![0; padded],
            replay_penalty_cycles: vec![0; padded],
            silent_risk_cycles: vec![0; padded],
            realized: vec![0.0; padded],
            threshold: vec![0.0; padded],
            detect_limit: vec![0.0; padded],
            penalty_step: vec![0.0; padded],
            lanes_current: false,
            block: Block::None,
            last_requests: vec![0.0; padded],
            uniform_realized: 0.0,
            per_corner: false,
            uniform_total_ps: 0.0,
            uniform_min_ps: Ps::INFINITY,
            uniform_max_ps: 0.0,
            pending_cycles: 0,
            outcomes: None,
        }
    }

    /// Attaches a [`FaultPlan`]: violations are classified through the
    /// plan's recovery model exactly as in
    /// [`PolicyObserver::with_faults`](crate::PolicyObserver::with_faults).
    /// The caller is expected to apply [`FaultPlan::faulted`] to the cycle
    /// timings before [`PolicyBank::observe_actuals`] (the prepared-entry
    /// convention of the banked sweep).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Replaces the fault plan (or clears it) without reallocating lanes —
    /// the worker-scratch path reuses one bank across sweep jobs.
    pub fn set_faults(&mut self, faults: Option<FaultPlan>) {
        self.faults = faults;
        // The hoisted detect/penalty lanes depend on the spec: force a
        // refill on the next block.
        self.block = Block::None;
        self.lanes_current = false;
    }

    /// Number of (unpadded) corners the bank accumulates.
    #[must_use]
    pub fn corners(&self) -> usize {
        self.corners
    }

    /// Lane-buffer length: [`PolicyBank::corners`] rounded up to the next
    /// [`LANE_WIDTH`] multiple — the expected length of the `actuals`
    /// slice fed to [`PolicyBank::observe_actuals`].
    #[must_use]
    pub fn padded_lanes(&self) -> usize {
        self.padded
    }

    /// Clears all accumulator state so the bank can replay another digest
    /// (same corners, same generator) without reallocating — the
    /// worker-scratch counterpart of constructing a fresh bank.
    pub fn reset(&mut self) {
        self.total_time_ps.fill(0.0);
        self.penalty_time_ps.fill(0.0);
        self.min_period_ps.fill(Ps::INFINITY);
        self.max_period_ps.fill(0.0);
        self.violations.fill(0);
        self.entry_violations.fill(0);
        self.recovered_cycles.fill(0);
        self.replay_penalty_cycles.fill(0);
        self.silent_risk_cycles.fill(0);
        self.lanes_current = false;
        self.block = Block::None;
        self.uniform_realized = 0.0;
        self.per_corner = false;
        self.uniform_total_ps = 0.0;
        self.uniform_min_ps = Ps::INFINITY;
        self.uniform_max_ps = 0.0;
        self.pending_cycles = 0;
        self.outcomes = None;
    }

    /// Starts a cycle whose request is corner-invariant (the table-driven
    /// LUT policies decide from digest classes alone): unless the request
    /// repeats the previous one, realizes it and folds the min/max periods.
    /// O(1) while the bank has seen no per-corner block; the hoisted
    /// threshold/detect/penalty lanes are filled by the first exact cycle
    /// that needs them.
    #[inline]
    pub fn begin_block(&mut self, requested: Ps) {
        // Min/max folding is idempotent, so folding only when the realized
        // period actually changes (a request-cache miss) is bit-identical
        // to the scalar observer's per-cycle fold.
        if self.block == Block::Uniform(requested) {
            return;
        }
        let realized = self.generator.realize(requested);
        self.block = Block::Uniform(requested);
        self.uniform_realized = realized;
        if self.per_corner {
            self.flush_pending();
            self.fill_lanes_uniform();
            self.fold_min_max();
        } else {
            self.uniform_min_ps = self.uniform_min_ps.min(realized);
            self.uniform_max_ps = self.uniform_max_ps.max(realized);
            self.lanes_current = false;
        }
    }

    /// [`PolicyBank::begin_block`] with one request per corner (the static
    /// baseline clocks each corner at its own STA period). `requests` must
    /// be [`PolicyBank::corners`] long. The bank keeps its per-lane
    /// realized-time and min/max folds in the lanes from here on.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.corners()`.
    pub fn begin_block_per_corner(&mut self, requests: &[Ps]) {
        assert_eq!(requests.len(), self.corners, "one request per corner");
        if self.block == Block::PerCorner && self.last_requests[..self.corners] == *requests {
            return;
        }
        if self.per_corner {
            self.flush_pending();
        } else {
            // Every lane holds the scalar folds so far: move them into the
            // lanes.
            self.per_corner = true;
            self.total_time_ps.fill(self.uniform_total_ps);
            self.min_period_ps.fill(self.uniform_min_ps);
            self.max_period_ps.fill(self.uniform_max_ps);
        }
        for lane in 0..self.padded {
            let requested = requests.get(lane).copied().unwrap_or(0.0);
            let realized = self.generator.realize(requested);
            self.set_lane(lane, requested, realized);
        }
        self.block = Block::PerCorner;
        self.lanes_current = true;
        self.fold_min_max();
    }

    /// Broadcasts the current corner-invariant block's realized period
    /// across every lane.
    fn fill_lanes_uniform(&mut self) {
        let realized = self.uniform_realized;
        self.realized.fill(realized);
        self.threshold.fill(realized + 1e-9);
        if let Some(plan) = &self.faults {
            let spec = plan.spec();
            self.detect_limit
                .fill(realized * (1.0 + spec.detect_window));
            self.penalty_step
                .fill(realized * f64::from(spec.replay_penalty));
        }
        self.lanes_current = true;
    }

    /// Writes one lane's hoisted block values.
    fn set_lane(&mut self, lane: usize, requested: Ps, realized: Ps) {
        self.last_requests[lane] = requested;
        self.realized[lane] = realized;
        self.threshold[lane] = realized + 1e-9;
        if let Some(plan) = &self.faults {
            let spec = plan.spec();
            self.detect_limit[lane] = realized * (1.0 + spec.detect_window);
            self.penalty_step[lane] = realized * f64::from(spec.replay_penalty);
        }
    }

    /// Folds the current block's realized period into the min/max lanes.
    /// The realized period is constant within a block, so folding once per
    /// block is bit-identical to the scalar observer's per-cycle fold
    /// (min/max are idempotent).
    #[inline]
    fn fold_min_max(&mut self) {
        let lanes = self
            .min_period_ps
            .iter_mut()
            .zip(&mut self.max_period_ps)
            .zip(&self.realized);
        for ((min, max), &realized) in lanes {
            *min = min.min(realized);
            *max = max.max(realized);
        }
    }

    /// Adds one cycle's realized period to the realized-time folds: the
    /// scalar sum while every lane shares it, else a deferred lane add.
    #[inline]
    fn fold_realized_time(&mut self) {
        if self.per_corner {
            self.pending_cycles += 1;
        } else {
            self.uniform_total_ps += self.uniform_realized;
        }
    }

    /// Adds the pending cycles' realized periods to the realized-time
    /// lanes, one cycle at a time: every pending cycle ran at the current
    /// realized lanes, so each lane's sum takes exactly the in-order adds
    /// the scalar observer makes.
    fn flush_pending(&mut self) {
        for _ in 0..std::mem::take(&mut self.pending_cycles) {
            for (total, &realized) in self.total_time_ps.iter_mut().zip(&self.realized) {
                *total += realized;
            }
        }
    }

    /// Accumulates one cycle: compares each lane's hoisted threshold
    /// against that lane's actual delay and advances the violation,
    /// recovery and realized-time accumulators. `actuals` must be
    /// [`PolicyBank::padded_lanes`] long (lane `i` = corner `i`'s
    /// [`CycleTiming::max_delay_ps`](idca_timing::CycleTiming::max_delay_ps);
    /// padding lanes zero).
    ///
    /// # Panics
    ///
    /// Panics if `actuals.len() != self.padded_lanes()`.
    ///
    /// `inline(never)` keeps this kernel out of the sweep's replay loop:
    /// merged with the evaluator and the other banks it spills registers
    /// and roughly doubles the replay time (see `AdaptiveBank::
    /// observe_cycle_lanes` for the same finding).
    #[inline(never)]
    pub fn observe_actuals(&mut self, actuals: &[Ps]) {
        let lanes = actuals.len();
        assert_eq!(lanes, self.padded, "lane-packed actual delays");
        if !self.lanes_current {
            self.fill_lanes_uniform();
        }
        self.fold_realized_time();
        match &self.faults {
            Some(plan) => {
                let penalty = u64::from(plan.spec().replay_penalty);
                let threshold = &self.threshold[..lanes];
                let detect_limit = &self.detect_limit[..lanes];
                let penalty_step = &self.penalty_step[..lanes];
                let violations = &mut self.violations[..lanes];
                let recovered = &mut self.recovered_cycles[..lanes];
                let replayed = &mut self.replay_penalty_cycles[..lanes];
                let silent = &mut self.silent_risk_cycles[..lanes];
                let penalty_time = &mut self.penalty_time_ps[..lanes];
                for lane in 0..lanes {
                    let actual = actuals[lane];
                    let violated = threshold[lane] < actual;
                    let detected = violated && actual <= detect_limit[lane];
                    violations[lane] += u64::from(violated);
                    recovered[lane] += u64::from(detected);
                    replayed[lane] += u64::from(detected) * penalty;
                    silent[lane] += u64::from(violated && !detected);
                    // `x + 0.0 == x` bit-exactly for the non-negative
                    // accumulator, so the select keeps the loop branch-free
                    // while matching the scalar observer's guarded add.
                    penalty_time[lane] += if detected { penalty_step[lane] } else { 0.0 };
                }
            }
            None => {
                let folds = self.violations.iter_mut().zip(&self.threshold).zip(actuals);
                for ((violations, &threshold), &actual) in folds {
                    *violations += u64::from(threshold < actual);
                }
            }
        }
    }

    /// [`PolicyBank::observe_actuals`] for an exception-entry cycle: the
    /// same accumulation, plus each lane's violation (recomputed from the
    /// hoisted threshold, so the count is bit-identical to the main kernel's
    /// compare) is tallied into the entry-violation lanes. The caller is
    /// expected to have applied the entry surge to `actuals` already — the
    /// prepared-entry convention, matching the fault factors.
    pub fn observe_actuals_entry(&mut self, actuals: &[Ps]) {
        self.observe_actuals(actuals);
        let folds = self
            .entry_violations
            .iter_mut()
            .zip(&self.threshold)
            .zip(actuals);
        for ((entry, &threshold), &actual) in folds {
            *entry += u64::from(threshold < actual);
        }
    }

    /// Accumulates one cycle of the current block that a delay bound proved
    /// violation-free on every corner — bit-identical to
    /// [`PolicyBank::observe_actuals`] with actuals at or below every
    /// lane's threshold: no violation, recovery or penalty lane moves, only
    /// the realized-time sums do. O(1): the sum is the scalar fold or a
    /// deferred lane add (see the [module docs](self)).
    #[inline]
    pub fn observe_proven(&mut self) {
        self.fold_realized_time();
    }

    /// Derives the per-corner [`RunOutcome`]s from the accumulated lanes —
    /// field-for-field the arithmetic of
    /// [`PolicyObserver`](crate::PolicyObserver)'s `finish`. The activity
    /// summary is the empty-finished default (the banked paths fold
    /// activity once, outside the bank); callers that replay activity
    /// assign it onto the outcomes afterwards.
    pub fn finish(&mut self, summary: &RunSummary) {
        if self.per_corner {
            self.flush_pending();
        } else {
            self.total_time_ps.fill(self.uniform_total_ps);
            self.min_period_ps.fill(self.uniform_min_ps);
            self.max_period_ps.fill(self.uniform_max_ps);
        }
        let mut activity = ActivityObserver::new();
        activity.finish(summary);
        let activity = activity.summary();
        let cycles = summary.cycles;
        let outcomes = (0..self.corners)
            .map(|lane| {
                let total_time_ps = self.total_time_ps[lane];
                let avg_period_ps = if cycles == 0 {
                    0.0
                } else {
                    total_time_ps / cycles as f64
                };
                let effective_frequency_mhz = if avg_period_ps > 0.0 {
                    1.0e6 / avg_period_ps
                } else {
                    0.0
                };
                let mips = if total_time_ps > 0.0 {
                    summary.retired as f64 / (total_time_ps * 1e-6)
                } else {
                    0.0
                };
                let recovery_period_ps = if cycles == 0 {
                    0.0
                } else {
                    (total_time_ps + self.penalty_time_ps[lane]) / cycles as f64
                };
                let recovery_frequency_mhz = if recovery_period_ps > 0.0 {
                    1.0e6 / recovery_period_ps
                } else {
                    0.0
                };
                RunOutcome {
                    policy: self.policy_name.clone(),
                    cycles,
                    retired: summary.retired,
                    total_time_ps,
                    avg_period_ps,
                    min_period_ps: if cycles == 0 {
                        0.0
                    } else {
                        self.min_period_ps[lane]
                    },
                    max_period_ps: self.max_period_ps[lane],
                    effective_frequency_mhz,
                    mips,
                    violations: self.violations[lane],
                    entry_violations: self.entry_violations[lane],
                    recovered_cycles: self.recovered_cycles[lane],
                    replay_penalty_cycles: self.replay_penalty_cycles[lane],
                    silent_risk_cycles: self.silent_risk_cycles[lane],
                    recovery_frequency_mhz,
                    activity,
                }
            })
            .collect();
        self.outcomes = Some(outcomes);
    }

    /// Consumes the bank and returns one [`RunOutcome`] per corner.
    ///
    /// # Panics
    ///
    /// Panics if [`PolicyBank::finish`] was never called.
    #[must_use]
    pub fn into_outcomes(self) -> Vec<RunOutcome> {
        self.outcomes
            .expect("the digest walk must finish before taking the outcomes")
    }

    /// [`PolicyBank::into_outcomes`] by value without consuming the bank —
    /// the worker-scratch path takes the outcomes and keeps the lane
    /// storage for the next job.
    ///
    /// # Panics
    ///
    /// Panics if [`PolicyBank::finish`] was never called.
    #[must_use]
    pub fn take_outcomes(&mut self) -> Vec<RunOutcome> {
        self.outcomes
            .take()
            .expect("the digest walk must finish before taking the outcomes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticClock;
    use crate::PolicyObserver;
    use idca_pipeline::{SimConfig, Simulator, Stage, TimingDigest};
    use idca_timing::{CornerBank, FaultSpec, ProfileKind, TimingModel, VariationModel};

    fn digest() -> TimingDigest {
        let program = idca_isa::asm::Assembler::new()
            .assemble(
                "        l.addi r1, r0, 0x80
                         l.addi r3, r0, 40
                 loop:   l.mul  r5, r3, r3
                         l.sw   0(r1), r5
                         l.lwz  r6, 0(r1)
                         l.addi r3, r3, -1
                         l.sfne r3, r0
                         l.bf   loop
                         l.nop  0
                         l.nop  1",
            )
            .unwrap();
        let trace = Simulator::new(SimConfig::default())
            .run(&program)
            .unwrap()
            .trace;
        TimingDigest::from_trace(&trace)
    }

    fn corner_models(n: u32) -> Vec<TimingModel> {
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let vm = VariationModel::default();
        (0..n)
            .map(|i| vm.apply(&nominal, &vm.sample_corner(0x9A7E, i)))
            .collect()
    }

    /// Drives a bank and the scalar reference over the same digest and
    /// asserts bit-identical outcomes (modulo the activity fold, which the
    /// scalar reference also skips on the `observe_timing_prepared_phased`
    /// path).
    fn assert_bank_matches_scalar(models: &[TimingModel], faults: Option<FaultPlan>) {
        let digest = digest();
        let generator = ClockGenerator::quantized_50ps();
        let bank = CornerBank::from_models(models);
        // Per-corner static periods: exercises the per-corner block entry.
        let requests: Vec<Ps> = (0..models.len())
            .map(|i| bank.static_period_ps(i))
            .collect();

        let mut pbank = PolicyBank::new("static", models.len(), &generator);
        if let Some(plan) = faults {
            pbank = pbank.with_faults(plan);
        }
        let policies: Vec<StaticClock> = requests.iter().map(|&r| StaticClock::new(r)).collect();
        let mut scalar: Vec<PolicyObserver<'_>> = (models.iter().zip(&policies))
            .map(|(model, policy)| {
                let observer = PolicyObserver::new(model, policy, &generator);
                match &faults {
                    Some(plan) => observer.with_faults(plan),
                    None => observer,
                }
            })
            .collect();
        let mut evaluator = bank.evaluator();
        digest.for_each_cycle(|cycle, dc| {
            pbank.begin_block_per_corner(&requests);
            let lanes = evaluator.cycle_lanes(cycle, dc);
            if let Some(plan) = &faults {
                lanes.apply_fault(plan, cycle);
            }
            pbank.observe_actuals(lanes.max_lanes());
            // The scalar observers take the scalar model's (faulted) timing;
            // the lanes fed to the bank equal it bit for bit, stage by stage
            // and in the max.
            for (corner, (model, observer)) in models.iter().zip(&mut scalar).enumerate() {
                let mut timing = model.digest_cycle_timing(cycle, dc);
                if let Some(plan) = &faults {
                    timing = plan.faulted(cycle, &timing);
                }
                let stages = Stage::ALL.map(|s| lanes.stage_lanes(s)[corner].to_bits());
                assert_eq!(stages, timing.stage_delay_ps.map(f64::to_bits));
                let max = lanes.max_lanes()[corner].to_bits();
                assert_eq!(max, timing.max_delay_ps.to_bits());
                observer.observe_timing_prepared_phased(requests[corner], &timing, false);
            }
        });
        pbank.finish(&digest.summary());
        let banked = pbank.into_outcomes();
        for (corner, (mut observer, banked)) in scalar.into_iter().zip(banked).enumerate() {
            observer.finish(&digest.summary());
            assert_eq!(banked, observer.into_outcome(), "corner {corner}");
        }
    }

    #[test]
    fn bank_matches_scalar_observers_without_faults() {
        assert_bank_matches_scalar(&corner_models(5), None);
    }

    #[test]
    fn bank_matches_scalar_observers_under_faults() {
        let spec = FaultSpec::parse("seed=3,droop-rate=0.4,droop-mag=0.5,spike-rate=0.05,spike-mag=0.9,penalty=5,detect-window=0.3")
            .unwrap();
        assert_bank_matches_scalar(&corner_models(6), Some(FaultPlan::new(&spec)));
    }

    #[test]
    fn proven_walks_are_bit_identical_to_the_lane_kernel() {
        // Proven cycles (actuals far below every request) interleaved in
        // runs of varying length with exact, violating, faulted and entry
        // cycles, under corner-invariant, per-corner and alternating
        // blocks; the oracle is one scalar observer per corner fed every
        // cycle exactly.
        #[derive(Debug, Clone, Copy)]
        enum Blocks {
            Uniform,
            PerCorner,
            Alternating,
        }
        let digest = digest();
        let generator = ClockGenerator::quantized_50ps();
        let model = &corner_models(1)[0];
        let policy = crate::InstructionBased::new(crate::DelayLut::from_model(model));
        let static_requests = [2100.0, 1990.5, 2222.25];
        let spec = FaultSpec::parse("seed=5,penalty=6,detect-window=0.2").unwrap();
        let plan = FaultPlan::new(&spec);
        for faults in [None, Some(&plan)] {
            for blocks in [Blocks::Uniform, Blocks::PerCorner, Blocks::Alternating] {
                let label = format!("{blocks:?} faults={}", faults.is_some());
                let mut bank = PolicyBank::new("instruction-based", 3, &generator);
                if let Some(plan) = faults {
                    bank = bank.with_faults(*plan);
                }
                let mut scalar: Vec<PolicyObserver<'_>> = (0..3)
                    .map(|_| {
                        let observer = PolicyObserver::new(model, &policy, &generator);
                        match faults {
                            Some(plan) => observer.with_faults(plan),
                            None => observer,
                        }
                    })
                    .collect();
                let mut proven = 0;
                let mut actuals = vec![0.0; bank.padded_lanes()];
                digest.for_each_cycle(|cycle, dc| {
                    let uniform = match blocks {
                        Blocks::Uniform => true,
                        Blocks::PerCorner => false,
                        Blocks::Alternating => (cycle / 7) % 2 == 0,
                    };
                    let requests = if uniform {
                        let requested = crate::ClockPolicy::digest_period_ps(&policy, cycle, dc);
                        bank.begin_block(requested);
                        [requested; 3]
                    } else {
                        bank.begin_block_per_corner(&static_requests);
                        static_requests
                    };
                    // Runs of proven cycles of varying length between the
                    // exact ones.
                    let kind = cycle.wrapping_mul(0x9E37_79B9) >> 7 & 7;
                    let entry = kind == 5;
                    for (lane, actual) in actuals.iter_mut().take(3).enumerate() {
                        *actual = match kind {
                            0..=3 => 100.0,
                            // Inside the detection window on some lanes,
                            // beyond it on others.
                            4 | 5 => requests[lane] * (1.05 + 0.1 * lane as f64),
                            6 => requests[lane] * 0.5,
                            _ => requests[lane] * 1.6,
                        };
                    }
                    if kind <= 3 {
                        bank.observe_proven();
                        proven += 1;
                    } else if entry {
                        bank.observe_actuals_entry(&actuals);
                    } else {
                        bank.observe_actuals(&actuals);
                    }
                    for (lane, observer) in scalar.iter_mut().enumerate() {
                        let timing = idca_timing::CycleTiming {
                            stage_delay_ps: [actuals[lane]; Stage::COUNT],
                            max_delay_ps: actuals[lane],
                            limiting_stage: Stage::Execute,
                        };
                        observer.observe_timing_prepared_phased(requests[lane], &timing, entry);
                    }
                });
                assert!(proven > 0 && proven < digest.cycles(), "{label}");
                bank.finish(&digest.summary());
                let banked = bank.into_outcomes();
                assert!(banked.iter().any(|o| o.violations > 0), "{label}");
                assert!(banked.iter().any(|o| o.entry_violations > 0), "{label}");
                for (corner, (mut observer, banked)) in scalar.into_iter().zip(&banked).enumerate()
                {
                    observer.finish(&digest.summary());
                    assert_eq!(*banked, observer.into_outcome(), "{label} corner {corner}");
                }
            }
        }
    }

    #[test]
    fn reset_reproduces_a_fresh_bank() {
        let generator = ClockGenerator::Ideal;
        let digest = digest();
        let mut bank = PolicyBank::new("static", 3, &generator);
        let run = |bank: &mut PolicyBank<'_>| {
            let actuals = vec![1500.0; bank.padded_lanes()];
            digest.for_each_cycle(|_, _| {
                bank.begin_block(1800.0);
                bank.observe_actuals(&actuals);
            });
            bank.finish(&digest.summary());
            bank.take_outcomes()
        };
        let first = run(&mut bank);
        bank.reset();
        let second = run(&mut bank);
        assert_eq!(first, second);
    }

    #[test]
    fn empty_digest_yields_neutral_outcomes() {
        let generator = ClockGenerator::Ideal;
        let mut bank = PolicyBank::new("static", 2, &generator);
        bank.finish(&RunSummary {
            cycles: 0,
            retired: 0,
        });
        let outcomes = bank.into_outcomes();
        assert_eq!(outcomes.len(), 2);
        for o in outcomes {
            assert_eq!(o.cycles, 0);
            assert_eq!(o.min_period_ps, 0.0);
            assert_eq!(o.effective_frequency_mhz, 0.0);
        }
    }
}
