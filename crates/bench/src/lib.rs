//! # idca-bench — experiment harness
//!
//! Shared plumbing for regenerating every table and figure of the paper's
//! evaluation section. The Criterion benches under `benches/` and the
//! `repro` binary both go through the functions in this crate, so the
//! numbers they print are produced by exactly one code path.
//!
//! | Experiment | Paper | Function |
//! |---|---|---|
//! | Fig. 5 | histogram / mean of per-cycle dynamic delay | [`Experiments::fig5`] |
//! | Fig. 6 | limiting-stage shares | [`Experiments::fig6`] |
//! | Table I | critical-range max-delay factors | [`Experiments::table1`] |
//! | Table II | per-instruction worst-case delays | [`Experiments::table2`] |
//! | Fig. 7 | per-stage delay histograms of `l.mul` | [`Experiments::fig7`] |
//! | Fig. 8 | per-benchmark effective frequency | [`Experiments::fig8`] |
//! | §IV-B | voltage scaling / energy efficiency | [`Experiments::power_scaling`] |
//! | ablations | CG quantization, execute-only, profile, LUT source | [`Experiments::ablations`] |
//! | PVT outlook | Monte Carlo seeds × corners sweep | [`sweep::pvt_sweep`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use idca_core::{
    eval::{self, SuiteSummary},
    policy::{ExecuteOnly, GenieOracle, InstructionBased, StaticClock},
    vfs::{self, VoltageScalingResult},
    ClockGenerator, ClockPolicy, DelayLut,
};
use idca_isa::TimingClass;
use idca_pipeline::{DigestObserver, RunSummary, SimConfig, Simulator, Stage, TimingDigest};
use idca_timing::{
    dta::DynamicTimingAnalysis, CellLibrary, Histogram, PowerModel, ProfileKind, TimingModel,
    TimingProfile,
};
use idca_workloads::{benchmark_suite, suite, suite::characterization_workload, Workload};

pub mod serve;
pub mod shard;
pub mod sweep;

pub use idca_pipeline::{InterruptSpec, InterruptSpecError};
pub use idca_timing::{FaultPlan, FaultSpec, FaultSpecError};
pub use serve::{Corpus, CorpusError, DigestCacheStats, QueryError, ServeSession};
pub use shard::{merge_reports, MergeError, ReportFormatError, ShardSpecError, SweepShard};
pub use sweep::{
    pvt_sweep, pvt_sweep_seed_range_timed_with_cache, SweepConfig, SweepError, SweepReport,
    SweepTiming,
};

/// Seed used for the characterization workload throughout the harness.
pub const CHARACTERIZATION_SEED: u64 = 0xC0DE;

/// Paper reference values used in the "paper vs measured" columns.
pub mod paper {
    /// Static timing limit at 0.70 V (ps).
    pub const STATIC_PERIOD_PS: f64 = 2026.0;
    /// Mean per-cycle dynamic delay of Fig. 5 (ps).
    pub const FIG5_MEAN_PS: f64 = 1334.0;
    /// Genie-aided speedup of §IV-A (percent).
    pub const GENIE_SPEEDUP_PERCENT: f64 = 50.0;
    /// Execute-stage limiting share of Fig. 6 (percent).
    pub const FIG6_EXECUTE_PERCENT: f64 = 93.0;
    /// Address-stage limiting share of Fig. 6 (percent).
    pub const FIG6_ADDRESS_PERCENT: f64 = 7.0;
    /// Average effective frequency under conventional clocking (MHz).
    pub const FIG8_BASELINE_MHZ: f64 = 494.0;
    /// Average effective frequency with dynamic clock adjustment (MHz).
    pub const FIG8_DYNAMIC_MHZ: f64 = 680.0;
    /// Average speedup of Fig. 8 (percent).
    pub const FIG8_SPEEDUP_PERCENT: f64 = 38.0;
    /// Conventional-clocking energy efficiency (µW/MHz).
    pub const POWER_BASELINE_UW_PER_MHZ: f64 = 13.7;
    /// Voltage-scaled energy efficiency (µW/MHz).
    pub const POWER_SCALED_UW_PER_MHZ: f64 = 11.0;
    /// Supply-voltage reduction (mV).
    pub const POWER_VOLTAGE_REDUCTION_MV: f64 = 70.0;
    /// Energy-efficiency improvement (percent).
    pub const POWER_GAIN_PERCENT: f64 = 24.0;

    /// Table I rows published in the paper: (class label, factor).
    pub const TABLE1: [(&str, f64); 7] = [
        ("l.add(i)", 0.92),
        ("l.bf", 0.78),
        ("l.j", 0.74),
        ("l.lwz", 0.85),
        ("l.mul", 1.10),
        ("l.nop", 0.78),
        ("l.sw", 0.85),
    ];

    /// Table II rows published in the paper: (class label, delay ps, stage).
    pub const TABLE2: [(&str, f64, &str); 8] = [
        ("l.add(i)", 1467.0, "EX"),
        ("l.and(i)", 1482.0, "EX"),
        ("l.bf", 1470.0, "EX"),
        ("l.j", 1172.0, "ADR"),
        ("l.lwz", 1391.0, "EX"),
        ("l.mul", 1899.0, "EX"),
        ("l.sll(i)", 1270.0, "EX"),
        ("l.xor", 1514.0, "EX"),
    ];
}

/// Result of the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Mean of the per-cycle maximum dynamic delay (ps).
    pub mean_delay_ps: f64,
    /// Static timing limit (ps).
    pub static_period_ps: f64,
    /// Genie-aided speedup in percent.
    pub genie_speedup_percent: f64,
    /// The delay histogram (25 ps bins).
    pub histogram: Histogram,
}

/// One row of the Fig. 6 experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Pipeline stage.
    pub stage: Stage,
    /// Fraction of cycles in which this stage owned the limiting path (%).
    pub percent: f64,
}

/// One row of the Table I experiment.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Instruction class.
    pub class: TimingClass,
    /// Measured `optimized / conventional` worst-case delay factor.
    pub factor: f64,
    /// Paper value, when the class appears in the paper's excerpt.
    pub paper: Option<f64>,
}

/// One row of the Fig. 7 experiment (per-stage `l.mul` delay statistics).
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Pipeline stage.
    pub stage: Stage,
    /// Number of cycles `l.mul` occupied the stage.
    pub observations: u64,
    /// Mean dynamic delay (ps).
    pub mean_ps: f64,
    /// Maximum dynamic delay (ps).
    pub max_ps: f64,
}

/// One row of the Fig. 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Effective frequency under conventional clocking (MHz).
    pub static_mhz: f64,
    /// Effective frequency with instruction-based adjustment (MHz).
    pub dynamic_mhz: f64,
    /// Speedup in percent.
    pub speedup_percent: f64,
}

/// Ablation study results (design-choice sensitivity).
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Mean suite speedup (%) with the ideal clock generator.
    pub ideal_cg_percent: f64,
    /// Mean suite speedup (%) with a 50 ps-quantized clock generator.
    pub quantized_cg_percent: f64,
    /// Mean suite speedup (%) with an 8-level discrete clock generator.
    pub discrete_cg_percent: f64,
    /// Mean suite speedup (%) when only the execute stage is monitored.
    pub execute_only_percent: f64,
    /// Mean suite speedup (%) on the conventional (timing-wall) profile.
    pub conventional_profile_percent: f64,
    /// Mean suite speedup (%) with the genie-aided oracle.
    pub genie_percent: f64,
    /// Violations across the suite when the LUT is built from a short
    /// (truncated) characterization instead of the full one.
    pub truncated_lut_violations: u64,
}

/// Pre-computed state shared by all experiments: the timing models, the
/// characterization run totals, its DTA, the extracted delay LUT and the
/// pre-assembled benchmark suite.
pub struct Experiments {
    /// Timing model of the critical-range-optimized core at 0.70 V.
    pub model: TimingModel,
    /// Timing model of the conventional (timing-wall) core at 0.70 V.
    pub conventional: TimingModel,
    /// The characterized cell library.
    pub library: CellLibrary,
    /// The activity-based power model.
    pub power: PowerModel,
    /// Run totals (cycles, retired instructions) of the characterization
    /// workload. The per-cycle records stream straight into the DTA; no
    /// trace is materialized.
    pub characterization: RunSummary,
    /// DTA of the characterization run on the optimized core.
    pub dta: DynamicTimingAnalysis,
    /// Timing digest of the characterization run, captured on the same
    /// streaming pass as the DTA. Re-characterizing against a different
    /// model (profile, voltage, corner) replays this digest through
    /// [`DynamicTimingAnalysis::replay_digest`] instead of re-simulating.
    pub characterization_digest: TimingDigest,
    /// Timing digests of the Fig. 8 suite, one per [`Experiments::suite`]
    /// entry: every benchmark is simulated exactly once, here; all policy
    /// evaluations (Fig. 8, every ablation) are digest replays.
    pub suite_digests: Vec<TimingDigest>,
    /// Raw delay LUT extracted from the characterization (min. 8
    /// observations) — this is what Table II reports.
    pub raw_lut: DelayLut,
    /// The LUT actually deployed by the clock-adjustment policies: the raw
    /// characterization entries plus a 1.5 % guardband covering data
    /// conditions the characterization stimuli did not produce.
    pub lut: DelayLut,
    /// The assembled Fig. 8 benchmark suite (assembled once, in parallel).
    pub suite: Vec<Workload>,
}

impl Experiments {
    /// Runs the characterization flow once and prepares everything the
    /// individual experiments need. Every workload — the characterization
    /// stimulus and each suite benchmark — is simulated exactly once, here:
    /// the characterization pass streams into the dynamic timing analysis
    /// with a [`DigestObserver`] riding along, and each benchmark's digest
    /// is captured in parallel, so the experiments themselves (Fig. 8 and
    /// every ablation) are pure digest replays. No `Vec<CycleRecord>` is
    /// allocated anywhere in this function.
    #[must_use]
    pub fn prepare() -> Self {
        let library = CellLibrary::fdsoi28();
        let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let conventional = TimingModel::at_nominal(ProfileKind::Conventional);
        let power = PowerModel::new(library.clone());
        let workload = characterization_workload(CHARACTERIZATION_SEED);
        let mut dta_observer = DynamicTimingAnalysis::streaming(&model);
        let mut digest_observer = DigestObserver::new();
        let characterization = Simulator::new(SimConfig::default())
            .run_observed(
                &workload.program,
                &mut [&mut dta_observer, &mut digest_observer],
            )
            .expect("characterization workload runs")
            .summary;
        let dta = dta_observer.into_analysis();
        let characterization_digest = digest_observer.into_digest();
        let raw_lut = DelayLut::from_dta(&dta, 8);
        let lut = raw_lut.with_guardband(0.015);
        let suite = benchmark_suite();
        let simulator = Simulator::new(SimConfig::default());
        let suite_digests = suite::par_map(&suite, |workload| {
            let mut observer = DigestObserver::new();
            simulator
                .run_observed(&workload.program, &mut [&mut observer])
                .expect("benchmark runs");
            observer.into_digest()
        });
        Experiments {
            model,
            conventional,
            library,
            power,
            characterization,
            dta,
            characterization_digest,
            suite_digests,
            raw_lut,
            lut,
            suite,
        }
    }

    /// Fig. 5: per-cycle dynamic-delay distribution and the genie bound.
    #[must_use]
    pub fn fig5(&self) -> Fig5 {
        Fig5 {
            mean_delay_ps: self.dta.mean_cycle_delay_ps(),
            static_period_ps: self.dta.static_period_ps(),
            genie_speedup_percent: (self.dta.genie_speedup() - 1.0) * 100.0,
            histogram: self.dta.cycle_histogram().clone(),
        }
    }

    /// Fig. 6: share of cycles in which each stage owns the limiting path.
    #[must_use]
    pub fn fig6(&self) -> Vec<Fig6Row> {
        Stage::ALL
            .iter()
            .map(|&stage| Fig6Row {
                stage,
                percent: self.dta.limiting_fraction(stage) * 100.0,
            })
            .collect()
    }

    /// Table I: optimized-vs-conventional worst-case delay factors.
    #[must_use]
    pub fn table1(&self) -> Vec<Table1Row> {
        TimingClass::INSTRUCTION_CLASSES
            .iter()
            .map(|&class| {
                let factor = TimingProfile::max_delay_factor(class);
                let paper = paper::TABLE1
                    .iter()
                    .find(|(label, _)| *label == class.label())
                    .map(|(_, f)| *f);
                Table1Row {
                    class,
                    factor,
                    paper,
                }
            })
            .collect()
    }

    /// Table II: per-instruction worst-case dynamic delays from the
    /// characterization LUT (raw observed values, no guardband).
    #[must_use]
    pub fn table2(&self) -> Vec<idca_core::Table2Row> {
        self.raw_lut.table2_rows()
    }

    /// Fig. 7: per-stage dynamic-delay statistics of the `l.mul` class.
    #[must_use]
    pub fn fig7(&self) -> Vec<Fig7Row> {
        Stage::ALL
            .iter()
            .map(|&stage| {
                let hist = self.dta.stage_histogram(stage, TimingClass::Mul);
                Fig7Row {
                    stage,
                    observations: hist.count(),
                    mean_ps: hist.mean(),
                    max_ps: if hist.count() == 0 {
                        0.0
                    } else {
                        hist.observed_max()
                    },
                }
            })
            .collect()
    }

    /// Fig. 8: per-benchmark effective clock frequency under conventional
    /// clocking and under instruction-based dynamic clock adjustment.
    #[must_use]
    pub fn fig8(&self) -> (Vec<Fig8Row>, SuiteSummary) {
        self.fig8_with(
            &InstructionBased::new(self.lut.clone()),
            &ClockGenerator::Ideal,
        )
    }

    /// Fig. 8 with an arbitrary policy / clock generator (used by ablations).
    ///
    /// No benchmark is re-simulated: each policy pair replays the digests
    /// captured once in [`Experiments::prepare`] (bit-identical to a live
    /// pass), in parallel across workloads.
    #[must_use]
    pub fn fig8_with(
        &self,
        policy: &dyn ClockPolicy,
        generator: &ClockGenerator,
    ) -> (Vec<Fig8Row>, SuiteSummary) {
        self.suite_summary_with(&self.model, policy, generator)
    }

    /// Parallel digest-replay suite evaluation against an arbitrary model.
    /// The digests are model-independent (they capture architecture and
    /// path excitation, not delays), so the same captured suite serves the
    /// optimized profile, the conventional profile and any varied corner —
    /// profile sweeps never re-simulate.
    fn suite_summary_with(
        &self,
        model: &TimingModel,
        policy: &dyn ClockPolicy,
        generator: &ClockGenerator,
    ) -> (Vec<Fig8Row>, SuiteSummary) {
        let indices: Vec<usize> = (0..self.suite.len()).collect();
        let comparisons = suite::par_map(&indices, |&i| {
            eval::compare_digest(
                model,
                self.suite[i].name.clone(),
                &self.suite_digests[i],
                policy,
                generator,
            )
        });
        let mut rows = Vec::new();
        let mut summary = SuiteSummary::new();
        for comparison in comparisons {
            rows.push(Fig8Row {
                benchmark: comparison.benchmark.clone(),
                static_mhz: comparison.baseline.effective_frequency_mhz,
                dynamic_mhz: comparison.dynamic.effective_frequency_mhz,
                speedup_percent: (comparison.speedup() - 1.0) * 100.0,
            });
            summary.push(comparison);
        }
        (rows, summary)
    }

    /// Evaluates one policy on one pre-captured suite digest.
    fn outcome_for_digest(
        &self,
        model: &TimingModel,
        digest: &TimingDigest,
        policy: &dyn ClockPolicy,
        generator: &ClockGenerator,
    ) -> idca_core::RunOutcome {
        idca_core::replay_digest(model, digest, policy, generator)
    }

    /// §IV-B: iso-throughput voltage scaling on a representative benchmark
    /// (the kernel whose speedup sits at the median of the Fig. 8 suite).
    /// The benchmark is simulated once, with every candidate operating point
    /// observing the same streaming pass.
    #[must_use]
    pub fn power_scaling(&self) -> VoltageScalingResult {
        let workload = self
            .suite
            .iter()
            .find(|w| w.name == "beebs_dijkstra")
            .expect("beebs_dijkstra exists");
        let lut = self.lut.clone();
        vfs::scale_for_iso_throughput_program(
            ProfileKind::CriticalRangeOptimized,
            &self.library,
            &self.power,
            &Simulator::new(SimConfig::default()),
            &workload.program,
            &move |model: &TimingModel| {
                Box::new(InstructionBased::new(
                    lut.scaled(model.operating_point().delay_scale),
                ))
            },
            &ClockGenerator::Ideal,
        )
        .expect("a feasible operating point exists")
    }

    /// Ablation studies over the design choices called out in DESIGN.md.
    #[must_use]
    pub fn ablations(&self) -> Ablations {
        let lut_policy = InstructionBased::new(self.lut.clone());
        let (_, ideal) = self.fig8_with(&lut_policy, &ClockGenerator::Ideal);
        let (_, quantized) = self.fig8_with(&lut_policy, &ClockGenerator::quantized_50ps());
        let (_, discrete) =
            self.fig8_with(&lut_policy, &ClockGenerator::discrete(8, 900.0, 2100.0));
        let (_, execute_only) =
            self.fig8_with(&ExecuteOnly::new(self.lut.clone()), &ClockGenerator::Ideal);
        let (_, genie) = self.fig8_with(
            &GenieOracle::new(self.model.clone()),
            &ClockGenerator::Ideal,
        );

        // Conventional (timing-wall) profile: both the baseline and the LUT
        // come from the conventional implementation.
        let conventional_summary = {
            let policy = InstructionBased::from_model(&self.conventional);
            let (_, summary) =
                self.suite_summary_with(&self.conventional, &policy, &ClockGenerator::Ideal);
            summary
        };

        // LUT built from a deliberately short characterization: count how
        // many violations slip through on the full suite. The truncated
        // characterization is a digest replay of the first 500 cycles of
        // the pass captured in `prepare` — bit-identical to re-simulating
        // behind a `TakeObserver`, with no simulator in the loop — and the
        // suite evaluation replays the captured benchmark digests.
        let truncated_lut_violations = {
            let short_digest = self.characterization_digest.truncated(500);
            let short_dta = DynamicTimingAnalysis::replay_digest(&self.model, &short_digest);
            let short_lut = DelayLut::from_dta(&short_dta, 1);
            let policy = InstructionBased::new(short_lut);
            suite::par_map(&self.suite_digests, |digest| {
                self.outcome_for_digest(&self.model, digest, &policy, &ClockGenerator::Ideal)
                    .violations
            })
            .into_iter()
            .sum()
        };

        let percent = |s: &SuiteSummary| (s.mean_speedup() - 1.0) * 100.0;
        Ablations {
            ideal_cg_percent: percent(&ideal),
            quantized_cg_percent: percent(&quantized),
            discrete_cg_percent: percent(&discrete),
            execute_only_percent: percent(&execute_only),
            conventional_profile_percent: percent(&conventional_summary),
            genie_percent: percent(&genie),
            truncated_lut_violations,
        }
    }

    /// The conventional-clocking baseline outcome for a single benchmark
    /// (used by the power bench to report µW/MHz at 0.70 V).
    ///
    /// # Panics
    ///
    /// Panics if `benchmark` is not part of the Fig. 8 suite.
    #[must_use]
    pub fn baseline_outcome(&self, benchmark: &str) -> idca_core::RunOutcome {
        let index = self
            .suite
            .iter()
            .position(|w| w.name == benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        self.outcome_for_digest(
            &self.model,
            &self.suite_digests[index],
            &StaticClock::of_model(&self.model),
            &ClockGenerator::Ideal,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_prepare_and_fig5_is_sane() {
        let exp = Experiments::prepare();
        let fig5 = exp.fig5();
        assert!(fig5.mean_delay_ps < fig5.static_period_ps);
        assert!(fig5.genie_speedup_percent > 20.0);
        assert!(fig5.histogram.count() > 5_000);
        let fig6 = exp.fig6();
        let total: f64 = fig6.iter().map(|r| r.percent).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }
}
