//! The traced in-process run: the workload's work composed from each
//! layer's public functions, with a span around every call.
//!
//! Two kinds of call fuse several layers: a hinted simulation captures its
//! digest inside the pipeline loop, and the corner-batched replay runs the
//! bank lanes, fault and surge perturbation, the three policy banks and the
//! adaptive bank in one per-cycle loop. Those spans are attributed to their
//! layers with calibration probes run after the traced total, outside it:
//! the same calls with layers switched on one at a time: core simulation
//! alone, then with capture; the digest walk alone, then with the lanes,
//! the fault, the surge, the policy banks and the adaptive bank added in
//! turn. Each probe wraps a whole walk over every digest, never a single
//! cycle.

use crate::stats::median;
use crate::trace::{self_ms_by_name, Tracer};
use crate::workloads::{self, fill_config, set_threads, sweep_config, Oracle, Tally, Workload};
use idca_bench::{
    merge_reports, pvt_sweep_seed_range_timed_with_cache, sweep::PolicyJobOutcome,
    sweep::SweepJobOutcome, sweep::SWEEP_POLICIES, Corpus, Experiments, ServeSession, SweepConfig,
    SweepReport, SweepShard,
};
use idca_core::{
    AdaptiveBank, AdaptiveConfig, AdaptiveOutcome, ClockGenerator, ClockPolicy, DelayLut, Drift,
    ExecuteOnly, InstructionBased, PolicyBank, RunOutcome, StaticClock,
};
use idca_gen::{generate_program, nth_seed};
use idca_isa::Program;
use idca_pipeline::{
    DigestObserver, InterruptPlan, IrqPhase, PredecodedProgram, SimBuffers, SimConfig, Simulator,
    TimingDigest,
};
use idca_timing::{CornerBank, FaultPlan, IrqTimeline, ProfileKind, Ps, PvtCorner, TimingModel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer metrics: name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The clock-generator model of the sweep's banks.
static IDEAL: ClockGenerator = ClockGenerator::Ideal;

/// Probe depths of the replay walk, cumulative.
const WALK: u8 = 0;
const LANES: u8 = 1;
const FAULT: u8 = 2;
const SURGE: u8 = 3;
const POLICY: u8 = 4;
const FULL: u8 = 5;

/// Replay layer of each probe depth above the bare walk.
const REPLAY_LAYERS: [&str; 6] = [
    "timing.bank.walk",
    "timing.bank.lanes",
    "timing.fault.self",
    "timing.irq.surge",
    "core.policy_bank.self",
    "core.adaptive.self",
];

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Corner-constant replay state of one sweep: the corner bank, the deployed
/// policies and the per-worker banks, reset between seeds.
struct Replayer {
    corner_samples: Vec<PvtCorner>,
    bank: CornerBank,
    lut_policy: InstructionBased,
    exec_only: ExecuteOnly,
    static_requests: Vec<Ps>,
    faults: Option<FaultPlan>,
    surge_factor: f64,
    penalty: u32,
    banks: [PolicyBank<'static>; 3],
    adaptive: AdaptiveBank<'static>,
}

impl Replayer {
    fn new(config: &SweepConfig) -> Replayer {
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let guarded_lut = DelayLut::from_model(&nominal).scaled(1.0 + config.variation.margin());
        let corner_samples: Vec<PvtCorner> = (0..config.corners)
            .map(|i| config.variation.sample_corner(config.master_seed, i))
            .collect();
        let varied: Vec<TimingModel> = corner_samples
            .iter()
            .map(|corner| config.variation.apply(&nominal, corner))
            .collect();
        let faults = config.faults.map(|spec| FaultPlan::new(&spec));
        let bank = |name: &str| {
            let bank = PolicyBank::new(name, varied.len(), &IDEAL);
            match faults {
                Some(plan) => bank.with_faults(plan),
                None => bank,
            }
        };
        let adaptive = AdaptiveBank::from_static_periods(
            varied.iter().map(TimingModel::static_period_ps).collect(),
            &AdaptiveConfig::default(),
            &IDEAL,
            None,
            Drift::None,
        );
        let irq = config.active_interrupts();
        Replayer {
            static_requests: varied
                .iter()
                .map(|model| StaticClock::of_model(model).period())
                .collect(),
            bank: CornerBank::from_models(&varied),
            corner_samples,
            lut_policy: InstructionBased::new(guarded_lut.clone()),
            exec_only: ExecuteOnly::new(guarded_lut),
            faults,
            surge_factor: irq.map_or(1.0, |spec| 1.0 + spec.surge),
            penalty: irq.map_or(0, |spec| spec.penalty),
            banks: [
                bank(SWEEP_POLICIES[0]),
                bank(SWEEP_POLICIES[1]),
                bank(SWEEP_POLICIES[2]),
            ],
            adaptive: match faults {
                Some(plan) => adaptive.with_faults(plan),
                None => adaptive,
            },
        }
    }

    fn timeline(&self, digest: &TimingDigest, irq: bool) -> Option<IrqTimeline> {
        irq.then(|| IrqTimeline::from_events(digest.events(), self.penalty))
    }

    /// One walk over `digest` with the layers up to depth `D` switched on;
    /// at [`FULL`] it returns the seed's rows, exactly as the sweep engine
    /// computes them.
    fn walk<const D: u8>(
        &mut self,
        digest: &TimingDigest,
        timeline: Option<&IrqTimeline>,
        seed_index: u32,
    ) -> Vec<SweepJobOutcome> {
        if D >= POLICY {
            self.banks.iter_mut().for_each(PolicyBank::reset);
        }
        if D >= FULL {
            self.adaptive.reset(None);
        }
        let mut evaluator = self.bank.evaluator();
        let mut cursor = timeline.map(IrqTimeline::cursor);
        let faults = self.faults.as_ref();
        let surge_factor = self.surge_factor;
        let [bank_static, bank_lut, bank_exec] = &mut self.banks;
        let adaptive = &mut self.adaptive;
        let (lut_policy, exec_only, static_requests) =
            (&self.lut_policy, &self.exec_only, &self.static_requests);
        digest.for_each_run(|start, len, dc| {
            if D >= POLICY {
                bank_lut.begin_block(lut_policy.digest_period_ps(start, dc));
                bank_exec.begin_block(exec_only.digest_period_ps(start, dc));
                bank_static.begin_block_per_corner(static_requests);
            }
            for cycle in start..start + u64::from(len) {
                let entry = cursor
                    .as_mut()
                    .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry);
                if D == WALK {
                    black_box((cycle, dc, entry));
                    continue;
                }
                let lanes = evaluator.cycle_lanes(cycle, dc);
                if D >= FAULT {
                    if let Some(plan) = faults {
                        lanes.apply_fault(plan, cycle);
                    }
                }
                if D >= SURGE && entry {
                    lanes.apply_surge(surge_factor);
                }
                let lanes = &*lanes;
                if D < POLICY {
                    black_box(lanes.max_lanes());
                    continue;
                }
                for bank in [&mut *bank_static, &mut *bank_lut, &mut *bank_exec] {
                    if entry {
                        bank.observe_actuals_entry(lanes.max_lanes());
                    } else {
                        bank.observe_actuals(lanes.max_lanes());
                    }
                }
                if D >= FULL {
                    adaptive.observe_cycle_lanes_phased(cycle, dc, lanes, entry);
                }
            }
        });
        if D < POLICY {
            return Vec::new();
        }
        let summary = digest.summary();
        let mut outcomes: Vec<Vec<RunOutcome>> = self
            .banks
            .iter_mut()
            .map(|bank| {
                bank.finish(&summary);
                bank.take_outcomes()
            })
            .collect();
        if D < FULL {
            black_box(&outcomes);
            return Vec::new();
        }
        self.adaptive.finish(&summary);
        let adaptive = self.adaptive.take_outcomes();
        let (irq_entries, irq_handler_cycles) =
            timeline.map_or((0, 0), |t| (t.entries(), t.handler_cycles(summary.cycles)));
        let exec = outcomes.pop().expect("three banks");
        let lut = outcomes.pop().expect("three banks");
        let statics = outcomes.pop().expect("three banks");
        self.corner_samples
            .iter()
            .zip(statics.into_iter().zip(lut).zip(exec).zip(adaptive))
            .map(|(corner, (((s, l), e), a))| SweepJobOutcome {
                seed_index,
                corner_index: corner.index,
                cycles: summary.cycles,
                irq_entries,
                irq_handler_cycles,
                policies: [
                    policy_row(&s),
                    policy_row(&l),
                    policy_row(&e),
                    adaptive_row(&a),
                ],
            })
            .collect()
    }
}

fn policy_row(o: &RunOutcome) -> PolicyJobOutcome {
    PolicyJobOutcome {
        violations: o.violations,
        entry_violations: o.entry_violations,
        mhz: o.effective_frequency_mhz,
        warmup_cycles: 0,
        recovered_cycles: o.recovered_cycles,
        replay_penalty_cycles: o.replay_penalty_cycles,
        silent_risk_cycles: o.silent_risk_cycles,
        recovery_mhz: o.recovery_frequency_mhz,
    }
}

fn adaptive_row(o: &AdaptiveOutcome) -> PolicyJobOutcome {
    PolicyJobOutcome {
        violations: o.violations,
        entry_violations: o.entry_violations,
        mhz: o.effective_frequency_mhz,
        warmup_cycles: o.warmup_cycles,
        recovered_cycles: o.recovered_cycles,
        replay_penalty_cycles: o.replay_penalty_cycles,
        silent_risk_cycles: o.silent_risk_cycles,
        recovery_mhz: o.recovery_frequency_mhz,
    }
}

/// A lowered program with the simulator it runs on (its own, when the
/// interrupt handler is attached).
struct Lowered {
    pre: PredecodedProgram,
    simulator: Simulator,
}

/// Shares of a fused span from cumulative probe times `cumulative[k]`
/// (layers `0..=k` switched on): layer `k` gets the increase its probe
/// adds, as a share of the full probe. Noise cannot make a share negative.
fn cumulative_shares(cumulative: &[f64]) -> Vec<f64> {
    let mut reach = 0.0f64;
    let monotone: Vec<f64> = cumulative
        .iter()
        .map(|&t| {
            reach = reach.max(t);
            reach
        })
        .collect();
    let full = monotone
        .last()
        .copied()
        .unwrap_or(0.0)
        .max(f64::MIN_POSITIVE);
    let mut previous = 0.0;
    monotone
        .iter()
        .map(|&t| {
            let share = (t - previous) / full;
            previous = t;
            share
        })
        .collect()
}

/// Counts of one traced repetition; they must repeat exactly.
fn digest_counts(metrics: &mut Metrics, digests: &[&TimingDigest]) {
    let cycles: u64 = digests.iter().map(|d| d.cycles()).sum();
    let unique: usize = digests.iter().map(|d| d.unique_cycles()).sum();
    let runs: usize = digests.iter().map(|d| d.run_count()).sum();
    let bytes: usize = digests.iter().map(|d| d.to_bytes().len()).sum();
    metrics.insert("pipeline.digest.unique_entries", unique as f64);
    metrics.insert(
        "pipeline.digest.unique_frac",
        unique as f64 / cycles.max(1) as f64,
    );
    metrics.insert(
        "pipeline.digest.runs_per_cycle",
        runs as f64 / cycles.max(1) as f64,
    );
    metrics.insert("pipeline.digest.bytes", bytes as f64);
}

/// Simulates every program twice outside the traced total: once with no
/// observer (the core) and once capturing its digest. Returns
/// (core time, fused time) and sums cycles and retired instructions.
fn simulation_probe(
    lowered: &[Lowered],
    hinted: bool,
    buffers: &mut SimBuffers,
    metrics: &mut Metrics,
) -> (f64, f64) {
    let (mut core, mut fused) = (Duration::ZERO, Duration::ZERO);
    let (mut cycles, mut retired) = (0u64, 0u64);
    for program in lowered {
        let start = Instant::now();
        let summary = program
            .simulator
            .run_observed_predecoded_with_buffers(&program.pre, &mut [], buffers)
            .expect("the traced run simulated this program already");
        core += start.elapsed();
        cycles += summary.cycles;
        retired += summary.retired;
        let start = Instant::now();
        let mut observer = if hinted {
            DigestObserver::with_hints(program.pre.digest_hints())
        } else {
            DigestObserver::new()
        };
        program
            .simulator
            .run_observed_predecoded_with_buffers(&program.pre, &mut [&mut observer], buffers)
            .expect("the traced run simulated this program already");
        black_box(observer.into_digest());
        fused += start.elapsed();
    }
    metrics.insert("pipeline.simulate.cycles", cycles as f64);
    metrics.insert("pipeline.simulate.retired", retired as f64);
    (ms(core), ms(fused))
}

/// Times the replay walk at every probe depth over `digests`.
fn replay_probe(
    replayer: &mut Replayer,
    digests: &[(u32, &TimingDigest, Option<&IrqTimeline>)],
) -> Vec<f64> {
    fn timed<const D: u8>(
        replayer: &mut Replayer,
        digests: &[(u32, &TimingDigest, Option<&IrqTimeline>)],
    ) -> f64 {
        let start = Instant::now();
        for &(seed, digest, timeline) in digests {
            black_box(replayer.walk::<D>(digest, timeline, seed));
        }
        ms(start.elapsed())
    }
    let walk = timed::<WALK>(replayer, digests);
    let lanes = timed::<LANES>(replayer, digests);
    // A probe whose layer has no work in this workload is not run.
    let fault = if replayer.faults.is_some() {
        timed::<FAULT>(replayer, digests)
    } else {
        lanes
    };
    let surge = if digests.iter().any(|(_, _, t)| t.is_some()) {
        timed::<SURGE>(replayer, digests)
    } else {
        fault
    };
    let policy = timed::<POLICY>(replayer, digests);
    let full = timed::<FULL>(replayer, digests);
    vec![walk, lanes, fault, surge, policy, full]
}

/// Result of one traced run: median per-layer metrics and the check tally.
pub struct Traced {
    pub metrics: Metrics,
    pub tally: Tally,
    pub repetitions: usize,
}

/// Every per-layer metric, starting at 0 for layers a workload never runs.
fn zeroed() -> Metrics {
    crate::PER_LAYER
        .iter()
        .map(|&(name, _, _)| (name, 0.0))
        .collect()
}

/// Names of counts and ratios, which must repeat exactly between runs.
fn is_exact(name: &str) -> bool {
    !(name.ends_with("_ms")
        || name.ends_with("_us")
        || name.ends_with("_per_s")
        || name == "trace.overhead_frac")
}

/// Repeats the traced run of `workload` for `seconds` (at least twice) and
/// reports the median of every metric.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    repro: &Path,
    work: &Path,
    oracle: &Oracle,
) -> std::io::Result<Traced> {
    set_threads(1);
    let mut tally = Tally::default();
    let mut repetitions: Vec<Metrics> = Vec::new();
    let started = Instant::now();
    while repetitions.len() < 2 || started.elapsed() < Duration::from_secs(seconds) {
        let metrics = match workload {
            Workload::Paper => paper_once(&mut tally),
            Workload::SweepWide | Workload::StormShards => {
                sweep_once(workload, seed, work, oracle, &mut tally)?
            }
        };
        if let Some(first) = repetitions.first() {
            for (name, value) in &metrics {
                if is_exact(name) {
                    let same = first[name].to_bits() == value.to_bits();
                    tally.check(same, || {
                        format!(
                            "{name} changed between repetitions: {} then {value}",
                            first[name]
                        )
                    });
                }
            }
        }
        repetitions.push(metrics);
    }
    let mut metrics = zeroed();
    for (name, value) in metrics.iter_mut() {
        let samples: Vec<f64> = repetitions.iter().map(|m| m[name]).collect();
        *value = median(&samples);
    }
    if workload == Workload::StormShards {
        pipe_latency(repro, work, oracle, &mut metrics, &mut tally)?;
    }
    Ok(Traced {
        metrics,
        tally,
        repetitions: repetitions.len(),
    })
}

/// Serve latency through the CLI pipe, over the merged corpus the traced
/// run wrote: three closed-loop sessions, pooled.
fn pipe_latency(
    repro: &Path,
    work: &Path,
    oracle: &Oracle,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let corpus = work.join("corpus");
    let mut latencies = Vec::new();
    for _ in 0..3 {
        let (session, _) =
            workloads::serve_session(repro, &corpus, &oracle.script, &oracle.replies, tally)?;
        latencies.extend(session);
    }
    metrics.insert(
        "bench.serve.pipe_p50_us",
        crate::stats::nearest_rank(&latencies, 50.0),
    );
    metrics.insert(
        "bench.serve.pipe_p99_us",
        crate::stats::nearest_rank(&latencies, 99.0),
    );
    Ok(())
}

/// Folds the tracer's self times into `metrics` (`<span>_ms`), puts the
/// self time of every span that is not a layer into
/// `bench.sweep.unaccounted_ms`, and sets the total and overhead.
fn fold_spans(tracer: &Tracer, root: usize, lib_ms: f64, metrics: &mut Metrics) {
    let total = tracer.duration(root) as f64 / 1e6;
    let mut layered = 0.0;
    for (name, self_ms) in self_ms_by_name(tracer.spans()) {
        // Spans are named after their metric minus the unit suffix.
        let known = crate::PER_LAYER
            .iter()
            .find(|(metric, _, _)| {
                metric
                    .strip_prefix(name)
                    .is_some_and(|unit| unit == "_ms" || unit == "_us")
            })
            .map(|&(metric, _, _)| metric);
        if let Some(known) = known {
            *metrics.get_mut(known).expect("zeroed holds every metric") += self_ms;
            layered += self_ms;
        }
    }
    metrics.insert("bench.sweep.unaccounted_ms", total - layered);
    metrics.insert("trace.total_ms", total);
    metrics.insert("bench.sweep.lib_ms", lib_ms);
    metrics.insert("trace.overhead_frac", total / lib_ms - 1.0);
}

/// The programs `Experiments::prepare` simulates: the characterization
/// stimulus and the 14 suite kernels.
fn paper_programs() -> Vec<Program> {
    let mut programs = vec![
        idca_workloads::suite::characterization_workload(idca_bench::CHARACTERIZATION_SEED).program,
    ];
    programs.extend(
        idca_workloads::suite::benchmark_suite()
            .into_iter()
            .map(|w| w.program),
    );
    programs
}

/// Everything `repro` with no flags computes, in its order, inside spans
/// when a tracer is given; returns the Fig. 8 mean speedup in percent and
/// the suite's timing violations.
fn paper_calls(mut tracer: Option<&mut Tracer>) -> (Experiments, f64, u64) {
    let mut span = |name: &'static str, call: &mut dyn FnMut()| match tracer.as_deref_mut() {
        Some(tracer) => tracer.span(name, call),
        None => call(),
    };
    let mut experiments = None;
    span("bench.paper.prepare", &mut || {
        experiments = Some(Experiments::prepare())
    });
    let experiments = experiments.expect("prepared");
    span("bench.paper.figures", &mut || {
        black_box(experiments.fig5());
        black_box(experiments.fig6());
        black_box(experiments.table1());
        black_box(experiments.table2());
        black_box(experiments.fig7());
    });
    let mut fig8 = None;
    span("bench.paper.fig8", &mut || fig8 = Some(experiments.fig8()));
    span("bench.paper.power", &mut || {
        black_box(experiments.power_scaling());
    });
    span("bench.paper.ablations", &mut || {
        black_box(experiments.ablations());
    });
    // `--summary` recomputes Fig. 5 and Fig. 8.
    span("bench.paper.figures", &mut || {
        black_box(experiments.fig5());
    });
    span("bench.paper.fig8", &mut || {
        black_box(experiments.fig8());
    });
    let (_, summary) = fig8.expect("Fig. 8 ran");
    let speedup_pct = (summary.mean_speedup() - 1.0) * 100.0;
    (experiments, speedup_pct, summary.total_violations())
}

fn paper_once(tally: &mut Tally) -> Metrics {
    let mut metrics = zeroed();
    let start = Instant::now();
    black_box(paper_calls(None));
    let lib_ms = ms(start.elapsed());

    let mut tracer = Tracer::new();
    let root = tracer.open("root");
    let (experiments, speedup_pct, violations) = paper_calls(Some(&mut tracer));
    tracer.close(root);
    tally.check(violations == 0, || {
        format!("traced paper run: {violations} timing violations across the suite")
    });

    // Calibration: lowering, core simulation and digest capture of the
    // programs `prepare` simulates, attributed inside its span.
    let simulator = Simulator::new(SimConfig::default());
    let mut buffers = SimBuffers::for_config(simulator.config());
    let programs = paper_programs();
    let start = Instant::now();
    let lowered: Vec<Lowered> = programs
        .iter()
        .map(|program| Lowered {
            pre: PredecodedProgram::lower(program),
            simulator: simulator.clone(),
        })
        .collect();
    let lower_ms = ms(start.elapsed());
    let (core_ms, fused_ms) = simulation_probe(&lowered, false, &mut buffers, &mut metrics);
    let prepare = root + 1; // `paper_calls` opens it first
    let prepare_ms = tracer.duration(prepare) as f64 / 1e6;
    tracer.attribute(
        prepare,
        &[
            ("pipeline.predecode.lower", lower_ms / prepare_ms),
            ("pipeline.simulate.core", core_ms / prepare_ms),
            ("pipeline.digest.capture", (fused_ms - core_ms) / prepare_ms),
        ],
    );
    fold_spans(&tracer, root, lib_ms, &mut metrics);

    let mut digests: Vec<&TimingDigest> = vec![&experiments.characterization_digest];
    digests.extend(&experiments.suite_digests);
    digest_counts(&mut metrics, &digests);
    let micro_ops: usize = lowered.iter().map(|l| l.pre.len()).sum();
    metrics.insert("pipeline.predecode.micro_ops", micro_ops as f64);
    let cycles = metrics["pipeline.simulate.cycles"];
    metrics.insert("pipeline.simulate.mcycles_per_s", cycles / core_ms / 1e3);
    metrics.insert("bench.paper.speedup_pct", speedup_pct);
    metrics.insert(
        "bench.paper.speedup_err_pct",
        (speedup_pct - idca_bench::paper::FIG8_SPEEDUP_PERCENT).abs(),
    );
    metrics
}

/// One shard's seed range, as `repro sweep --shard K/N` computes it.
fn shard_ranges(workload: Workload, seeds: u32) -> Vec<Range<u32>> {
    match workload {
        Workload::StormShards => (1..=2)
            .map(|k| {
                SweepShard::new(k, 2)
                    .expect("valid shard")
                    .seed_range(seeds)
            })
            .collect(),
        _ => std::iter::once(0..seeds).collect(),
    }
}

/// The untraced library path of the workload: the library entry points the
/// CLI commands call, in one thread. Returns the final report and the
/// digest-cache hit fraction of the timed sweep.
fn sweep_lib(
    workload: Workload,
    config: &SweepConfig,
    cache: &Path,
    script: &[String],
) -> (f64, SweepReport, f64) {
    let start = Instant::now();
    let (report, hit_frac) = if workload == Workload::StormShards {
        pvt_sweep_seed_range_timed_with_cache(
            &fill_config(config.master_seed),
            0..config.seeds,
            Some(cache),
        )
        .expect("fill runs");
        let mut parts = Vec::new();
        let mut hits = 0;
        for range in shard_ranges(workload, config.seeds) {
            let (part, timing) = pvt_sweep_seed_range_timed_with_cache(config, range, Some(cache))
                .expect("shard runs");
            hits += timing.digest_cache_hits;
            parts.push(SweepReport::from_bytes(&part.to_bytes()).expect("report round-trips"));
        }
        let merged = merge_reports(parts).expect("shards merge");
        black_box(merged.render());
        let mut corpus = Corpus::new();
        corpus.ingest(merged.clone()).expect("ingests");
        let session = ServeSession::new(corpus, None);
        for query in script {
            black_box(session.query(query).ok());
        }
        (merged, f64::from(hits) / f64::from(config.seeds))
    } else {
        let (report, _) = pvt_sweep_seed_range_timed_with_cache(config, 0..config.seeds, None)
            .expect("sweep runs");
        black_box(report.render());
        (report, 0.0)
    };
    (ms(start.elapsed()), report, hit_frac)
}

fn sweep_once(
    workload: Workload,
    seed: u64,
    work: &Path,
    oracle: &Oracle,
    tally: &mut Tally,
) -> std::io::Result<Metrics> {
    let config = sweep_config(workload, seed);
    let storm = workload == Workload::StormShards;
    let irq = config.active_interrupts();
    let mut metrics = zeroed();

    let cache = work.join("digest-cache");
    if cache.exists() {
        std::fs::remove_dir_all(&cache)?;
    }
    std::fs::create_dir_all(&cache)?;
    let (lib_ms, lib_report, hit_frac) = sweep_lib(workload, &config, &cache, &oracle.script);
    std::fs::remove_dir_all(&cache)?;
    std::fs::create_dir_all(&cache)?;
    tally.check(lib_report.render() == oracle.render, || {
        "library sweep render differs from the oracle's".to_string()
    });

    let sim_config = SimConfig {
        max_cycles: config.max_cycles,
        ..SimConfig::default()
    };
    let shared = Simulator::new(sim_config.clone());
    let mut buffers = SimBuffers::for_config(&sim_config);
    let mut tracer = Tracer::new();
    let root = tracer.open("root");

    // Phase 1: generate, lower and simulate every seed, capturing its
    // digest (the storm's cache fill also encodes it).
    let mut lowered = Vec::new();
    let mut fused_spans = Vec::new();
    let mut digests = Vec::new();
    for index in 0..config.seeds {
        let program_seed = nth_seed(config.master_seed, u64::from(index));
        let program = tracer.span("gen.generate", || {
            generate_program(program_seed, &config.gen)
        });
        let (program, simulator) = match &irq {
            Some(spec) => {
                let (program, plan) = InterruptPlan::attach(&program, spec);
                (
                    program,
                    Simulator::new(sim_config.clone()).with_interrupts(plan),
                )
            }
            None => (program, shared.clone()),
        };
        let pre = tracer.span("pipeline.predecode.lower", || {
            PredecodedProgram::lower(&program)
        });
        let fused = tracer.open("pipeline.simulate.fused");
        let mut observer = DigestObserver::with_hints(pre.digest_hints());
        let simulated = simulator.run_observed_predecoded_with_buffers(
            &pre,
            &mut [&mut observer],
            &mut buffers,
        );
        let digest = observer.into_digest();
        tracer.close(fused);
        if let Err(error) = simulated {
            tally.check(false, || {
                format!("traced simulation of seed {index} failed: {error}")
            });
            return Ok(metrics);
        }
        fused_spans.push(fused);
        if storm {
            // Like the CLI, the fill writes each encoded digest to a file
            // and the shards read it back.
            let bytes = tracer.span("pipeline.digest.encode", || digest.to_bytes());
            let path = cache.join(format!("{index}.bin"));
            tracer.span("bench.sweep.cache_io", || std::fs::write(path, bytes))?;
        } else {
            digests.push(digest);
        }
        lowered.push(Lowered { pre, simulator });
    }

    // Phase 2, shard by shard: decode the cached digests (storm) and
    // replay every seed against every corner.
    let mut replayer = Replayer::new(&config);
    let mut replay_spans = Vec::new();
    let mut parts = Vec::new();
    let mut report_bytes = 0;
    for range in shard_ranges(workload, config.seeds) {
        if storm {
            for index in range.clone() {
                let path = cache.join(format!("{index}.bin"));
                let bytes = tracer.span("bench.sweep.cache_io", || std::fs::read(path))?;
                let digest = tracer.span("pipeline.digest.decode", || {
                    TimingDigest::from_bytes(&bytes)
                });
                digests.push(digest.expect("an encoded digest decodes"));
            }
        }
        let mut rows = Vec::new();
        for index in range {
            let digest = &digests[index as usize];
            let timeline = replayer.timeline(digest, irq.is_some());
            let span = tracer.open("bench.sweep.replay");
            rows.extend(replayer.walk::<FULL>(digest, timeline.as_ref(), index));
            tracer.close(span);
            replay_spans.push(span);
        }
        let mut part = SweepReport::empty(&config, replayer.corner_samples.clone());
        part.jobs = rows;
        parts.push(part);
    }
    let report = if storm {
        let encoded: Vec<Vec<u8>> = tracer.span("bench.shard.encode", || {
            parts.iter().map(SweepReport::to_bytes).collect()
        });
        report_bytes = encoded.iter().map(Vec::len).sum();
        let decoded: Vec<SweepReport> = tracer.span("bench.shard.decode", || {
            encoded
                .iter()
                .map(|bytes| SweepReport::from_bytes(bytes).expect("report round-trips"))
                .collect()
        });
        tracer.span("bench.shard.merge", || {
            merge_reports(decoded).expect("shards merge")
        })
    } else {
        parts.pop().expect("one unsharded part")
    };
    let render = tracer.span("bench.sweep.render", || report.render());
    let mut replies = Vec::new();
    if storm {
        let copy = report.clone();
        let corpus = tracer.span("bench.serve.ingest", || {
            let mut corpus = Corpus::new();
            corpus.ingest(copy).expect("ingests");
            corpus
        });
        let session = ServeSession::new(corpus, None);
        replies = tracer.span("bench.serve.query", || {
            oracle
                .script
                .iter()
                .map(|query| match session.query(query) {
                    Ok(reply) => reply,
                    Err(error) => format!("error: {error}"),
                })
                .collect()
        });
    }
    tracer.close(root);
    std::fs::remove_dir_all(&cache)?;

    // Agreement: the composed rows equal the library's bit for bit, and
    // the render and serve replies equal the oracle's.
    tally.check(report.to_bytes() == lib_report.to_bytes(), || {
        "traced report rows differ from the library sweep's".to_string()
    });
    tally.check(render == oracle.render, || {
        "traced render differs from the oracle's".to_string()
    });
    if storm {
        tally.check(replies == oracle.replies, || {
            "traced serve replies differ from the oracle's".to_string()
        });
        let corpus = work.join("corpus");
        std::fs::create_dir_all(&corpus)?;
        std::fs::write(corpus.join("merged.sweep"), report.to_bytes())?;
    }

    // Calibration probes, outside the traced total.
    let (core_ms, fused_ms) = simulation_probe(&lowered, true, &mut buffers, &mut metrics);
    let core_share = (core_ms / fused_ms).clamp(0.0, 1.0);
    for &span in &fused_spans {
        tracer.attribute(
            span,
            &[
                ("pipeline.simulate.core", core_share),
                ("pipeline.digest.capture", 1.0 - core_share),
            ],
        );
    }
    let timelines: Vec<Option<IrqTimeline>> = digests
        .iter()
        .map(|digest| replayer.timeline(digest, irq.is_some()))
        .collect();
    let probe_input: Vec<(u32, &TimingDigest, Option<&IrqTimeline>)> = digests
        .iter()
        .zip(&timelines)
        .enumerate()
        .map(|(index, (digest, timeline))| (index as u32, digest, timeline.as_ref()))
        .collect();
    let shares = cumulative_shares(&replay_probe(&mut replayer, &probe_input));
    let attribution: Vec<(&'static str, f64)> = REPLAY_LAYERS.iter().copied().zip(shares).collect();
    for &span in &replay_spans {
        tracer.attribute(span, &attribution);
    }
    fold_spans(&tracer, root, lib_ms, &mut metrics);

    // Counts.
    let cycles = metrics["pipeline.simulate.cycles"];
    metrics.insert(
        "pipeline.simulate.mcycles_per_s",
        cycles / metrics["pipeline.simulate.core_ms"] / 1e3,
    );
    metrics.insert("gen.programs", f64::from(config.seeds));
    let micro_ops: usize = lowered.iter().map(|l| l.pre.len()).sum();
    metrics.insert("pipeline.predecode.micro_ops", micro_ops as f64);
    let digest_refs: Vec<&TimingDigest> = digests.iter().collect();
    digest_counts(&mut metrics, &digest_refs);
    metrics.insert("timing.bank.cycle_corners", report.total_cycles() as f64);
    metrics.insert(
        "core.adaptive.warmup_frac",
        report.adaptive_warmup_fraction(),
    );
    metrics.insert("bench.sweep.cache_hit_frac", hit_frac);
    if storm {
        metrics.insert("bench.shard.report_bytes", report_bytes as f64);
        metrics.insert("bench.serve.queries", oracle.script.len() as f64);
        // `fold_spans` left the query span's total self time, in ms.
        let query_ms = metrics["bench.serve.query_us"];
        metrics.insert(
            "bench.serve.query_us",
            query_ms * 1e3 / oracle.script.len() as f64,
        );
    }
    let (mut entries, mut handler, mut entry_cycles, mut faulted) = (0u64, 0u64, 0u64, 0u64);
    let plan = config.faults.map(|spec| FaultPlan::new(&spec));
    for (digest, timeline) in digests.iter().zip(&timelines) {
        if let Some(timeline) = timeline {
            entries += timeline.entries();
            handler += timeline.handler_cycles(digest.cycles());
            entry_cycles += (0..digest.cycles())
                .filter(|&cycle| timeline.phase_at(cycle) == IrqPhase::Entry)
                .count() as u64;
        }
        if let Some(plan) = &plan {
            faulted += (0..digest.cycles())
                .filter(|&cycle| plan.stage_factors(cycle).iter().any(|&f| f != 1.0))
                .count() as u64;
        }
    }
    metrics.insert("pipeline.irq.entries", entries as f64);
    metrics.insert("pipeline.irq.handler_cycles", handler as f64);
    metrics.insert("timing.irq.entry_cycles", entry_cycles as f64);
    metrics.insert("timing.fault.faulted_cycles", faulted as f64);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_probe_shares_partition_the_full_walk() {
        let shares = cumulative_shares(&[10.0, 40.0, 40.0, 38.0, 60.0, 100.0]);
        assert_eq!(shares, vec![0.1, 0.3, 0.0, 0.0, 0.2, 0.4]);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
