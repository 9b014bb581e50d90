//! Property test of the bound-proven replay: for random programs (master
//! seeds) × corner counts `1..=9` (straddling the lane width) × {no faults,
//! faults} × {no interrupts, storm}, the production sweep — which skips the
//! delay lanes and violation folds of every cycle its per-seed delay bound
//! proves safe — must produce **bit-identical** report rows and the
//! identical rendered bytes as the single-phase direct reference, which
//! simulates live and evaluates every cycle with the scalar timing model.
//!
//! The skip must also actually happen, steady, faulted and interrupted (the
//! aggregate proven-cycle counters are asserted positive in each case, so
//! the test cannot pass vacuously on an always-exact replay), and only on
//! unperturbed cycles: the counters may never exceed the number of cycles
//! whose fault factors are all exactly `1.0` and which are no
//! interrupt-entry cycle, counted here straight from
//! [`FaultPlan::stage_factors`] and [`IrqTimeline::phase_at`] on a fresh
//! simulation, without the replay code.

use idca_bench::sweep::{pvt_sweep_direct, pvt_sweep_seed_range_timed_with_cache};
use idca_bench::{FaultPlan, FaultSpec, InterruptSpec, SweepConfig};
use idca_gen::{generate_program, nth_seed};
use idca_pipeline::{DigestObserver, InterruptPlan, IrqPhase, SimConfig, Simulator};
use idca_timing::IrqTimeline;
use proptest::prelude::*;

/// The cycles of `config`'s sweep (summed over seeds, one corner) whose
/// delay lanes no fault factor and no entry surge touches.
fn unperturbed_cycles(config: &SweepConfig) -> u64 {
    let plan = config.faults.map(|spec| FaultPlan::new(&spec));
    let irq = config.active_interrupts();
    (0..config.seeds)
        .map(|seed| {
            let program =
                generate_program(nth_seed(config.master_seed, u64::from(seed)), &config.gen);
            let simulator = Simulator::new(SimConfig {
                max_cycles: config.max_cycles,
                ..SimConfig::default()
            });
            let mut observer = DigestObserver::new();
            let (cycles, timeline) = match &irq {
                Some(spec) => {
                    let (program, irq_plan) = InterruptPlan::attach(&program, spec);
                    simulator
                        .with_interrupts(irq_plan)
                        .run_observed(&program, &mut [&mut observer])
                        .expect("program runs");
                    let digest = observer.into_digest();
                    let timeline = IrqTimeline::from_events(digest.events(), spec.penalty);
                    (digest.cycles(), Some(timeline))
                }
                None => {
                    simulator
                        .run_observed(&program, &mut [&mut observer])
                        .expect("program runs");
                    (observer.into_digest().cycles(), None)
                }
            };
            (0..cycles)
                .filter(|&cycle| {
                    let faulted = plan.is_some_and(|plan| {
                        plan.stage_factors(cycle)
                            .iter()
                            .any(|&factor| factor != 1.0)
                    });
                    let entry = timeline
                        .as_ref()
                        .is_some_and(|timeline| timeline.phase_at(cycle) == IrqPhase::Entry);
                    !faulted && !entry
                })
                .count() as u64
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn proven_replay_rows_are_bit_identical_to_direct(
        seeds in 1u32..3,
        master_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        // The vendored proptest has no float-range strategies; sample
        // integer grids and scale.
        droop_rate_pct in 0u32..=60,
        spike_rate_pm in 0u32..=40,
        irq_seed in any::<u64>(),
        storm_rate_pm in 1u32..=8,
        timer in 0u32..400,
    ) {
        let faults = FaultSpec {
            seed: fault_seed,
            droop_rate: f64::from(droop_rate_pct) / 100.0,
            spike_rate: f64::from(spike_rate_pm) / 1000.0,
            ..FaultSpec::default()
        };
        let storm = InterruptSpec {
            seed: irq_seed,
            rate: f64::from(storm_rate_pm) / 1000.0,
            timer,
            ..InterruptSpec::default()
        };
        // Aggregate proven counters per scenario: (faults, interrupts).
        let mut proven = [[(0u64, 0u64); 2]; 2];
        for faults in [None, Some(faults)] {
            for interrupts in [None, Some(storm)] {
                let scenario = SweepConfig {
                    seeds,
                    master_seed,
                    faults,
                    interrupts,
                    ..SweepConfig::default()
                };
                // The unperturbed cycles do not depend on the corners.
                let unperturbed = unperturbed_cycles(&scenario);
                for corners in 1..=9u32 {
                    let config = SweepConfig { corners, ..scenario.clone() };
                    let (banked, timing) =
                        pvt_sweep_seed_range_timed_with_cache(&config, 0..config.seeds, None)
                            .expect("banked sweep runs");
                    let direct = pvt_sweep_direct(&config).expect("direct sweep runs");
                    let label = format!(
                        "{seeds}x{corners}@{master_seed:#x} faults={} irq={}",
                        faults.is_some(),
                        interrupts.is_some()
                    );
                    prop_assert_eq!(banked.jobs.len(), (seeds * corners) as usize);
                    for (a, b) in banked.jobs.iter().zip(&direct.jobs) {
                        // Field-for-field f64 equality, not tolerance.
                        prop_assert_eq!(a, b, "{}", label);
                    }
                    prop_assert_eq!(banked.render(), direct.render(), "{}", label);
                    // Perturbed lanes exceed the bound: only unperturbed
                    // cycles may take the proven path.
                    prop_assert!(timing.proven_table_cycles <= unperturbed, "{}", label);
                    prop_assert!(timing.proven_adaptive_cycles <= unperturbed, "{}", label);
                    let total = &mut proven[usize::from(faults.is_some())]
                        [usize::from(interrupts.is_some())];
                    total.0 += timing.proven_table_cycles;
                    total.1 += timing.proven_adaptive_cycles;
                }
            }
        }
        for (faulted, by_irq) in proven.iter().enumerate() {
            for (interrupted, &(table, adaptive)) in by_irq.iter().enumerate() {
                let label = format!("faults={} irq={}", faulted == 1, interrupted == 1);
                prop_assert!(table > 0, "no cycle took the table-driven proven path: {}", label);
                prop_assert!(adaptive > 0, "no cycle took the adaptive proven path: {}", label);
            }
        }
    }
}
