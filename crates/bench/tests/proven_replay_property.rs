//! Property test of the bound-proven replay: for random programs (master
//! seeds) × corner counts `1..=9` (straddling the lane width) × {no faults,
//! faults} × {no interrupts, storm}, the production sweep — which skips the
//! delay lanes and violation folds of every cycle its per-seed delay bound
//! proves safe — must produce **bit-identical** report rows and the
//! identical rendered bytes as the single-phase direct reference, which
//! simulates live and evaluates every cycle with the scalar timing model.
//!
//! The skip must also actually happen where its preconditions hold (the
//! aggregate proven-cycle counters are asserted positive, so the test
//! cannot pass vacuously on an always-exact replay) and never where they
//! fail (faulted or interrupted sweeps report zero proven cycles).

use idca_bench::sweep::{pvt_sweep_direct, pvt_sweep_timed};
use idca_bench::{FaultSpec, InterruptSpec, SweepConfig};
use proptest::prelude::*;

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
        let (mut proven_table, mut proven_adaptive) = (0u64, 0u64);
        for corners in 1..=9u32 {
            for faults in [None, Some(faults)] {
                for interrupts in [None, Some(storm)] {
                    let config = SweepConfig {
                        seeds,
                        corners,
                        master_seed,
                        faults,
                        interrupts,
                        ..SweepConfig::default()
                    };
                    let (banked, timing) = pvt_sweep_timed(&config).expect("banked sweep runs");
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
                    if faults.is_some() || interrupts.is_some() {
                        // Perturbed lanes exceed the bound: always exact.
                        prop_assert_eq!(timing.proven_table_cycles, 0, "{}", label);
                        prop_assert_eq!(timing.proven_adaptive_cycles, 0, "{}", label);
                    }
                    let seed_cycles = banked.total_cycles() / u64::from(corners);
                    prop_assert!(timing.proven_table_cycles <= seed_cycles, "{}", label);
                    prop_assert!(timing.proven_adaptive_cycles <= seed_cycles, "{}", label);
                    proven_table += timing.proven_table_cycles;
                    proven_adaptive += timing.proven_adaptive_cycles;
                }
            }
        }
        prop_assert!(proven_table > 0, "no cycle took the table-driven proven path");
        prop_assert!(proven_adaptive > 0, "no cycle took the adaptive proven path");
    }
}
