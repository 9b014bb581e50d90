//! Property test of the fault-injection determinism contract: for random
//! sweep shapes, master seeds and fault scenarios (droop density, spike
//! density, corner shift, replay penalty, detection window), both sweep
//! engines — banked replay ([`pvt_sweep`]) and the single-phase direct
//! reference ([`pvt_sweep_direct`]) — must produce **bit-identical** report
//! rows, including the recovery columns (recovered / replay-penalty /
//! silent-risk cycles and the recovery-adjusted effective frequency), and
//! render the identical bytes. Faults perturb the *timing evaluation*, not
//! the digested execution, so the digest-replay equivalence must survive
//! any fault scenario.

use idca_bench::sweep::{pvt_sweep, pvt_sweep_direct};
use idca_bench::{FaultSpec, SweepConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn faulted_rows_are_bit_identical_across_both_engines(
        seeds in 1u32..5,
        corners in 1u32..4,
        master_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        // The vendored proptest has no float-range strategies; sample
        // integer grids and scale (the exact f64 values don't matter, only
        // that the same value feeds both engines).
        droop_rate_pct in 0u32..=100,
        spike_rate_pm in 0u32..=100,
        shift_mag_pm in 0u32..=300,
        replay_penalty in 0u32..=32,
        detect_window_pm in 0u32..=500,
    ) {
        let droop_rate = f64::from(droop_rate_pct) / 100.0;
        let spike_rate = f64::from(spike_rate_pm) / 1000.0;
        let shift_mag = f64::from(shift_mag_pm) / 1000.0;
        let detect_window = f64::from(detect_window_pm) / 1000.0;
        let config = SweepConfig {
            seeds,
            corners,
            master_seed,
            faults: Some(FaultSpec {
                seed: fault_seed,
                droop_rate,
                spike_rate,
                shift_mag,
                replay_penalty,
                detect_window,
                ..FaultSpec::default()
            }),
            ..SweepConfig::default()
        };
        let banked = pvt_sweep(&config).expect("banked sweep runs");
        let direct = pvt_sweep_direct(&config).expect("direct sweep runs");
        prop_assert_eq!(banked.jobs.len(), (seeds * corners) as usize);
        for (a, b) in banked.jobs.iter().zip(&direct.jobs) {
            // Field-for-field f64 equality, not tolerance: both engines run
            // the same perturbed arithmetic, so every row — including the
            // recovery accounting — must match to the last bit.
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(banked.render(), direct.render());

        // Recovery bookkeeping is conserved: every violation under faults is
        // either recovered or silent risk, and the replay penalty is exactly
        // K cycles per recovery.
        for job in &banked.jobs {
            for policy in &job.policies {
                prop_assert_eq!(
                    policy.recovered_cycles + policy.silent_risk_cycles,
                    policy.violations
                );
                prop_assert_eq!(
                    policy.replay_penalty_cycles,
                    policy.recovered_cycles * u64::from(replay_penalty)
                );
                // Paying a replay penalty can only slow the effective clock.
                prop_assert!(policy.recovery_mhz <= policy.mhz);
            }
        }

        // The serialized report round-trips the fault block bit-exactly.
        let bytes = banked.to_bytes();
        let back = idca_bench::SweepReport::from_bytes(&bytes).expect("codec round-trips");
        prop_assert_eq!(&back, &banked);
        prop_assert_eq!(back.to_bytes(), bytes);
    }
}
