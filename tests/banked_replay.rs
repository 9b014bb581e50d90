//! Equivalence contract of the corner-batched replay kernel and the digest
//! binary codec, over *random* inputs:
//!
//! * replaying a digest against `M` corner-varied models through the SIMD
//!   [`CornerBank`] lanes must be **bit-identical** to a per-corner
//!   scalar replay, for every policy, for corner counts on
//!   both sides of (and straddling) the lane width — padding lanes must be
//!   inert;
//! * serializing a digest and loading it back must reproduce the identical
//!   digest, the identical bytes, and the identical replay outcomes;
//! * no corruption of serialized bytes may panic the loader.

use idca::core::{
    replay_adaptive_digest, replay_digest, replay_digest_banked, AdaptiveBank, AdaptiveConfig,
    AdaptiveObserver, AdaptiveOutcome, Drift, PolicyBank, PolicyObserver,
};
use idca::pipeline::{DigestObserver, TimingDigest};
use idca::prelude::*;
use proptest::prelude::*;

fn nominal() -> TimingModel {
    TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized)
}

/// Generates and simulates the `master_seed`-derived program, capturing its
/// timing digest.
fn digest_of(master_seed: u64) -> TimingDigest {
    let program = generate_program(nth_seed(master_seed, 0), &GenConfig::default());
    let mut observer = DigestObserver::new();
    Simulator::new(SimConfig::default())
        .run_observed(&program, &mut [&mut observer])
        .expect("generated programs terminate");
    observer.into_digest()
}

/// The corner-batched adaptive replay as the sweep runs it: each cycle is
/// offered to the proven path (which declines unless its preconditions
/// hold) and otherwise settled and replayed through the exact lanes kernel,
/// from one excitation evaluation per cycle.
fn replay_adaptive_banked(
    models: &[TimingModel],
    digest: &TimingDigest,
    config: &AdaptiveConfig,
    seed_lut: Option<&DelayLut>,
    drift: Drift,
) -> Vec<AdaptiveOutcome> {
    let bank = CornerBank::from_models(models);
    let mut adaptive = AdaptiveBank::new(models, config, &ClockGenerator::Ideal, seed_lut, drift);
    let mut evaluator = bank.evaluator();
    digest.for_each_cycle(|cycle, dc| {
        let excitations = idca::timing::stage_excitations(cycle, dc);
        if !adaptive.observe_proven(&dc.classes, &excitations, &bank) {
            adaptive.settle(&dc.classes, &bank);
            let lanes = evaluator.lanes_at(&dc.classes, &excitations);
            adaptive.observe_cycle_lanes(cycle, dc, lanes);
        }
    });
    adaptive.finish(&digest.summary());
    adaptive.into_outcomes()
}

/// Samples `corners` PVT-varied models from the default variation model.
fn varied_models(corners: u32, master_seed: u64) -> Vec<TimingModel> {
    let base = nominal();
    let vm = VariationModel::default();
    (0..corners)
        .map(|i| vm.apply(&base, &vm.sample_corner(master_seed, i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn banked_replay_is_bit_identical_to_lane_by_lane(
        corners in 1u32..=9,
        master_seed in any::<u64>(),
    ) {
        let digest = digest_of(master_seed);
        let models = varied_models(corners, master_seed);
        let base = nominal();
        let policies: [&dyn ClockPolicy; 3] = [
            &StaticClock::of_model(&base),
            &InstructionBased::from_model(&base),
            &ExecuteOnly::new(DelayLut::from_model(&base)),
        ];
        for policy in policies {
            let banked =
                replay_digest_banked(&models, &digest, policy, &ClockGenerator::Ideal);
            prop_assert_eq!(banked.len(), models.len());
            for (model, outcome) in models.iter().zip(&banked) {
                let scalar = replay_digest(model, &digest, policy, &ClockGenerator::Ideal);
                // Field-for-field f64 equality, not tolerance: the banked
                // lanes perform the identical arithmetic, so violations,
                // realized periods and the activity statistics must match
                // to the last bit.
                prop_assert_eq!(outcome, &scalar, "policy {}", policy.name());
            }
        }
    }

    #[test]
    fn banked_adaptive_replay_is_bit_identical_to_scalar_observers(
        corners in 1u32..=9,
        master_seed in any::<u64>(),
        seeded in any::<bool>(),
        drift_centikilo in 0u32..=3,
    ) {
        let digest = digest_of(master_seed);
        let models = varied_models(corners, master_seed);
        let config = AdaptiveConfig::default();
        let seed_lut = DelayLut::from_model(&nominal());
        let seed_lut = seeded.then_some(&seed_lut);
        // Include drifting runs: drift exercises the violation-backoff
        // branch of the learned-table update, which a drift-free replay of
        // a margin-guarded table never takes.
        let drift = if drift_centikilo == 0 {
            Drift::None
        } else {
            Drift::LinearSlowdown {
                fraction_per_kilocycle: f64::from(drift_centikilo) * 0.01,
            }
        };
        let banked = replay_adaptive_banked(&models, &digest, &config, seed_lut, drift);
        prop_assert_eq!(banked.len(), models.len());
        for (model, outcome) in models.iter().zip(&banked) {
            let scalar = replay_adaptive_digest(
                model,
                &digest,
                &config,
                &ClockGenerator::Ideal,
                seed_lut,
                drift,
            );
            // Field-for-field f64 equality: the SoA adaptive bank performs
            // the identical predict/realize/observe/adapt arithmetic per
            // lane (a proven cycle's deferred learns fold to the same
            // values), so realized periods, violations and warmup counts
            // must match to the last bit.
            prop_assert_eq!(outcome, &scalar, "corners {}", corners);
        }
    }

    #[test]
    fn soa_lanes_kernel_is_bit_identical_to_scalar_observers(
        corners in 1u32..=9,
        master_seed in any::<u64>(),
        quantized in any::<bool>(),
        seeded in any::<bool>(),
        drifting in any::<bool>(),
    ) {
        // Pins the sweep's actual phase-2 kernel: the [`CycleLanes`]
        // structure-of-arrays evaluation feeding the three [`PolicyBank`]s
        // (one block decision, one contiguous compare per cycle) and the
        // [`AdaptiveBank`]'s exact lanes kernel on every cycle, with no
        // proven path in between.
        let digest = digest_of(master_seed);
        let models = varied_models(corners, master_seed);
        let base = nominal();
        let generator = if quantized {
            ClockGenerator::quantized_50ps()
        } else {
            ClockGenerator::Ideal
        };
        let config = AdaptiveConfig::default();
        let seed_lut = DelayLut::from_model(&base);
        let seed_lut = seeded.then_some(&seed_lut);
        let drift = if drifting {
            Drift::LinearSlowdown { fraction_per_kilocycle: 0.02 }
        } else {
            Drift::None
        };
        // The sweep deploys one margin-guarded LUT across every corner, so
        // the table-driven decisions are corner-invariant: shared policies.
        let lut_policy = InstructionBased::from_model(&base);
        let exec_policy = ExecuteOnly::new(DelayLut::from_model(&base));
        let static_requests: Vec<idca::timing::Ps> = models
            .iter()
            .map(|m| StaticClock::of_model(m).period())
            .collect();

        // Banked: one digest walk, all corners in SoA lanes.
        let bank = CornerBank::from_models(&models);
        let mut bank_static = PolicyBank::new("static", models.len(), &generator);
        let mut bank_lut = PolicyBank::new("instruction-based", models.len(), &generator);
        let mut bank_exec = PolicyBank::new("execute-only", models.len(), &generator);
        let mut adaptive = AdaptiveBank::new(&models, &config, &generator, seed_lut, drift);
        let mut evaluator = bank.evaluator();
        digest.for_each_run(|start, len, dc| {
            bank_lut.begin_block(lut_policy.digest_period_ps(start, dc));
            bank_exec.begin_block(exec_policy.digest_period_ps(start, dc));
            bank_static.begin_block_per_corner(&static_requests);
            for cycle in start..start + u64::from(len) {
                let lanes = &*evaluator.cycle_lanes(cycle, dc);
                bank_static.observe_actuals(lanes.max_lanes());
                bank_lut.observe_actuals(lanes.max_lanes());
                bank_exec.observe_actuals(lanes.max_lanes());
                adaptive.observe_cycle_lanes(cycle, dc, lanes);
            }
        });
        let summary = digest.summary();
        bank_static.finish(&summary);
        bank_lut.finish(&summary);
        bank_exec.finish(&summary);
        adaptive.finish(&summary);
        let out_static = bank_static.into_outcomes();
        let out_lut = bank_lut.into_outcomes();
        let out_exec = bank_exec.into_outcomes();
        let out_adaptive = adaptive.into_outcomes();

        // Scalar reference: one stack of prepared-timing observers per
        // corner.
        for (corner, model) in models.iter().enumerate() {
            let static_policy = StaticClock::new(static_requests[corner]);
            let mut ob_static = PolicyObserver::new(model, &static_policy, &generator);
            let mut ob_lut = PolicyObserver::new(model, &lut_policy, &generator);
            let mut ob_exec = PolicyObserver::new(model, &exec_policy, &generator);
            let mut ob_adaptive =
                AdaptiveObserver::new(model, &config, &generator, seed_lut, drift);
            digest.for_each_cycle(|cycle, dc| {
                let timing = model.digest_cycle_timing(cycle, dc);
                ob_static.observe_digest_timed(cycle, dc, &timing);
                ob_lut.observe_digest_timed(cycle, dc, &timing);
                ob_exec.observe_digest_timed(cycle, dc, &timing);
                ob_adaptive.observe_digest_timed(cycle, dc, &timing);
            });
            ob_static.finish(&summary);
            ob_lut.finish(&summary);
            ob_exec.finish(&summary);
            ob_adaptive.finish(&summary);
            // Field-for-field f64 equality, not tolerance — including the
            // learned tables and warmup counts of the adaptive outcome. The
            // activity summary is the one documented exception: the banks
            // leave it empty-finished (the sweep folds activity once,
            // outside the banks, and its rows never carry it), so align it
            // before the whole-struct compare.
            let mut scalar_static = ob_static.into_outcome();
            let mut scalar_lut = ob_lut.into_outcome();
            let mut scalar_exec = ob_exec.into_outcome();
            scalar_static.activity = out_static[corner].activity;
            scalar_lut.activity = out_lut[corner].activity;
            scalar_exec.activity = out_exec[corner].activity;
            prop_assert_eq!(&out_static[corner], &scalar_static, "corner {}", corner);
            prop_assert_eq!(&out_lut[corner], &scalar_lut, "corner {}", corner);
            prop_assert_eq!(&out_exec[corner], &scalar_exec, "corner {}", corner);
            prop_assert_eq!(&out_adaptive[corner], &ob_adaptive.into_outcome(), "corner {}", corner);
        }
    }

    #[test]
    fn banked_cycle_timings_match_the_scalar_model(
        corners in 1u32..=9,
        master_seed in any::<u64>(),
    ) {
        let digest = digest_of(master_seed);
        let models = varied_models(corners, master_seed);
        let bank = CornerBank::from_models(&models);
        let mut mismatches = 0u64;
        bank.replay_digest(&digest, |cycle, dc, timings| {
            for (model, banked) in models.iter().zip(timings) {
                if model.digest_cycle_timing(cycle, dc) != *banked {
                    mismatches += 1;
                }
            }
        });
        prop_assert_eq!(mismatches, 0);
    }

    #[test]
    fn digest_binary_round_trip_is_byte_exact_and_replay_identical(
        master_seed in any::<u64>(),
    ) {
        let digest = digest_of(master_seed);
        let bytes = digest.to_bytes();
        let back = TimingDigest::from_bytes(&bytes).expect("round-trips");
        prop_assert_eq!(&back, &digest);
        prop_assert_eq!(back.to_bytes(), bytes);
        // A reloaded digest replays to the identical outcome.
        let model = nominal();
        let policy = InstructionBased::from_model(&model);
        prop_assert_eq!(
            replay_digest(&model, &back, &policy, &ClockGenerator::Ideal),
            replay_digest(&model, &digest, &policy, &ClockGenerator::Ideal)
        );
    }

    #[test]
    fn corrupted_digest_bytes_error_without_panicking(
        master_seed in any::<u64>(),
        position in any::<u64>(),
        mask in 1u8..=255u8,
    ) {
        let bytes = digest_of(master_seed).to_bytes();
        // Single-byte corruption anywhere is rejected (checksummed), and
        // truncation to any length errors instead of panicking.
        let at = (position % bytes.len() as u64) as usize;
        let mut bad = bytes.clone();
        bad[at] ^= mask;
        prop_assert!(TimingDigest::from_bytes(&bad).is_err(), "flip at {}", at);
        let cut = at; // reuse the position as an arbitrary truncation point
        prop_assert!(TimingDigest::from_bytes(&bytes[..cut]).is_err());
    }
}
