//! Full-matrix verification: all 28 kernels × {RACER, MIMDRAM, Duality
//! Cache} × {MPU, Baseline}, each executed gate-exactly on the bit-plane
//! substrate and checked lane-by-lane against golden references.

use mastodon::{RecipePool, SimConfig};
use pum_backend::DatapathKind;
use std::sync::Arc;
use workloads::{all_kernels, run_kernel, run_kernel_pooled, KernelGroup};

#[test]
fn all_kernels_verify_on_racer_mpu() {
    for kernel in all_kernels() {
        let run = run_kernel(kernel.as_ref(), &SimConfig::mpu(DatapathKind::Racer), 4096, 11)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        assert!(run.verified, "{}", kernel.name());
        assert!(run.time_ns > 0.0, "{}", kernel.name());
    }
}

#[test]
fn all_kernels_verify_on_mimdram_mpu() {
    for kernel in all_kernels() {
        let run = run_kernel(kernel.as_ref(), &SimConfig::mpu(DatapathKind::Mimdram), 4096, 12)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        assert!(run.verified, "{}", kernel.name());
    }
}

#[test]
fn all_kernels_verify_on_duality_cache_mpu() {
    for kernel in all_kernels() {
        let run =
            run_kernel(kernel.as_ref(), &SimConfig::mpu(DatapathKind::DualityCache), 4096, 13)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        assert!(run.verified, "{}", kernel.name());
    }
}

#[test]
fn all_kernels_verify_on_racer_baseline() {
    for kernel in all_kernels() {
        let run = run_kernel(kernel.as_ref(), &SimConfig::baseline(DatapathKind::Racer), 4096, 14)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        assert!(run.verified, "{}", kernel.name());
        // Kernels with data-driven control flow must have triggered host
        // offloads (mux-blend, manhattan and euclidean are in divergent
        // groups but lower to straight-line MUX/MAX/MIN code).
        let control_flow =
            ["threshold", "clamp", "absdiff", "quantize", "ibert-sqrt", "softmax", "crc32"];
        if control_flow.contains(&kernel.name()) {
            assert!(
                run.wave.offload_events > 0,
                "{} should offload in Baseline mode",
                kernel.name()
            );
        }
    }
}

#[test]
fn mpu_beats_baseline_on_control_heavy_kernels() {
    for kernel in all_kernels() {
        if kernel.group() != KernelGroup::Complex {
            continue;
        }
        let n = 1 << 16;
        let mpu = run_kernel(kernel.as_ref(), &SimConfig::mpu(DatapathKind::Racer), n, 15).unwrap();
        let base =
            run_kernel(kernel.as_ref(), &SimConfig::baseline(DatapathKind::Racer), n, 15).unwrap();
        assert!(
            base.time_ns > mpu.time_ns,
            "{}: baseline {} ns should exceed MPU {} ns",
            kernel.name(),
            base.time_ns,
            mpu.time_ns
        );
    }
}

/// Every body segment of every kernel runs fused under the MPU
/// configuration on every substrate, with the `mpud` service's per-pass
/// watchdog budget armed: loops, predication and mask readouts split bodies
/// into segments but never force per-instruction stepping, and no segment
/// comes close enough to the budget for the watchdog to step it.
#[test]
fn every_kernel_runs_fused_on_every_substrate() {
    for kernel in all_kernels() {
        for kind in DatapathKind::ALL {
            let mut config = SimConfig::mpu(kind);
            config.recovery.watchdog_instructions = Some(200_000);
            let run = run_kernel(kernel.as_ref(), &config, 256, 17)
                .unwrap_or_else(|e| panic!("{} on {kind:?}: {e}", kernel.name()));
            assert!(run.verified, "{} on {kind:?}", kernel.name());
            assert!(run.tiers.0 > 0, "{} on {kind:?}: no fused segment", kernel.name());
            assert_eq!(run.tiers.1, 0, "{} on {kind:?}: a segment was stepped", kernel.name());
        }
    }
}

/// A kernel sweep leaves the same shared-pool counters whether its body
/// segments ran fused or stepped: fusion synthesizes every template in
/// both modes, and each template counts its miss at its first executed
/// probe.
#[test]
fn pool_counters_do_not_depend_on_the_execution_mode() {
    for kind in DatapathKind::ALL {
        let pools = [false, true].map(|fused| {
            let pool = Arc::new(RecipePool::new());
            let mut config = SimConfig::mpu(kind);
            config.trace_ensembles = fused;
            for kernel in all_kernels() {
                run_kernel_pooled(kernel.as_ref(), &config, 256, 17, Some(&pool))
                    .unwrap_or_else(|e| panic!("{} on {kind:?}: {e}", kernel.name()));
            }
            pool.stats()
        });
        assert_eq!(pools[0], pools[1], "{kind:?}: stepped vs fused pool counters");
        assert_eq!(pools[1].hits + pools[1].misses, pools[1].lookups);
        assert!(pools[1].misses > 0, "{kind:?}: synthesis must count as misses");
    }
}
