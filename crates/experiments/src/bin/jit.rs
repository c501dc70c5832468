//! Execution-mode comparison: per-kernel host wall-clock of the body
//! executor stepping every instruction on its own vs. running fused
//! segments on MPU:RACER, with a bit-exactness check of the simulated
//! statistics on every row.
//!
//! Each mode is timed steady-state: a shared [`RecipePool`] per mode is
//! warmed once, so rows measure per-run execution cost — the regime every
//! sweep and figure harness runs in — rather than one-time template
//! synthesis. `segments` reports the wave simulation's body-segment
//! runs as `fused/total`.

use experiments::{fmt_ratio, geomean, print_table, SEED};
use mastodon::{RecipePool, SimConfig};
use pum_backend::DatapathKind;
use std::sync::Arc;
use std::time::Instant;
use workloads::{all_kernels, run_kernel_pooled};

/// Problem size: matches the perf gate's `cargo bench` sweep, not the
/// figure-scale `KERNEL_N`, so a row is milliseconds rather than minutes.
const N: u64 = 1 << 12;

/// Timing repetitions per mode (median reported).
const REPS: usize = 5;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let kernels = all_kernels();
    let stepped_cfg = {
        let mut c = SimConfig::mpu(DatapathKind::Racer);
        c.trace_ensembles = false;
        c
    };
    let fused_cfg = SimConfig::mpu(DatapathKind::Racer);
    let stepped_pool = Arc::new(RecipePool::new());
    let fused_pool = Arc::new(RecipePool::new());

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for k in &kernels {
        // Warm both pools and pin bit-exactness before timing anything.
        let stepped =
            run_kernel_pooled(k.as_ref(), &stepped_cfg, N, SEED, Some(&stepped_pool)).unwrap();
        let fused = run_kernel_pooled(k.as_ref(), &fused_cfg, N, SEED, Some(&fused_pool)).unwrap();
        assert_eq!(
            stepped.wave,
            fused.wave,
            "{}: modes disagree on simulated statistics",
            k.name()
        );

        let time = |cfg: &SimConfig, pool: &Arc<RecipePool>| {
            median_ms(
                (0..REPS)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(
                            run_kernel_pooled(k.as_ref(), cfg, N, SEED, Some(pool)).unwrap(),
                        );
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .collect(),
            )
        };
        let t_stepped = time(&stepped_cfg, &stepped_pool);
        let t_fused = time(&fused_cfg, &fused_pool);
        let speedup = t_stepped / t_fused;
        speedups.push(speedup);
        rows.push(vec![
            k.name().to_string(),
            format!("{}/{}", fused.tiers.0, fused.tiers.0 + fused.tiers.1),
            format!("{t_stepped:.2}"),
            format!("{t_fused:.2}"),
            fmt_ratio(speedup),
        ]);
    }
    rows.push(vec![
        "GEOMEAN".to_string(),
        String::new(),
        String::new(),
        String::new(),
        fmt_ratio(geomean(speedups.into_iter())),
    ]);

    print_table(
        &format!("Body executor — stepped vs. fused wall-clock, MPU:RACER (n = {N}, warm pool)"),
        &["kernel", "segments", "stepped ms", "fused ms", "speedup"],
        &rows,
    );
}
