//! Cross-mode check of the body executor over the whole kernel suite:
//! every kernel on every substrate runs with its body segments stepped one
//! instruction at a time and fused, each mode on its own warm
//! [`RecipePool`], and the two must agree on every simulated statistic.
//! Wall-clock timing of the sweep lives in `perfbench/`
//! (`--workload sweep-warm`), which supersedes the Criterion sweep groups
//! this file used to carry.

use bench::BENCH_N;
use mastodon::{RecipePool, SimConfig};
use pum_backend::DatapathKind;
use std::sync::Arc;
use workloads::{all_kernels, run_kernel_pooled};

const SWEEP_SEED: u64 = 1;

fn main() {
    let kernels = all_kernels();
    for kind in DatapathKind::ALL {
        let pools = [Arc::new(RecipePool::new()), Arc::new(RecipePool::new())];
        for k in &kernels {
            let run = |fused: bool| {
                let mut config = SimConfig::mpu(kind);
                config.trace_ensembles = fused;
                run_kernel_pooled(
                    k.as_ref(),
                    &config,
                    BENCH_N,
                    SWEEP_SEED,
                    Some(&pools[fused as usize]),
                )
                .unwrap_or_else(|e| panic!("{} on {kind:?}: {e}", k.name()))
            };
            let (stepped, fused) = (run(false), run(true));
            assert_eq!(stepped.wave, fused.wave, "{} on {kind:?}: modes disagree", k.name());
        }
    }
    println!("stepped and fused agree on {} kernels x 5 substrates", kernels.len());
}
