//! Differential verification of the PrIM kernel group: every kernel ×
//! 5 substrates × 2 execution modes × optimizer-{on,off} must match the
//! plain-Rust oracle lane-exact (the harness compares every declared
//! output register on every lane against the golden reference).
//!
//! On top of the full matrix, proptest drives random seeds and problem
//! shapes (singleton, non-multiple-of-64, harness-minimum sizes), and
//! dedicated cases pin down the documented edge semantics: the all-false
//! `select` filter and duplicate `scatter` indices resolved
//! last-writer-wins.

use mastodon::SimConfig;
use proptest::prelude::*;
use pum_backend::{DatapathKind, OptConfig};
use workloads::{prim, run_kernel, Kernel};

/// The two body-execution modes, pinned the same way the conformance
/// differential suite pins them.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tier {
    Stepped,
    Fused,
}

const TIERS: [Tier; 2] = [Tier::Stepped, Tier::Fused];

fn config(kind: DatapathKind, tier: Tier, optimize: bool) -> SimConfig {
    let mut config = SimConfig::mpu(kind);
    config.trace_ensembles = tier == Tier::Fused;
    if !optimize {
        config.datapath = config.datapath.clone().with_opt_config(OptConfig::disabled());
    }
    config
}

fn prim_kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(prim::histogram()),
        Box::new(prim::spmv()),
        Box::new(prim::gather()),
        Box::new(prim::scatter()),
        Box::new(prim::select()),
        Box::new(prim::hashjoin()),
        Box::new(prim::prefixscan()),
    ]
}

fn check(kernel: &dyn Kernel, config: &SimConfig, n: u64, seed: u64, label: &str) {
    let run = run_kernel(kernel, config, n, seed)
        .unwrap_or_else(|e| panic!("{} [{label}]: {e}", kernel.name()));
    assert!(run.verified, "{} [{label}]: lane mismatch vs oracle", kernel.name());
}

/// The full matrix: 7 kernels × 5 backends × 2 modes × optimizer on/off.
#[test]
fn full_matrix_matches_oracle() {
    let n = 256;
    for kernel in prim_kernels() {
        for kind in DatapathKind::ALL {
            for tier in TIERS {
                for optimize in [true, false] {
                    let label = format!("{kind:?}/{tier:?}/opt={optimize}");
                    check(kernel.as_ref(), &config(kind, tier, optimize), n, 7, &label);
                }
            }
        }
    }
}

/// Singleton and non-multiple-of-64 problem sizes exercise the harness's
/// ragged chunking on every kernel.
#[test]
fn odd_shapes_match_oracle() {
    for kernel in prim_kernels() {
        for n in [1, 63, 65, 4097] {
            check(kernel.as_ref(), &SimConfig::mpu(DatapathKind::Racer), n, 21, &format!("n={n}"));
        }
    }
}

/// An all-false filter must yield an all-zero flag and value column.
#[test]
fn all_false_select_matches_oracle() {
    for kind in DatapathKind::ALL {
        check(&prim::select_none(), &SimConfig::mpu(kind), 256, 3, "select-none");
    }
}

/// Duplicate scatter indices on every lane: the documented
/// last-writer-wins resolution (pair 1 overwrites pair 0) must hold on
/// every substrate and mode.
#[test]
fn duplicate_scatter_indices_are_last_writer_wins() {
    for kind in DatapathKind::ALL {
        for tier in TIERS {
            let label = format!("scatter-dup/{kind:?}/{tier:?}");
            check(&prim::scatter_dup(), &config(kind, tier, true), 256, 9, &label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random seeds and shapes on the cheapest substrate, optimizer on
    /// and off: the oracle must hold for arbitrary input data.
    #[test]
    fn random_shapes_and_seeds_match_oracle(
        seed in any::<u64>(),
        n in 1u64..2048,
        optimize in any::<bool>(),
    ) {
        for kernel in prim_kernels() {
            let config = config(DatapathKind::Racer, Tier::Stepped, optimize);
            check(kernel.as_ref(), &config, n, seed, "proptest");
        }
    }
}
