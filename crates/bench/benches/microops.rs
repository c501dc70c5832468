//! Micro-op inner-loop benchmarks: the functional substrate's hot path.
//!
//! A 32-bit MUL expands into thousands of micro-ops replayed per VRF per
//! wave, so host-side throughput of `MicroOp::apply` (and the compiled
//! recipe path) bounds overall simulation speed. The lane transpose sits
//! on every host data load, transfer block, message application, and
//! kernel verification. End-to-end and per-layer wall-clock records come
//! from `perfbench/` (the `uop_ns.*` and `transpose_*_ns.*` layer metrics).

use criterion::{criterion_group, criterion_main, Criterion};
use mpu_isa::{BinaryOp, Instruction, RegId};
use pum_backend::{BitPlaneVrf, DatapathModel, MicroOp, Plane};
use std::hint::black_box;

fn mul_recipe() -> pum_backend::Recipe {
    let racer = DatapathModel::racer();
    racer
        .recipe(&Instruction::Binary {
            op: BinaryOp::Mul,
            rs: RegId(0),
            rt: RegId(1),
            rd: RegId(2),
        })
        .expect("MUL is a compute instruction")
}

fn seeded_vrf(lanes: usize) -> BitPlaneVrf {
    let mut vrf = BitPlaneVrf::new(lanes, 16);
    let a: Vec<u64> = (0..lanes as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let b: Vec<u64> = (0..lanes as u64).map(|i| i.wrapping_mul(0xc2b2_ae35_87c6_e5bd)).collect();
    vrf.write_lane_values(0, &a);
    vrf.write_lane_values(1, &b);
    vrf
}

/// One column-parallel micro-op: the smallest unit of simulated work.
fn bench_single_microop(c: &mut Criterion) {
    let mut group = c.benchmark_group("microop_single");
    for lanes in [64usize, 512] {
        let mut vrf = seeded_vrf(lanes);
        let nor = MicroOp::Nor {
            a: Plane::Reg { reg: 0, bit: 0 },
            b: Plane::Reg { reg: 1, bit: 0 },
            out: Plane::Scratch(0),
        };
        group.bench_function(format!("nor_{lanes}lane"), |b| {
            b.iter(|| nor.apply(black_box(&mut vrf)));
        });
        let fa = MicroOp::FullAdd {
            a: Plane::Reg { reg: 0, bit: 0 },
            b: Plane::Reg { reg: 1, bit: 0 },
            carry: Plane::Scratch(1),
            sum: Plane::Scratch(2),
        };
        group.bench_function(format!("fulladd_{lanes}lane"), |b| {
            b.iter(|| fa.apply(black_box(&mut vrf)));
        });
    }
    group.finish();
}

/// A full 32-bit MUL recipe (~19k micro-ops on RACER), replayed the way
/// `exec_compute_instr` replays it per wave member.
fn bench_full_recipe(c: &mut Criterion) {
    let recipe = mul_recipe();
    let mut group = c.benchmark_group("recipe_full");
    group.sample_size(10);
    let mut vrf = seeded_vrf(64);
    group.bench_function("mul_interpreted", |b| {
        b.iter(|| {
            for op in recipe.ops() {
                op.apply(black_box(&mut vrf));
            }
        });
    });
    let compiled = recipe.compile(64, 16);
    group.bench_function("mul_compiled", |b| {
        b.iter(|| black_box(&mut vrf).run_compiled(black_box(&compiled)));
    });
    group.finish();
}

/// Host data-load path: packing element values into bit-planes and back.
fn bench_lane_transpose(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_transpose");
    for lanes in [64usize, 512] {
        let values: Vec<u64> =
            (0..lanes as u64).map(|i| i.wrapping_mul(0x1234_5678_9abc_def1)).collect();
        let mut vrf = BitPlaneVrf::new(lanes, 16);
        group.bench_function(format!("write_{lanes}lane"), |b| {
            b.iter(|| black_box(&mut vrf).write_lane_values(3, black_box(&values)));
        });
        vrf.write_lane_values(3, &values);
        group.bench_function(format!("read_{lanes}lane"), |b| {
            b.iter(|| black_box(vrf.read_lane_values(3)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_microop, bench_full_recipe, bench_lane_transpose);
criterion_main!(benches);
