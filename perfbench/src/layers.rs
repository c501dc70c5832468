//! The traced run: per-layer metrics, timed around calls into each layer's
//! public functions from this file. Nothing inside the program is
//! instrumented.
//!
//! Whatever `--workload` names, a traced run covers every layer, so it
//! always prints the same metric set:
//!
//! * a cold pass with its own `RecipePool` (pool counters, template count);
//! * the recipe layer replayed over the sweep's distinct templates;
//! * warm passes, each task timed whole (`run_kernel_pooled`) and at once
//!   in parts (`Kernel::build`, `run_single_pooled`);
//! * micro-op and lane-transpose loops on one VRF per substrate;
//! * the service job set parsed, assembled, lowered and run in-process,
//!   then replayed through a fresh `Service` with the client timing
//!   `submit` and `wait`.
//!
//! Its own end-to-end figures carry a `traced.` prefix; set against the
//! untraced run's figures they show what tracing costs.

use crate::replay::{self, Class, Sample};
use crate::report::{median, nproc, percentile, probe_s, rss_kb, PROBE_QUIET_S};
use crate::sweep::Sweep;
use crate::{Args, Outcome, DISTINCT_JOBS, ROUND_REPLAYS};
use mastodon::{run_single_pooled, RecipePool, SimConfig};
use mpu_isa::{BinaryOp, Instruction, Program, RegId};
use pum_backend::{build_recipe, BitPlaneVrf, DatapathKind, DatapathModel, Geometry};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use workloads::{parallel_map, run_kernel_pooled, KernelGroup};

/// Warm passes whose per-task median times the warm metrics report.
const WARM_PASSES: usize = 3;
/// Minimum wall time of one micro-benchmark loop, seconds.
const LOOP_SECONDS: f64 = 0.05;
/// Kernels reported on their own: the costliest bodies.
const HOT_KERNELS: [&str; 3] = ["ibert-sqrt", "softmax", "crc32"];

/// Metric-name spelling of a substrate.
pub fn sub_name(kind: DatapathKind) -> &'static str {
    match kind {
        DatapathKind::Racer => "racer",
        DatapathKind::Mimdram => "mimdram",
        DatapathKind::DualityCache => "duality",
        DatapathKind::Pluto => "pluto",
        DatapathKind::Dpu => "dpu",
        DatapathKind::Custom => "custom",
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The ensemble members the workloads harness simulates per wave: one VRF
/// per RFH, up to eight, leaving `vrf + 1` free for stencil staging.
fn harness_members(g: &Geometry) -> Vec<(u16, u16)> {
    let count = 8.min(g.max_active_vrfs_per_mpu()).max(1);
    (0..count).map(|i| ((i % g.rfhs_per_mpu) as u16, ((i / g.rfhs_per_mpu) * 2) as u16)).collect()
}

/// Runs `body` until [`LOOP_SECONDS`] have passed; returns ns per call.
fn ns_per_call(mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < LOOP_SECONDS {
        for _ in 0..64 {
            body();
        }
        calls += 64;
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Runs every layer probe and the traced end-to-end figures.
///
/// # Errors
///
/// The sweep baseline cannot be loaded.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sweep = Sweep::new(args.seed)?;
    let (pool, cold_thread_ms) = cold(&sweep, &mut out);
    let recipe_ms = recipes(&sweep, &mut out);
    let warm_ms = warm(&sweep, &pool, &mut out);
    out.metrics.put("unattributed_ms.sweep-cold", cold_thread_ms - recipe_ms - warm_ms, "ms");
    micro_ops(&mut out);
    transpose(&mut out);
    service(args, &mut out);
    out.finish("traced.");
    Ok(out)
}

/// One cold pass on every core with a pool of its own. It is what
/// `run_sweep_parallel` runs, driven here through `parallel_map` because
/// that call keeps its pool private and the pool counters are wanted.
/// Returns the pool (warm now) and the pass's thread time (wall ×
/// threads) in ms.
fn cold(sweep: &Sweep, out: &mut Outcome) -> (Arc<RecipePool>, f64) {
    let pool = Arc::new(RecipePool::new());
    let jobs = nproc();
    let t = Instant::now();
    let runs = parallel_map(sweep.tasks(), jobs, |task| {
        run_kernel_pooled(task.kernel, &task.config, task.n, task.seed, Some(&pool))
    });
    let wall_ms = ms_since(t);
    out.tally(sweep.count_ok(&runs), runs.len() as u64);
    let stats = pool.stats();
    out.metrics.put("traced.pass_s.sweep-cold", wall_ms / 1e3, "s");
    out.metrics.put("pool.hits", stats.hits as f64, "count");
    out.metrics.put("pool.misses", stats.misses as f64, "count");
    out.metrics.put("pool.hit_ratio", stats.hits as f64 / stats.lookups.max(1) as f64, "ratio");
    out.metrics.put("recipe.distinct.sweep", pool.len() as f64, "count");
    (pool, wall_ms * jobs as f64)
}

/// Distinct compute-class instructions of `programs` under `model`'s
/// synthesis context, keyed by encoding.
fn templates<'a>(
    model: &DatapathModel,
    programs: impl Iterator<Item = &'a Program>,
) -> BTreeMap<u32, Instruction> {
    let ctx = model.recipe_ctx();
    programs
        .flat_map(|p| p.instructions().iter().copied())
        .filter(|i| build_recipe(ctx, i).is_some())
        .map(|i| (i.encode(), i))
        .collect()
}

/// Replays synthesis, optimization and compilation over every distinct
/// template the sweep uses, per substrate. Returns the total in ms.
fn recipes(sweep: &Sweep, out: &mut Outcome) -> f64 {
    let mut total = 0.0;
    for config in &sweep.configs {
        let model = &config.datapath;
        let g = model.geometry();
        let members = harness_members(&g);
        let programs: Vec<Program> =
            sweep.kernels.iter().map(|k| k.build(&g, &members, sweep.seed).program).collect();
        let distinct = templates(model, programs.iter());
        let ctx = model.recipe_ctx();
        let t = Instant::now();
        for instr in distinct.values() {
            black_box(build_recipe(ctx, instr));
        }
        let synth = ms_since(t);
        let t = Instant::now();
        let built: Vec<_> = distinct.values().filter_map(|i| model.recipe_with_stats(i)).collect();
        let full = ms_since(t);
        let t = Instant::now();
        for (recipe, _) in &built {
            black_box(recipe.compile(g.lanes_per_vrf, g.regs_per_vrf));
        }
        let compile = ms_since(t);
        let sub = sub_name(model.kind());
        out.metrics.put(format!("recipe.synth_ms.{sub}"), synth, "ms");
        out.metrics.put(format!("recipe.opt_ms.{sub}"), full - synth, "ms");
        out.metrics.put(format!("recipe.compile_ms.{sub}"), compile, "ms");
        total += full + compile;
    }
    total
}

/// Per-task timings of the warm passes at quiet-host speed (see
/// `Timed` in `main.rs`), medians over [`WARM_PASSES`].
#[derive(Default)]
struct TaskTimes {
    /// The whole `run_kernel_pooled` call.
    whole: Vec<f64>,
    build: Vec<f64>,
    exec: Vec<f64>,
    /// Whole call minus its parts, taken back to back.
    harness: Vec<f64>,
}

/// Warm passes over `pool`. Each task is timed whole (`run_kernel_pooled`)
/// and then, at once and outside the pass's time, in parts, so a part is
/// measured under the same host conditions as the whole it belongs to.
/// Returns the summed per-task median layer time (build + exec + harness)
/// in ms.
fn warm(sweep: &Sweep, pool: &Arc<RecipePool>, out: &mut Outcome) -> f64 {
    let tasks = sweep.tasks();
    let mut times: Vec<TaskTimes> = tasks.iter().map(|_| TaskTimes::default()).collect();
    let mut uops = vec![0u64; tasks.len()];
    let mut fallback = vec![0u64; tasks.len()];
    let mut walls = Vec::new();
    for _ in 0..WARM_PASSES {
        let before = probe_s();
        let t = Instant::now();
        let mut aside_ms = 0.0;
        let mut raw = Vec::with_capacity(tasks.len());
        for (i, task) in tasks.iter().enumerate() {
            let t0 = Instant::now();
            let whole = run_kernel_pooled(task.kernel, &task.config, task.n, task.seed, Some(pool));
            let whole_ms = ms_since(t0);
            let aside = Instant::now();
            out.tally(sweep.count_ok(std::slice::from_ref(&whole)), 1);
            if let Ok(run) = whole {
                fallback[i] = run.tiers.1;
            }
            let g = task.config.datapath.geometry();
            let t0 = Instant::now();
            let built = task.kernel.build(&g, &harness_members(&g), task.seed);
            let build_ms = ms_since(t0);
            let t0 = Instant::now();
            let run =
                run_single_pooled(task.config.clone(), &built.program, &built.inputs, Some(pool));
            let exec_ms = ms_since(t0);
            if let Ok((stats, _)) = run {
                uops[i] = stats.uops;
            }
            raw.push((whole_ms, build_ms, exec_ms));
            aside_ms += ms_since(aside);
        }
        let wall_ms = ms_since(t) - aside_ms;
        let slowdown = (before + probe_s()) / 2.0 / PROBE_QUIET_S;
        for (tt, (whole, build, exec)) in times.iter_mut().zip(raw) {
            tt.whole.push(whole / slowdown);
            tt.build.push(build / slowdown);
            tt.exec.push(exec / slowdown);
            tt.harness.push((whole - build - exec) / slowdown);
        }
        walls.push(wall_ms / slowdown);
    }
    let med: Vec<(f64, f64, f64)> =
        times.iter().map(|t| (median(&t.harness), median(&t.build), median(&t.exec))).collect();
    let whole_ms: f64 = med.iter().map(|m| m.0 + m.1 + m.2).sum();
    // Composed as the untraced `pass_s` is, from each task's median call.
    let pass_ms: f64 = times.iter().map(|t| median(&t.whole)).sum();
    out.metrics.put("traced.pass_s.sweep-warm", pass_ms / 1e3, "s");
    // The pass's wall time its tasks' layer times do not cover.
    out.metrics.put("unattributed_ms.sweep-warm", median(&walls) - whole_ms, "ms");
    out.samples.push(("traced.pass_s.sweep-warm".into(), walls.len()));

    let sum = |pick: &dyn Fn(usize) -> bool, field: fn(&(f64, f64, f64)) -> f64| -> f64 {
        med.iter().enumerate().filter(|(i, _)| pick(*i)).map(|(_, m)| field(m)).sum()
    };
    for config in &sweep.configs {
        let kind = config.datapath.kind();
        let sub = sub_name(kind);
        let on = |i: usize| tasks[i].config.datapath.kind() == kind;
        for group in KernelGroup::ALL {
            let exec = sum(&|i| on(i) && tasks[i].kernel.group() == group, |m| m.2);
            out.metrics.put(format!("exec_ms.{}.{sub}", group.label()), exec, "ms");
        }
        for name in HOT_KERNELS {
            let exec = sum(&|i| on(i) && tasks[i].kernel.name() == name, |m| m.2);
            out.metrics.put(format!("exec_ms.{name}.{sub}"), exec, "ms");
        }
        let exec = sum(&on, |m| m.2);
        let build = sum(&on, |m| m.1);
        let sub_uops: u64 = (0..tasks.len()).filter(|&i| on(i)).map(|i| uops[i]).sum();
        let sub_fallback: u64 = (0..tasks.len()).filter(|&i| on(i)).map(|i| fallback[i]).sum();
        out.metrics.put(
            format!("exec_ns_per_uop.{sub}"),
            exec * 1e6 / sub_uops.max(1) as f64,
            "ns",
        );
        out.metrics.put(format!("tier.fallback.{sub}"), sub_fallback as f64, "count");
        out.metrics.put(format!("kernel_build_ms.{sub}"), build, "ms");
        out.metrics.put(format!("harness_ms.{sub}"), sum(&on, |m| m.0), "ms");
    }
    whole_ms
}

/// The substrate whose native logic family each `uop_ns` metric times.
const FAMILIES: [(&str, DatapathKind); 5] = [
    ("nor", DatapathKind::Racer),
    ("maj", DatapathKind::Mimdram),
    ("bitline", DatapathKind::DualityCache),
    ("lut", DatapathKind::Pluto),
    ("word", DatapathKind::Dpu),
];

fn lane_values(lanes: usize, salt: u64) -> Vec<u64> {
    (0..lanes as u64).map(|i| (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect()
}

/// ns per micro-op of a compiled ADD recipe run in place on one VRF.
fn micro_ops(out: &mut Outcome) {
    let add = Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
    for (family, kind) in FAMILIES {
        let model = DatapathModel::for_kind(kind);
        let g = model.geometry();
        let recipe = model.recipe(&add).expect("ADD has a recipe on every substrate");
        let compiled = recipe.compile(g.lanes_per_vrf, g.regs_per_vrf);
        let mut vrf = BitPlaneVrf::new(g.lanes_per_vrf, g.regs_per_vrf);
        vrf.write_lane_values(0, &lane_values(g.lanes_per_vrf, 1));
        vrf.write_lane_values(1, &lane_values(g.lanes_per_vrf, 2));
        let ns = ns_per_call(|| vrf.run_compiled(black_box(&compiled)));
        out.metrics.put(format!("uop_ns.{family}"), ns / recipe.len().max(1) as f64, "ns");
    }
}

/// ns per full-register lane transpose into and out of one VRF.
fn transpose(out: &mut Outcome) {
    for kind in DatapathKind::ALL {
        let g = DatapathModel::for_kind(kind).geometry();
        let mut vrf = BitPlaneVrf::new(g.lanes_per_vrf, g.regs_per_vrf);
        let values = lane_values(g.lanes_per_vrf, 3);
        let sub = sub_name(kind);
        let ns_in = ns_per_call(|| vrf.write_lane_values(3, black_box(&values)));
        let ns_out = ns_per_call(|| {
            black_box(vrf.read_lane_values(3));
        });
        out.metrics.put(format!("transpose_in_ns.{sub}"), ns_in, "ns");
        out.metrics.put(format!("transpose_out_ns.{sub}"), ns_out, "ns");
    }
}

/// A job's program text (every generated job is ezpim text).
fn job_text(job: &replay::Job) -> &str {
    match &job.spec.program {
        service::ProgramSource::EzText(text) => text,
        _ => unreachable!("the replay set holds only ezpim-text jobs"),
    }
}

/// Runs a job in-process the way a service worker does, without the
/// service: parse, assemble, simulate on `pool`, read the outputs back.
fn run_direct(job: &replay::Job, pool: &Arc<RecipePool>) -> bool {
    let Ok(program) = ezpim::parse(job_text(job)).map(|p| p.assemble()) else { return false };
    let Ok(program) = program else { return false };
    let mut config = SimConfig::mpu(job.spec.backend);
    config.recovery.watchdog_instructions =
        Some(experiments::chaos::roomy_limits().watchdog_instructions);
    let inputs: Vec<_> =
        job.spec.inputs.iter().map(|r| ((r.rfh, r.vrf, r.reg), r.values.clone())).collect();
    let Ok((_, mut mpu)) = run_single_pooled(config, &program, &inputs, Some(pool)) else {
        return false;
    };
    let outputs: Option<Vec<_>> = job
        .spec
        .outputs
        .iter()
        .map(|o| {
            let values = mpu.read_register(o.rfh, o.vrf, o.reg).ok()?;
            Some(service::RegInit { rfh: o.rfh, vrf: o.vrf, reg: o.reg, values })
        })
        .collect();
    outputs.is_some_and(|outputs| {
        let result = service::JobResult { outputs, cycles: 0, instructions: 0 };
        replay::outcome_ok(&job.expect, &Ok(result))
    })
}

fn class_median(samples: &[(Class, f64)], class: Class) -> f64 {
    let v: Vec<f64> = samples.iter().filter(|(c, _)| *c == class).map(|(_, v)| *v).collect();
    median(&v)
}

/// The service layers: front end per job, the same jobs in-process, and a
/// traced replay through a fresh service.
fn service(args: &Args, out: &mut Outcome) {
    let jobs = replay::gen_jobs(args.seed, DISTINCT_JOBS);

    // ezpim front end and dpapi lowering, per job.
    let (mut parse, mut assemble, mut lower) = (Vec::new(), Vec::new(), Vec::new());
    let mut distinct = BTreeSet::new();
    for job in &jobs {
        let t = Instant::now();
        let parsed = ezpim::parse(job_text(job));
        parse.push((job.class, us_since(t)));
        let t = Instant::now();
        let program = parsed.ok().and_then(|p| p.assemble().ok());
        assemble.push((job.class, us_since(t)));
        if let Some(program) = program {
            let model = DatapathModel::for_kind(job.spec.backend);
            let sub = sub_name(job.spec.backend);
            distinct
                .extend(templates(&model, std::iter::once(&program)).into_keys().map(|w| (sub, w)));
        }
        if let Some(pipeline) = &job.pipeline {
            let t = Instant::now();
            if let Ok(lowered) = pipeline.lower() {
                black_box(lowered.ezpim_text(&[(0, 0)]));
            }
            lower.push(us_since(t));
        }
    }
    out.metrics.put("recipe.distinct.service", distinct.len() as f64, "count");
    out.metrics.put("dpapi.lower_us", median(&lower), "us");

    // The same jobs in-process on a warm pool.
    let pool = Arc::new(RecipePool::new());
    let mut direct = Vec::new();
    let mut ok = 0;
    for pass in 0..2 {
        let before = probe_s();
        for job in &jobs {
            let t = Instant::now();
            let good = run_direct(job, &pool);
            if pass == 1 {
                direct.push((job.class, us_since(t)));
                ok += u64::from(good);
            }
        }
        if pass == 1 {
            // At quiet-host speed, as the traced replay is.
            let slowdown = (before + probe_s()) / 2.0 / PROBE_QUIET_S;
            direct.iter_mut().for_each(|d| d.1 /= slowdown);
        }
    }
    out.tally(ok, jobs.len() as u64);

    // Traced replays through a fresh, warmed service, taken as the
    // untraced run takes them: each job's median latency at quiet-host
    // speed.
    let workers = nproc();
    let service = replay::start_service(workers);
    let every: Vec<usize> = (0..jobs.len()).collect();
    let (warm, _) = replay::replay(&service, &jobs, &every, workers);
    let rss_before = rss_kb();
    let (mut samples, mut secs) = (Vec::new(), Vec::new());
    for k in 0..ROUND_REPLAYS {
        let order = replay::replay_order(args.seed + 1 + k as u64, jobs.len(), 1);
        let before = probe_s();
        let (done, s) = replay::replay(&service, &jobs, &order, workers);
        let slowdown = (before + probe_s()) / 2.0 / PROBE_QUIET_S;
        samples.extend(replay::check(&jobs, done).into_iter().map(|mut sample| {
            sample.us /= slowdown;
            sample
        }));
        secs.push(s / slowdown);
    }
    let rss_after = rss_kb();
    service.shutdown();
    let warm = replay::check(&jobs, warm);
    let count_ok = |s: &[Sample]| s.iter().filter(|s| s.ok).count() as u64;
    out.tally(count_ok(&warm), warm.len() as u64);
    out.tally(count_ok(&samples), samples.len() as u64);

    let mut seen = vec![Vec::new(); jobs.len()];
    for s in &samples {
        seen[s.task].push(s.us);
    }
    let best: Vec<f64> = seen.iter().map(|us| median(us)).collect();
    let latency: Vec<(Class, f64)> = jobs.iter().zip(&best).map(|(j, &us)| (j.class, us)).collect();
    let submit: Vec<(Class, f64)> = samples.iter().map(|s| (s.class, s.submit_us)).collect();
    for class in Class::ALL {
        let c = class.label();
        let p50 = class_median(&latency, class);
        let direct_us = class_median(&direct, class);
        out.metrics.put(format!("ezpim.parse_us.{c}"), class_median(&parse, class), "us");
        out.metrics.put(format!("ezpim.assemble_us.{c}"), class_median(&assemble, class), "us");
        out.metrics.put(format!("service.submit_us.{c}"), class_median(&submit, class), "us");
        out.metrics.put(format!("service.direct_us.{c}"), direct_us, "us");
        out.metrics.put(format!("service.overhead_us.{c}"), p50 - direct_us, "us");
        out.metrics.put(format!("traced.p50_us.{c}"), p50, "us");
    }
    out.metrics.put("traced.p99_us", percentile(&best, 0.99), "us");
    let pass_s = best.iter().sum::<f64>() / 1e6 / workers as f64;
    out.metrics.put("traced.jobs_per_s", jobs.len() as f64 / pass_s, "1/s");
    out.metrics.put(
        "service.rss_kb_per_job",
        (rss_after - rss_before) / samples.len() as f64,
        "KiB",
    );
    // Worker time the in-process cost of the replayed jobs does not cover
    // (every replay runs each job once).
    let direct_sum_ms: f64 = direct.iter().map(|d| d.1).sum::<f64>() / 1e3;
    out.metrics.put(
        "unattributed_ms.service-replay",
        secs.iter().sum::<f64>() * 1e3 * workers as f64 - direct_sum_ms * secs.len() as f64,
        "ms",
    );
    out.samples.push(("traced.p99_us".into(), best.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_decomposed_run_is_the_harness_run() {
        // `exec_ms` times the same simulation the harness runs, so the
        // member layout here must be the harness's.
        let sweep = Sweep::new(5).expect("sweep builds");
        for task in sweep.tasks().into_iter().filter(|t| t.kernel.name() == "jacobi2d") {
            let whole = run_kernel_pooled(task.kernel, &task.config, task.n, task.seed, None)
                .expect("task runs verified");
            let g = task.config.datapath.geometry();
            let built = task.kernel.build(&g, &harness_members(&g), task.seed);
            let (stats, _) =
                run_single_pooled(task.config.clone(), &built.program, &built.inputs, None)
                    .expect("decomposed run succeeds");
            assert_eq!(stats, whole.wave, "{} on {}", task.kernel.name(), whole.label);
        }
    }
}
