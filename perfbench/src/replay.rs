//! The `mpud` replay: a fixed, seeded set of distinct jobs in three
//! classes, replayed in closed loop against an in-process `Service`, each
//! outcome checked against its oracle.

use dpapi::{random_pipeline, ReduceOp, Stage};
use experiments::chaos::{gen_job, oracle, roomy_limits, slow_text, MixConfig};
use pum_backend::{DatapathKind, DatapathModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{
    JobError, JobOutcome, JobResult, JobSpec, Priority, RegInit, RegRef, Service, ServiceConfig,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Job classes, reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `experiments::chaos` straight-line compute jobs.
    Compute,
    /// `slow_text` data-dependent loops crossing ensemble boundaries.
    Loop,
    /// Single-launch `dpapi` pipeline lowerings.
    Pipeline,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 3] = [Class::Compute, Class::Loop, Class::Pipeline];

    /// Metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            Class::Compute => "compute",
            Class::Loop => "loop",
            Class::Pipeline => "pipeline",
        }
    }
}

/// What a correct outcome holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Per output register, the reference model's lane values.
    Lanes(Vec<Vec<u64>>),
    /// Filter pipeline: the values of the lanes whose keep flag (second
    /// output) is 1, in lane order.
    Survivors(Vec<u64>),
    /// Reduce pipeline: the first output's lanes folded with the op.
    Fold(ReduceOp, u64),
}

/// One distinct job of the replay set.
#[derive(Debug, Clone)]
pub struct Job {
    /// Report class.
    pub class: Class,
    /// The submission.
    pub spec: JobSpec,
    /// Its oracle.
    pub expect: Expect,
    /// The pipeline a pipeline job was lowered from.
    pub pipeline: Option<dpapi::Pipeline>,
}

/// Whether a job's outcome matches its oracle.
pub fn outcome_ok(expect: &Expect, result: &Result<JobResult, JobError>) -> bool {
    let Ok(result) = result else { return false };
    let out = &result.outputs;
    match expect {
        Expect::Lanes(want) => {
            out.len() == want.len()
                && out.iter().zip(want).all(|(got, want)| {
                    let lanes = got.values.len().min(want.len());
                    lanes > 0 && got.values[..lanes] == want[..lanes]
                })
        }
        Expect::Survivors(want) => {
            out.len() == 2 && {
                let kept: Vec<u64> = out[1]
                    .values
                    .iter()
                    .zip(&out[0].values)
                    .filter(|(flag, _)| **flag == 1)
                    .map(|(_, v)| *v)
                    .collect();
                kept == *want
            }
        }
        Expect::Fold(op, want) => {
            !out.is_empty()
                && out[0].values.iter().fold(op.identity(), |acc, &v| op.combine(acc, v)) == *want
        }
    }
}

/// A chaos-generator straight-line job moved to `backend` and re-checked
/// against the reference model there.
fn compute_job(rng: &mut StdRng, i: u64, backend: DatapathKind) -> (JobSpec, Expect) {
    let mix = MixConfig {
        tenants: 8,
        poison_frac: 0.0,
        fault_frac: 0.0,
        fault_rate: 0.0,
        deadline_frac: 0.0,
        slow_frac: 0.0,
    };
    let mut spec = gen_job(rng, i, &mix).spec;
    spec.backend = backend;
    let expect = Expect::Lanes(oracle(&spec));
    (spec, expect)
}

/// A `slow_text` loop job as the chaos generator makes them (r1 =
/// `iters`, r3 = 1, r2 read back), with `ensembles` loops.
fn loop_job(i: u64, ensembles: usize, iters: u64, backend: DatapathKind) -> (JobSpec, Expect) {
    let mut spec = JobSpec::ez(&format!("tenant-{}", i % 8), backend, &slow_text(ensembles));
    spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg: 1, values: vec![iters] });
    spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg: 3, values: vec![1] });
    spec.outputs.push(RegRef { rfh: 0, vrf: 0, reg: 2 });
    let expect = Expect::Lanes(oracle(&spec));
    (spec, expect)
}

/// A single-launch pipeline job, built as `dpapi_submission.rs` builds
/// them: a flag-path lowering (one element per lane) filling member
/// h0.v0, constants broadcast, every lane valid. The pipeline's shape is
/// drawn from `shapes`, its data from `rng`.
fn pipeline_job(
    shapes: &mut StdRng,
    rng: &mut StdRng,
    i: u64,
    backend: DatapathKind,
) -> (JobSpec, Expect, dpapi::Pipeline) {
    loop {
        let rp = random_pipeline(shapes.random_range(0..u64::MAX));
        let Ok(lowered) = rp.pipeline.lower() else { continue };
        let single_launch = lowered.seg == 1 && lowered.phase2.is_none();
        if !single_launch || lowered.flag.is_none() {
            continue;
        }
        let expect_of = |out: dpapi::PipelineOutput| match lowered.terminal {
            None => Some(Expect::Survivors(out.values)),
            Some(Stage::Reduce(op)) => out.reduced.map(|r| Expect::Fold(op, r)),
            _ => None,
        };
        let lanes = DatapathModel::for_kind(backend).geometry().lanes_per_vrf;
        let mut column = || (0..lanes).map(|_| rng.random_range(0..1u64 << 32)).collect::<Vec<_>>();
        let data = column();
        let columns: Vec<Vec<u64>> = rp.columns.iter().map(|_| column()).collect();
        let refs: Vec<&[u64]> = columns.iter().map(Vec::as_slice).collect();
        let Some(expect) = rp.pipeline.oracle(&data, &refs).ok().and_then(expect_of) else {
            continue;
        };

        let members = [(0u16, 0u16)];
        let tenant = format!("tenant-{}", i % 8);
        let mut spec = JobSpec::ez(&tenant, backend, &lowered.ezpim_text(&members));
        let mut init = |reg: u8, values: Vec<u64>| {
            spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg, values });
        };
        init(lowered.data[0].0 as u8, data);
        for (col, regs) in &lowered.zips {
            init(regs[0].0 as u8, columns[*col].clone());
        }
        for &(reg, value) in &lowered.consts {
            init(reg.0 as u8, vec![value; lanes]);
        }
        if let Some(v) = lowered.valid {
            init(v.0 as u8, vec![1; lanes]);
        }
        for (rfh, vrf, reg) in lowered.output_regs(&members) {
            spec.outputs.push(RegRef { rfh, vrf, reg });
        }
        return (spec, expect, rp.pipeline);
    }
}

/// The class of job `i`: in every 20 jobs, 16 compute, 3 loop and 1
/// pipeline, so the mix does not depend on the seed.
///
/// The shares are `MixConfig::default()`'s, with each kind the replay
/// leaves out counted as the kind it is built on: faulty jobs (15%) are
/// compute jobs (65%) under fault injection, deadline jobs (5%) are slow
/// loops (10%) with a deadline. That gives 80% compute and 15% loop. The
/// default mix has no pipeline jobs; they take the 5% of poison jobs,
/// which the replay also leaves out, so one distinct job in twenty is a
/// pipeline.
pub fn class_of(i: usize) -> Class {
    match i % 20 {
        0..=15 => Class::Compute,
        16..=18 => Class::Loop,
        _ => Class::Pipeline,
    }
}

/// Shuffles `items` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// The seeded set of `count` distinct jobs, all at Normal priority with
/// no faults or deadlines. Classes follow [`class_of`]; the substrate
/// turns with the job index and once more every 20 jobs, so every class
/// meets every substrate equally; loop jobs cycle through 3 to 6
/// ensembles, with iteration counts spread evenly over the chaos
/// generator's 20..=60.
///
/// The seed picks the compute programs and every job's data. Loop jobs
/// and the shapes of the pipelines are the same for every seed: the loop
/// jobs make the latency tail and most of a replay's time, and the
/// pipeline class is only 50 jobs, so drawing either from the seed would
/// move those figures through which jobs it draws, not through the data.
pub fn gen_jobs(seed: u64, count: usize) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_706c_6179);
    let mut shapes = StdRng::seed_from_u64(0x7069_7065_6c69_6e65);
    let loops = (0..count).filter(|&i| class_of(i) == Class::Loop).count() as u64;
    let mut iters = (0..loops).map(|k| 20 + k * 41 / loops.max(1));
    (0..count)
        .map(|i| {
            let class = class_of(i);
            let backend = DatapathKind::ALL[(i + i / 20) % DatapathKind::ALL.len()];
            let i = i as u64;
            let ((mut spec, expect), pipeline) = match class {
                Class::Compute => (compute_job(&mut rng, i, backend), None),
                Class::Loop => {
                    let n = iters.next().expect("one count per loop job");
                    (loop_job(i, 3 + (i as usize / 20) % 4, n, backend), None)
                }
                Class::Pipeline => {
                    let (spec, expect, pipeline) = pipeline_job(&mut shapes, &mut rng, i, backend);
                    ((spec, expect), Some(pipeline))
                }
            };
            spec.priority = Priority::Normal;
            Job { class, spec, expect, pipeline }
        })
        .collect()
}

/// `replays` passes over `jobs`, each in its own seeded order.
pub fn replay_order(seed: u64, jobs: usize, replays: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006f_7264_6572);
    let mut order = Vec::with_capacity(jobs * replays);
    for _ in 0..replays {
        let mut pass: Vec<usize> = (0..jobs).collect();
        shuffle(&mut rng, &mut pass);
        order.extend(pass);
    }
    order
}

/// The service under test: `workers` workers, limits that admit the loop
/// programs, everything else at its defaults.
pub fn start_service(workers: usize) -> Service {
    Service::start(ServiceConfig { workers, limits: roomy_limits(), ..Default::default() })
}

/// One completed job as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Report class.
    pub class: Class,
    /// Index of the task or distinct job in its set.
    pub task: usize,
    /// Submit to the return of `wait`, in µs.
    pub us: f64,
    /// The `submit` call alone, in µs.
    pub submit_us: f64,
    /// Admitted, completed and oracle-exact.
    pub ok: bool,
}

/// One replayed job, not yet checked.
#[derive(Debug)]
pub struct Done {
    /// Index into the job set.
    pub job: usize,
    /// Submit to the return of `wait`, in µs.
    pub us: f64,
    /// The `submit` call alone, in µs.
    pub submit_us: f64,
    /// The outcome; `None` if the job was not admitted.
    pub outcome: Option<JobOutcome>,
}

/// Replays `order` (indices into `jobs`) with `clients` closed-loop
/// client threads, one job in flight each. Returns what each client saw,
/// unchecked, and the wall time of the whole replay in seconds.
pub fn replay(
    service: &Service,
    jobs: &[Job],
    order: &[usize],
    clients: usize,
) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(order.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&job) = order.get(i) else { break };
                    let spec = jobs[job].spec.clone();
                    let t0 = Instant::now();
                    let admitted = service.submit(spec);
                    let submit_us = t0.elapsed().as_secs_f64() * 1e6;
                    let outcome = admitted.ok().and_then(|id| service.wait(id));
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    mine.push(Done { job, us, submit_us, outcome });
                }
                done.lock().expect("no client panics while holding the lock").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (done.into_inner().expect("clients joined"), elapsed)
}

/// Checks replayed jobs against their oracles. A job that was not
/// admitted, or has no outcome, fails.
pub fn check(jobs: &[Job], done: Vec<Done>) -> Vec<Sample> {
    done.into_iter()
        .map(|d| {
            let job = &jobs[d.job];
            let ok = d.outcome.is_some_and(|o| outcome_ok(&job.expect, &o.result));
            Sample { class: job.class, task: d.job, us: d.us, submit_us: d.submit_us, ok }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_covers_every_class() {
        let a = gen_jobs(42, 60);
        let b = gen_jobs(42, 60);
        assert_eq!(a.len(), 60);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.spec.program, y.spec.program);
            assert_eq!(x.expect, y.expect);
        }
        for class in Class::ALL {
            assert!(a.iter().any(|j| j.class == class), "{class:?} missing");
        }
        assert!(a.iter().all(|j| j.spec.priority == Priority::Normal && j.spec.fault.is_none()));
        assert_eq!(a.iter().filter(|j| j.class == Class::Loop).count(), 9);
        assert_eq!(a.iter().filter(|j| j.class == Class::Pipeline).count(), 3);
        // Every class meets every substrate; loop lengths span 20..=60
        // whatever the seed.
        let set = gen_jobs(9, 100);
        for class in Class::ALL {
            for kind in DatapathKind::ALL {
                assert!(set.iter().any(|j| j.class == class && j.spec.backend == kind));
            }
        }
        let mut lengths: Vec<u64> = set
            .iter()
            .filter(|j| j.class == Class::Loop)
            .map(|j| j.spec.inputs[0].values[0])
            .collect();
        lengths.sort_unstable();
        assert_eq!((lengths[0], lengths[lengths.len() - 1]), (20, 58));
        assert_eq!(replay_order(1, 5, 3), replay_order(1, 5, 3));
        let mut order = replay_order(1, 5, 3);
        order.sort_unstable();
        assert_eq!(order, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]);
    }

    fn result(outputs: &[&[u64]]) -> Result<JobResult, JobError> {
        let outputs = outputs
            .iter()
            .enumerate()
            .map(|(reg, v)| RegInit { rfh: 0, vrf: 0, reg: reg as u8, values: v.to_vec() })
            .collect();
        Ok(JobResult { outputs, cycles: 1, instructions: 1 })
    }

    #[test]
    fn oracle_checks_reject_a_corrupted_lane() {
        let lanes = Expect::Lanes(vec![vec![1, 2, 3]]);
        assert!(outcome_ok(&lanes, &result(&[&[1, 2, 3, 99]])));
        assert!(!outcome_ok(&lanes, &result(&[&[1, 2, 4]])));
        assert!(!outcome_ok(&lanes, &result(&[&[1, 2, 3], &[0]])));
        assert!(!outcome_ok(&lanes, &result(&[&[]])));
        let kept = Expect::Survivors(vec![5, 7]);
        assert!(outcome_ok(&kept, &result(&[&[5, 6, 7], &[1, 0, 1]])));
        assert!(!outcome_ok(&kept, &result(&[&[5, 6, 8], &[1, 0, 1]])));
        assert!(!outcome_ok(&kept, &result(&[&[5, 6, 7], &[1, 1, 1]])));
        let sum = Expect::Fold(ReduceOp::Sum, 6);
        assert!(outcome_ok(&sum, &result(&[&[1, 2, 3]])));
        assert!(!outcome_ok(&sum, &result(&[&[1, 2, 4]])));
        assert!(!outcome_ok(&sum, &Err(JobError::Cancelled)));
        let jobs = gen_jobs(42, 1);
        let refused = Done { job: 0, us: 1.0, submit_us: 1.0, outcome: None };
        assert!(!check(&jobs, vec![refused])[0].ok);
    }

    #[test]
    fn every_class_replays_oracle_exact() {
        let jobs = gen_jobs(42, 40);
        let service = start_service(2);
        let (done, secs) = replay(&service, &jobs, &replay_order(3, jobs.len(), 2), 2);
        service.shutdown();
        let samples = check(&jobs, done);
        assert_eq!(samples.len(), 80);
        assert!(samples.iter().all(|s| s.ok && s.us > 0.0), "{samples:?}");
        assert!(secs > 0.0);
    }
}
