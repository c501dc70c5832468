//! The kernel sweep: 28 kernels × 5 substrates at the perf gate's problem
//! size, run single-threaded through `run_kernel_pooled` on one warm, shared
//! `RecipePool`. Each task is one timed job; runs are checked after the
//! pass.

use crate::replay::{Class, Sample};
use bench::perf::{KernelRecord, GATE_N, GATE_SEED};
use mastodon::{RecipePool, SimConfig};
use pum_backend::DatapathKind;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use workloads::{
    all_kernels, run_kernel_pooled, ChipRun, HarnessError, Kernel, KernelGroup, SweepTask,
};

/// Blessed simulated counters per `(kernel, config label)`.
pub type Baseline = HashMap<(String, String), KernelRecord>;

/// Everything a pass needs, built once per set-up.
pub struct Sweep {
    /// The 28 kernels.
    pub kernels: Vec<Box<dyn Kernel>>,
    /// One MPU configuration per substrate.
    pub configs: Vec<SimConfig>,
    /// Input-data seed.
    pub seed: u64,
    /// `BENCH_kernels.json`.
    pub baseline: Baseline,
}

impl Sweep {
    /// Builds the kernel and configuration lists and loads the blessed
    /// counters.
    ///
    /// # Errors
    ///
    /// The baseline file is missing or malformed.
    pub fn new(seed: u64) -> Result<Sweep, String> {
        let path = bench::perf::baseline_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let baseline = bench::perf::from_json(&text)?
            .into_iter()
            .map(|r| ((r.kernel.clone(), r.config.clone()), r))
            .collect();
        Ok(Sweep {
            kernels: all_kernels(),
            configs: DatapathKind::ALL.iter().map(|&k| SimConfig::mpu(k)).collect(),
            seed,
            baseline,
        })
    }

    /// The 140 tasks in kernel-major order, as the perf gate orders them.
    pub fn tasks(&self) -> Vec<SweepTask<'_>> {
        self.kernels
            .iter()
            .flat_map(|k| {
                self.configs.iter().map(|config| SweepTask {
                    kernel: k.as_ref(),
                    config: config.clone(),
                    n: GATE_N,
                    seed: self.seed,
                })
            })
            .collect()
    }

    /// One single-threaded pass over `pool`: the runs and each
    /// `run_kernel_pooled` call's time in µs; nothing is checked here.
    pub fn warm_pass(
        &self,
        pool: &Arc<RecipePool>,
    ) -> (Vec<Result<ChipRun, HarnessError>>, Vec<f64>) {
        self.tasks()
            .iter()
            .map(|t| {
                let t0 = Instant::now();
                let run = run_kernel_pooled(t.kernel, &t.config, t.n, t.seed, Some(pool));
                (run, t0.elapsed().as_secs_f64() * 1e6)
            })
            .unzip()
    }

    /// Checks a pass's runs (in task order) and pairs each with its
    /// latency.
    pub fn samples(&self, runs: &[Result<ChipRun, HarnessError>], us: &[f64]) -> Vec<Sample> {
        let exact = self.seed == GATE_SEED;
        self.tasks()
            .iter()
            .zip(runs.iter().zip(us))
            .enumerate()
            .map(|(task, (t, (run, &us)))| Sample {
                class: class_of(t.kernel.group()),
                task,
                us,
                submit_us: 0.0,
                ok: run_ok(run, &self.baseline, exact),
            })
            .collect()
    }

    /// `kernel/substrate` of task `i`.
    pub fn task_name(&self, i: usize) -> String {
        let kernel = &self.kernels[i / self.configs.len()];
        let kind = self.configs[i % self.configs.len()].datapath.kind();
        format!("{}/{}", kernel.name(), crate::layers::sub_name(kind))
    }

    /// Fills `pool` with every template the sweep uses, on `jobs` threads.
    pub fn fill(&self, pool: &Arc<RecipePool>, jobs: usize) -> Vec<Result<ChipRun, HarnessError>> {
        workloads::parallel_map(self.tasks(), jobs, |t| {
            run_kernel_pooled(t.kernel, &t.config, t.n, t.seed, Some(pool))
        })
    }

    /// Counts the verified results of a pass.
    pub fn count_ok(&self, runs: &[Result<ChipRun, HarnessError>]) -> u64 {
        let exact = self.seed == GATE_SEED;
        runs.iter().filter(|r| run_ok(r, &self.baseline, exact)).count() as u64
    }
}

/// The job class a kernel group reports under: straight-line bodies are
/// `compute`, the complex group's data-dependent loops are `loop`, and the
/// PrIM staples (what `dpapi` pipelines express) are `pipeline`.
pub fn class_of(group: KernelGroup) -> Class {
    match group {
        KernelGroup::Basic | KernelGroup::Branch | KernelGroup::Stencil => Class::Compute,
        KernelGroup::Complex => Class::Loop,
        KernelGroup::Prim => Class::Pipeline,
    }
}

/// A task is correct when every simulated lane matched its golden model
/// and its blessed record exists with the same program length and chip
/// scaling. With `exact` (the gate seed, whose data the record was
/// blessed on) every simulated counter must equal the record.
pub fn run_ok(run: &Result<ChipRun, HarnessError>, baseline: &Baseline, exact: bool) -> bool {
    let Ok(run) = run else { return false };
    let record = KernelRecord::from_run(run);
    let Some(blessed) = baseline.get(&(record.kernel.clone(), record.config.clone())) else {
        return false;
    };
    let same_shape = record.isa_instructions == blessed.isa_instructions
        && record.instances == blessed.instances;
    run.verified && same_shape && (!exact || record == *blessed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpu_isa::Instruction;
    use pum_backend::{DatapathModel, MicroOp, Plane, Recipe};

    fn vecadd(sweep: &Sweep) -> &dyn Kernel {
        sweep.kernels.iter().find(|k| k.name() == "vecadd").expect("vecadd exists").as_ref()
    }

    #[test]
    fn gate_seed_runs_match_the_blessed_counters() {
        let sweep = Sweep::new(GATE_SEED).expect("baseline loads");
        let config = SimConfig::mpu(DatapathKind::Racer);
        let run = run_kernel_pooled(vecadd(&sweep), &config, GATE_N, GATE_SEED, None);
        assert!(run_ok(&run, &sweep.baseline, true));
        assert_eq!(sweep.count_ok(&[run]), 1);
    }

    #[test]
    fn a_counter_that_differs_from_the_baseline_is_a_failure() {
        let sweep = Sweep::new(GATE_SEED).expect("baseline loads");
        let config = SimConfig::mpu(DatapathKind::Racer);
        let mut run = run_kernel_pooled(vecadd(&sweep), &config, GATE_N, GATE_SEED, None)
            .expect("vecadd runs");
        run.wave.uops += 1;
        let failed = HarnessError::Sim(mastodon::SimError::InvalidProgram("bad".into()));
        assert_eq!(sweep.count_ok(&[Ok(run.clone()), Err(failed)]), 0);
        // Off the gate seed only the program length and scaling are compared.
        assert!(run_ok(&Ok(run.clone()), &sweep.baseline, false));
        run.isa_instructions += 1;
        assert!(!run_ok(&Ok(run), &sweep.baseline, false));
    }

    #[test]
    fn a_corrupted_output_lane_is_a_failure() {
        // Swap vecadd's ADD template for one that writes all-zero bit
        // planes: the harness's lane check must reject the run.
        let sweep = Sweep::new(7).expect("sweep builds");
        let config = SimConfig::mpu(DatapathKind::Racer);
        let kernel = vecadd(&sweep);
        let pool = Arc::new(RecipePool::new());
        let model = DatapathModel::for_kind(DatapathKind::Racer);
        let built = kernel.build(&model.geometry(), &[(0, 0)], 7);
        let add = built
            .program
            .instructions()
            .iter()
            .find(|i| matches!(i, Instruction::Binary { .. }))
            .copied()
            .expect("vecadd has a binary instruction");
        let Instruction::Binary { rd, .. } = add else { unreachable!() };
        let zero = (0..64u8)
            .map(|bit| MicroOp::Set { out: Plane::Reg { reg: rd.0 as u8, bit }, value: false })
            .collect();
        pool.preload(model.recipe_ctx(), &add, Recipe::from_ops(zero));
        let run = run_kernel_pooled(kernel, &config, GATE_N, 7, Some(&pool));
        assert!(matches!(run, Err(HarnessError::Mismatch { .. })), "{run:?}");
        assert_eq!(sweep.count_ok(&[run]), 0);
    }
}
