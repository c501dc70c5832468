//! `perfbench` — host wall-clock benchmark of the MPU simulator and the
//! `mpud` service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-warm|service-replay \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run measures one workload end to end. With
//! `--trace 1` it instead times calls into each layer's public functions
//! (see `layers.rs`) and prints the per-layer metrics, next to its own
//! end-to-end figures so the cost of tracing shows. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (each `{"value", "unit"}`); the line before it holds the
//! host metadata, the seed and the sample count behind every median and
//! percentile.

mod layers;
mod replay;
mod report;
mod sweep;

use replay::{Class, Sample};
use report::{beyond, median, nproc, peak_rss_kb, percentile, Metrics};
use std::sync::Arc;
use std::time::Instant;
use sweep::Sweep;

/// Set-ups per sweep run; `setup_s` is their median. Each loads the
/// kernel list and baseline and fills a fresh pool with one untimed,
/// checked pass on every core.
const SWEEP_SETUPS: usize = 5;
/// Fewest timed passes per run, however long they take.
const MIN_PASSES: usize = 5;
/// Distinct programs in the service replay set: enough that at least ten
/// lie beyond the nearest-rank p99.
pub const DISTINCT_JOBS: usize = 1000;
/// Timed replays of the set per service round.
pub const ROUND_REPLAYS: usize = 5;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 28 kernels × 5 substrates single-threaded on one warm, shared pool.
    SweepWarm,
    /// Closed-loop replay of a fixed job set against an in-process service.
    ServiceReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::SweepWarm, Workload::ServiceReplay];

    /// Command-line and metric-name spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepWarm => "sweep-warm",
            Workload::ServiceReplay => "service-replay",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed (the perf gate's seed by default).
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload sweep-warm|service-replay \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::SweepWarm,
        seed: bench::perf::GATE_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::ALL.into_iter().find(|w| w.name() == value).ok_or_else(bad)?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweep tasks or service jobs).
    pub attempted: u64,
    /// Operations whose result failed its check.
    pub failed: u64,
    /// Metrics to print.
    pub metrics: Metrics,
    /// Sample counts behind the medians and percentiles, as
    /// `(metric, count)`.
    pub samples: Vec<(String, usize)>,
}

impl Outcome {
    /// Counts `ok` correct results out of `attempted`.
    pub fn tally(&mut self, ok: u64, attempted: u64) {
        self.attempted += attempted;
        self.failed += attempted - ok;
    }

    /// Records `peak_rss_mb` and `ok_frac`.
    pub fn finish(&mut self, prefix: &str) {
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.metrics.put(format!("{prefix}peak_rss_mb"), peak_rss_kb() / 1024.0, "MiB");
        self.metrics.put(format!("{prefix}ok_frac"), ok, "ratio");
    }
}

/// Timed passes of a run. Every pass repeats the same items (the sweep's
/// tasks, or every distinct service job once), and every metric comes from
/// each item's median latency over the run, at quiet-host speed.
///
/// Other tenants of a shared host slow this code by up to 1.85x, every task
/// alike, in phases of seconds to minutes; such a phase can cover a whole
/// run, and then no statistic of the run's own timings is steady from one
/// run to the next. So each pass is bracketed by [`report::probe_s`], a
/// fixed loop of the executor's kind that the program cannot change, and
/// each latency of the pass is divided by how much slower the probe ran
/// than on a quiet host. A change to the program moves the latencies and
/// not the probe.
struct Timed {
    /// Passes timed so far.
    passes: usize,
    /// Items in flight at once: a pass takes their summed latency over this.
    in_flight: usize,
    /// Per item, its class and its latencies at quiet-host speed, in µs.
    seen: Vec<(Option<Class>, Vec<f64>)>,
    /// Per pass, how much slower than quiet the host ran it.
    slowdowns: Vec<f64>,
    /// The host-speed probe.
    probe: fn() -> f64,
}

impl Timed {
    /// A run over `items` items, `in_flight` of them at a time.
    fn new(items: usize, in_flight: usize) -> Self {
        Timed {
            passes: 0,
            in_flight,
            seen: vec![(None, Vec::new()); items],
            slowdowns: Vec::new(),
            probe: report::probe_s,
        }
    }

    /// Runs `pass` between two host-speed probes, then checks what it
    /// returned with `check`, keeps each item's latency scaled to quiet-host
    /// speed and tallies the results in `out`.
    fn pass<T>(
        &mut self,
        out: &mut Outcome,
        pass: impl FnOnce() -> T,
        check: impl FnOnce(T) -> Vec<Sample>,
    ) {
        let before = (self.probe)();
        let made = pass();
        let slowdown = (before + (self.probe)()) / 2.0 / report::PROBE_QUIET_S;
        let samples = check(made);
        self.passes += 1;
        self.slowdowns.push(slowdown);
        out.tally(samples.iter().filter(|s| s.ok).count() as u64, samples.len() as u64);
        for s in samples {
            let (class, seen) = &mut self.seen[s.task];
            *class = Some(s.class);
            seen.push(s.us / slowdown);
        }
    }

    /// Records every end-to-end metric; `item` names an item for the list
    /// of what lies beyond p99.
    fn report(&self, setups: &[f64], out: &mut Outcome, item: impl Fn(usize) -> String) {
        let best: Vec<(usize, Class, f64)> = self
            .seen
            .iter()
            .enumerate()
            .filter_map(|(i, (c, us))| c.map(|c| (i, c, median(us))))
            .collect();
        let all: Vec<f64> = best.iter().map(|b| b.2).collect();
        // A pass is its items' latencies, `in_flight` at a time (a closed
        // loop keeps that many busy, so a measured pass takes its summed
        // latency over them).
        let pass_s = all.iter().sum::<f64>() / 1e6 / self.in_flight as f64;
        out.metrics.put("setup_s", median(setups), "s");
        out.metrics.put("pass_s", pass_s, "s");
        out.metrics.put("jobs_per_s", self.seen.len() as f64 / pass_s, "1/s");
        for class in Class::ALL {
            let us: Vec<f64> = best.iter().filter(|b| b.1 == class).map(|b| b.2).collect();
            let name = format!("p50_us.{}", class.label());
            out.samples.push((name.clone(), us.len()));
            out.metrics.put(name, median(&us), "us");
        }
        let p99 = percentile(&all, 0.99);
        out.metrics.put("p99_us", p99, "us");
        out.samples.push(("p99_us".into(), all.len()));
        out.samples.push(("p99_us.beyond".into(), beyond(all.len(), 0.99)));
        let mut tail = std::collections::BTreeMap::new();
        for &(i, _, _) in best.iter().filter(|b| b.2 > p99) {
            *tail.entry(item(i)).or_insert(0) += 1;
        }
        out.samples.extend(tail.into_iter().map(|(name, n)| (format!("p99_us.tail.{name}"), n)));
        out.samples.push(("passes".into(), self.passes));
        // Median host slowdown over the passes, in percent of quiet speed.
        out.samples.push(("host_speed_pct".into(), (100.0 / median(&self.slowdowns)) as usize));
        out.samples.push(("setup_s".into(), setups.len()));
        out.finish("");
    }
}

/// Whether a run that started at `start` should time another pass.
fn more(start: Instant, passes: usize, seconds: f64) -> bool {
    passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds
}

/// Runs `make` `times` times, keeping the last result; returns it with
/// each set-up's time in seconds.
fn set_up<T>(
    times: usize,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..times.max(1) {
        let t = Instant::now();
        let made = make()?;
        secs.push(t.elapsed().as_secs_f64());
        kept = Some(made);
    }
    Ok((kept.expect("at least one set-up"), secs))
}

/// A sweep plus a pool every task's templates are already in.
fn warm_sweep(seed: u64, out: &mut Outcome) -> Result<(Sweep, Arc<mastodon::RecipePool>), String> {
    let sweep = Sweep::new(seed)?;
    let pool = Arc::new(mastodon::RecipePool::new());
    let runs = sweep.fill(&pool, nproc());
    out.tally(sweep.count_ok(&runs), runs.len() as u64);
    Ok((sweep, pool))
}

fn sweep_warm(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((sweep, pool), setups) = set_up(SWEEP_SETUPS, || warm_sweep(args.seed, &mut out))?;
    let mut timed = Timed::new(sweep.tasks().len(), 1);
    let start = Instant::now();
    while more(start, timed.passes, args.seconds) {
        timed.pass(&mut out, || sweep.warm_pass(&pool), |(runs, us)| sweep.samples(&runs, &us));
    }
    timed.report(&setups, &mut out, |i| sweep.task_name(i));
    Ok(out)
}

/// Runs service rounds until `seconds` have passed and at least
/// [`MIN_PASSES`] timed replays ran. A round starts a fresh service and
/// replays every distinct job once untimed (its set-up), then replays the
/// set [`ROUND_REPLAYS`] times, each replay one timed pass.
fn service_replay(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = replay::gen_jobs(args.seed, DISTINCT_JOBS);
    let workers = nproc();
    let every: Vec<usize> = (0..jobs.len()).collect();
    let (mut setups, mut timed) = (Vec::new(), Timed::new(jobs.len(), workers));
    let start = Instant::now();
    while more(start, timed.passes, args.seconds) {
        let t = Instant::now();
        let service = replay::start_service(workers);
        let (warm, _) = replay::replay(&service, &jobs, &every, workers);
        setups.push(t.elapsed().as_secs_f64());
        let warm = replay::check(&jobs, warm);
        out.tally(warm.iter().filter(|s| s.ok).count() as u64, warm.len() as u64);
        for _ in 0..ROUND_REPLAYS {
            let order = replay::replay_order(args.seed + timed.passes as u64, jobs.len(), 1);
            timed.pass(
                &mut out,
                || replay::replay(&service, &jobs, &order, workers).0,
                |done| replay::check(&jobs, done),
            );
        }
        service.shutdown();
    }
    timed.report(&setups, &mut out, |i| jobs[i].class.label().to_string());
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let result = if args.trace {
        layers::run(&args)
    } else {
        match args.workload {
            Workload::SweepWarm => sweep_warm(&args),
            Workload::ServiceReplay => service_replay(&args),
        }
    };
    let out = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let samples: Vec<String> =
        out.samples.iter().map(|(name, n)| format!("\"{name}\": {n}")).collect();
    println!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"samples\": {{{}}}}}",
        report::host_json(),
        args.workload.name(),
        args.seed,
        report::num(args.seconds),
        args.trace,
        samples.join(", ")
    );
    println!("{}", report::result_line(out.attempted, out.failed, &out.metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse_args(&argv("--workload sweep-warm --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::SweepWarm, 7, 3.0, true));
        let d = parse_args(&argv("--workload service-replay")).unwrap();
        assert_eq!((d.seed, d.trace), (bench::perf::GATE_SEED, false));
        for bad in
            ["", "--workload nope", "--workload sweep-warm --trace 2", "--seed 1", "--workload"]
        {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }

    thread_local! {
        /// How much slower than quiet the fake host runs.
        static HOST: std::cell::Cell<f64> = const { std::cell::Cell::new(1.0) };
    }

    fn fake_probe() -> f64 {
        HOST.with(|h| h.get()) * report::PROBE_QUIET_S
    }

    #[test]
    fn timings_are_median_latencies_at_quiet_host_speed() {
        let sample = |class, task, us| Sample { class, task, us, submit_us: 0.0, ok: true };
        let base = [10.0, 30.0, 50.0, 100.0, 700.0];
        // The second pass runs on a host twice as slow; items 0 and 1 each
        // meet extra noise once.
        let passes = [(1.0, [1.0, 1.0]), (2.0, [1.2, 1.0]), (1.0, [1.0, 1.4])];
        let (mut timed, mut out) = (Timed::new(5, 2), Outcome::default());
        timed.probe = fake_probe;
        for (host, noise) in passes {
            HOST.with(|h| h.set(host));
            let us = |i: usize| base[i] * host * noise.get(i).copied().unwrap_or(1.0);
            let made = vec![
                sample(Class::Compute, 0, us(0)),
                sample(Class::Compute, 1, us(1)),
                sample(Class::Compute, 2, us(2)),
                sample(Class::Loop, 3, us(3)),
                sample(Class::Pipeline, 4, us(4)),
            ];
            timed.pass(&mut out, || made, |samples| samples);
        }
        timed.report(&[3.0, 1.0, 2.0], &mut out, |i| format!("t{i}"));
        let get = |name| out.metrics.get(name).expect("metric printed");
        assert_eq!(get("p50_us.compute"), 30.0);
        assert_eq!(get("p50_us.loop"), 100.0);
        assert_eq!(get("p50_us.pipeline"), 700.0);
        assert_eq!(get("p99_us"), 700.0);
        assert_eq!(get("setup_s"), 2.0);
        // 890 µs of median latencies, two items at a time.
        assert!((get("pass_s") - 445e-6).abs() < 1e-12, "{}", get("pass_s"));
        assert_eq!(get("jobs_per_s"), 5.0 / get("pass_s"));
        assert_eq!((out.attempted, out.failed), (15, 0));
        for want in [("passes", 3), ("host_speed_pct", 100), ("p99_us.beyond", 0)] {
            assert!(out.samples.contains(&(want.0.into(), want.1)), "{want:?}");
        }
    }

    #[test]
    fn failures_lower_ok_frac() {
        let mut out = Outcome::default();
        out.tally(139, 140);
        out.tally(140, 140);
        out.finish("");
        assert_eq!((out.attempted, out.failed), (280, 1));
        assert_eq!(out.metrics.get("ok_frac"), Some(279.0 / 280.0));
    }
}
