//! Sample statistics, host probes and the result line.

use std::fmt::Write as _;

/// Named metrics in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name` with `value` in `unit`. A name is recorded once.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already recorded or is not a valid metric name.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(self.get(&name).is_none(), "metric {name:?} recorded twice");
        self.entries.push((name, value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// The `"metrics"` JSON object. Non-finite values print as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value));
        }
        out.push('}');
        out
    }
}

/// A metric name: starts with a letter or digit, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A JSON number with every digit `f64` holds (`null` if not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The final result line.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        metrics.to_json()
    )
}

/// Median of a sample (mean of the middle pair for even sizes); NaN when
/// empty.
pub fn median(sample: &[f64]) -> f64 {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// What one [`probe_s`] takes on a quiet host, in seconds; latencies are
/// reported at this host speed.
pub const PROBE_QUIET_S: f64 = 1.1e-3;

/// Times a fixed piece of work written in this package, in seconds: NOR,
/// AND and add over 64-word bit planes held in L1, the kind of loop the
/// simulator's micro-op executor spends its time in. The program under
/// test cannot change it, so how much slower it runs than
/// [`PROBE_QUIET_S`] is how much the host slows that kind of code at the
/// moment. Other tenants of a shared host slow it by up to 2x in phases of
/// seconds to minutes, and the simulator by up to 1.85x with it.
pub fn probe_s() -> f64 {
    const WORDS: usize = 64;
    const PLANES: usize = 32;
    let mut planes: Vec<u64> =
        (0..2 * PLANES * WORDS).map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let t = std::time::Instant::now();
    for round in 0..14_000usize {
        let (a, b) = planes.split_at_mut(PLANES * WORDS);
        let (src, dst) = ((round * 7) % (PLANES - 1), (round * 13) % (PLANES - 1));
        for w in 0..WORDS {
            let (x, y) = (a[src * WORDS + w], a[(src + 1) * WORDS + w]);
            b[dst * WORDS + w] = !(x | y) ^ (x & y).rotate_left(1);
        }
        for w in 0..WORDS {
            let v = a[dst * WORDS + w].wrapping_add(b[src * WORDS + w]);
            a[dst * WORDS + w] = v & !b[(src + 1) * WORDS + w];
        }
        std::hint::black_box(&mut planes);
    }
    t.elapsed().as_secs_f64()
}

/// Nearest-rank percentile, `p` in `(0, 1]`; NaN when empty.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Samples strictly above the nearest-rank `p` percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> f64 {
    status_kb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in KiB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Worker threads to use: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Host metadata as a JSON object: core count, the compiler the
/// benchmark was built with and the source revision it runs on.
pub fn host_json() -> String {
    format!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"git_sha\": \"{}\"}}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        git_sha()
    )
}

/// The commit checked out in the repository that holds this package, read
/// when the benchmark runs, so a rebuild that skips the build script
/// cannot report a stale one; `unknown` outside a git checkout. Never
/// looks in a directory above the repository.
fn git_sha() -> String {
    let package = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let Some(root) = package.canonicalize().ok().and_then(|p| p.parent().map(|r| r.to_owned()))
    else {
        return "unknown".into();
    };
    let ceiling = root.parent().unwrap_or(&root).to_owned();
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", &ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|sha| sha.trim().to_string())
        .filter(|sha| !sha.is_empty())
        .unwrap_or("unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5), 500.0);
        assert_eq!(percentile(&sample, 0.99), 990.0);
        assert_eq!(percentile(&sample, 1.0), 1000.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(0, 0.99), 0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn metric_names_are_checked() {
        for good in ["p50_us.compute", "exec_ms.ibert-sqrt.pluto", "setup_s", "0x"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".p50", "p50 us", "p50/us", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metric_names_are_rejected() {
        let mut m = Metrics::default();
        m.put("pass_s", 1.0, "s");
        m.put("pass_s", 2.0, "s");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("pass_s", 0.123_456_789, "s");
        m.put("ok_frac", 1.0, "ratio");
        m.put("bad", f64::NAN, "s");
        let line = result_line(140, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 140, \"failed\": 0, \"metrics\": \
             {\"pass_s\": {\"value\": 0.123456789, \"unit\": \"s\"}, \
             \"ok_frac\": {\"value\": 1, \"unit\": \"ratio\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
        let doc = microjson::Value::parse(&line).expect("result line parses as JSON");
        assert_eq!(doc.get("attempted").and_then(microjson::Value::as_u64), Some(140));
        assert!(result_line(140, 1, &m).starts_with("{\"correct\": false"));
        assert!(result_line(0, 0, &m).starts_with("{\"correct\": false"));
    }
}
