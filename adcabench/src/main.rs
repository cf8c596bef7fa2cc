//! End-to-end and per-layer benchmark of the adca workspace.
//!
//! One command, three workloads (see `README.md` next to this crate):
//!
//! * `des-schemes` — the six schemes on one shared 24×24 input through
//!   `Scenario`, single-threaded;
//! * `wire-mix` — the adaptive production backend behind a `WireServer`,
//!   driven over loopback TCP by this benchmark's own closed loop;
//! * `check-adaptive` — a breadth-first exhaustion of the hardened
//!   adaptive core with `adca_checker::Model`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --manifest-path adcabench/Cargo.toml -- \
//!     --workload des-schemes --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every workload prints
//! the same metric names, each measured on that workload's own work (the
//! table in `README.md` says what each name means per workload): with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics. Figures that only one workload has (per-scheme rates, the
//! confirm latency, frame costs, checker state counts, ...) are printed
//! to standard error as `detail` lines; traced runs also write them, with
//! the spans recorded around each call into the program, to
//! `adcabench/out/`. A failed output check prints `"correct": false`,
//! names the check on standard error, and exits with code 1.

mod alloc;
mod check;
mod des;
mod host;
mod ledger;
mod spans;
mod wire;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: must lie in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (each workload defines its operation).
    pub attempted: u64,
    /// Operations that failed outright (no answer, refused, timed out).
    pub failed: u64,
    /// `(name, value, unit)` in print order: the manifest's metrics.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Figures of this workload alone, outside the manifest.
    pub details: Vec<(String, f64, &'static str)>,
    /// Output checks that did not hold; empty on a correct run.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }

    /// Records `what` as a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Folds a check's result into the outcome.
    pub fn expect(&mut self, res: Result<(), String>) {
        if let Err(e) = res {
            self.problems.push(e);
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// Records a problem unless the metrics are exactly `expected`, by
    /// name and unit, in order: the result line must carry every metric
    /// of the manifest, whatever the workload.
    fn expect_metrics(&mut self, expected: &[(&str, &str)]) {
        let printed: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect();
        if printed != expected {
            self.problems.push(format!(
                "printed metrics {printed:?}, the manifest lists {expected:?}"
            ));
        }
    }
}

/// The manifest's end-to-end metrics: every untraced run prints these.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cpu_us_per_op", "us"),
];

/// The manifest's per-layer metrics: every traced run prints these.
pub const PER_LAYER: [(&str, &str); 7] = [
    ("host.probe_ms", "ms"),
    ("hexgrid.topology_s", "s"),
    ("inputs.generate_s", "s"),
    ("core.steps_per_op", "count"),
    ("core.ns_per_step", "ns"),
    ("mem.heap_growth_mib", "MiB"),
    ("trace.cpu_us_per_op", "us"),
];

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    s.push('}');
    s
}

/// A finite number in JSON; non-finite values (which no metric should
/// produce) print as `null` so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`, `q` in `[0, 1]`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "the process status has no VmHWM line".to_owned())
}

/// Runs `f` `reps` times back to back and returns the calling thread's
/// CPU seconds per run — for set-up steps too short to time one at a time.
pub fn cpu_per_rep<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let started = host::thread_cpu_s();
    let mut last = f();
    for _ in 1..reps {
        last = std::hint::black_box(f());
    }
    ((host::thread_cpu_s() - started) / reps as f64, last)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adca-benchmark: {e}");
            eprintln!(
                "usage: adca-benchmark --workload des-schemes|wire-mix|check-adaptive \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut spans = spans::Spans::new(args.trace);
    let outcome = match args.workload.as_str() {
        "des-schemes" => des::run(&args, &mut spans),
        "wire-mix" => wire::run(&args, &mut spans),
        "check-adaptive" => check::run(&args, &mut spans),
        other => {
            eprintln!("adca-benchmark: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("adca-benchmark: {} failed to run: {e}", args.workload);
            std::process::exit(1);
        }
    };
    outcome.expect_metrics(if args.trace { &PER_LAYER } else { &END_TO_END });
    for (name, value, unit) in &outcome.details {
        eprintln!("detail {name} {} {unit}", json_number(*value));
    }
    if args.trace {
        match spans.write(&args.workload, args.seed, &outcome.details) {
            Ok(path) => eprintln!("spans and details written next to {}", path.display()),
            Err(e) => outcome.problems.push(format!("writing spans: {e}")),
        }
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", outcome.to_json());
    if !outcome.problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "wire-mix",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "wire-mix");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "x", "--seed"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let section = |key: &str, next: &str| {
            let from = manifest.find(key).expect("section present");
            let to = manifest[from..].find(next).map_or(manifest.len(), |i| from + i);
            &manifest[from..to]
        };
        let e2e = section("\"end_to_end\"", "\"per_layer\"");
        let layers = section("\"per_layer\"", "\"run_seconds\"");
        for (part, list) in [(e2e, &END_TO_END[..]), (layers, &PER_LAYER[..])] {
            assert_eq!(part.matches("\"name\"").count(), list.len(), "{part}");
            for (name, unit) in list {
                let at = part
                    .find(&format!("\"name\": \"{name}\""))
                    .unwrap_or_else(|| panic!("{name} missing from the manifest"));
                let unit_at = part[at..].find("\"unit\"").expect("unit") + at;
                assert!(
                    part[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"")),
                    "{name}: unit differs from {unit}"
                );
            }
        }
    }

    #[test]
    fn a_metric_missing_from_the_result_is_a_problem() {
        let mut o = Outcome::default();
        o.metric("setup_s", 1.0, "s");
        o.metric("cpu_us_per_op", 2.0, "us");
        o.expect_metrics(&END_TO_END);
        assert_eq!(o.problems.len(), 1, "{:?}", o.problems);
        let mut o = Outcome::default();
        for (n, u) in END_TO_END {
            o.metric(n, 1.0, u);
        }
        o.expect_metrics(&END_TO_END);
        assert!(o.problems.is_empty(), "{:?}", o.problems);
    }

    #[test]
    fn failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        assert!(o.to_json().starts_with("{\"correct\": true"));
        o.check(false, || "boom".into());
        o.metric("x_s", 1.5, "s");
        let j = o.to_json();
        assert!(j.starts_with("{\"correct\": false"), "{j}");
        assert!(
            j.contains("\"x_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            "{j}"
        );
    }
}
