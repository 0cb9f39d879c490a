//! `perfbench`: the end-to-end and per-layer benchmark of the ODC
//! fingerprinting system. See README.md in this directory.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out PATH]
//! perfbench all    [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perfbench steady --workload W [--runs K] [--seed N] [--seconds S]
//! perfbench serve-child <odcfp serve flags>
//! ```
//!
//! A run prints one context line and, as its last stdout line, one JSON
//! object `{"correct","attempted","failed","metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod oracle;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["constrain", "mint", "population", "served"];

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("bytes_per_buyer", "B"),
    ("capacity_bits", "bits"),
    ("constrained_bits", "bits"),
    ("area_overhead_pct", "%"),
];

/// Per-layer metrics, named by module. A workload that does not reach a
/// layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("op.count", "count"),
    ("op.p95_ms", "ms"),
    ("verilog.parse_ms", "ms"),
    ("verilog.parse_mb_s", "MB/s"),
    ("verilog.write_ms", "ms"),
    ("analysis.locate_ms", "ms"),
    ("analysis.locate_cpu_ms", "ms"),
    ("analysis.parallel_efficiency", "ratio"),
    ("analysis.sta_ms", "ms"),
    ("analysis.sta_calls", "count"),
    ("heuristics.reactive_ms", "ms"),
    ("heuristics.kept_locations", "count"),
    ("embed.apply_ms", "ms"),
    ("verify.session_ms", "ms"),
    ("verify.warmup_buyers", "count"),
    ("verify.patterns", "count"),
    ("verify.strash_outputs", "count"),
    ("verify.cut_points_proven", "count"),
    ("verify.cut_points_refuted", "count"),
    ("verify.cut_points_skipped", "count"),
    ("verify.cut_refute_ratio", "ratio"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.conflicts_per_s", "1/s"),
    ("codebook.build_ms", "ms"),
    ("codebook.prove_ms", "ms"),
    ("codebook.prove_conflicts", "count"),
    ("codebook.check_us", "us"),
    ("campaign.leg_ms", "ms"),
    ("campaign.fsyncs", "count"),
    ("campaign.codebook_bytes", "B"),
    ("campaign.journal_bytes", "B"),
    ("serve.client_ms.verify_code", "ms"),
    ("serve.client_ms.verify_net", "ms"),
    ("serve.client_ms.verify_batched", "ms"),
    ("serve.client_ms.embed", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batched_share", "ratio"),
    ("serve.batch_size", "count"),
    ("serve.stream_chunks", "count"),
    ("serve.reply_bytes", "B"),
    ("obs.overhead_pct", "%"),
    ("unattributed_pct", "%"),
    ("op.threads", "count"),
];

/// Settings of one workload run.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes with every check on, for the benchmark's own tests.
    pub smoke: bool,
}

/// What a workload run measured and checked.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Violations of a correctness check; any one makes the run incorrect.
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    pub context: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            if self.problems.len() < 32 {
                self.problems.push(msg);
            }
        }
    }

    /// Records an op outcome: a failed op counts in `failed`, never as a
    /// wrong answer.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(o: &Outcome, trace: bool) -> String {
    let (list, values): (&[(&str, &str)], _) = if trace {
        (&PER_LAYER[..], &o.layer)
    } else {
        (&END_TO_END[..], &o.e2e)
    };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.problems.is_empty(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn context_line(workload: &str, cfg: &Config, o: &Outcome) -> String {
    let mut fields = vec![
        format!("\"workload\": \"{workload}\""),
        format!("\"seed\": {}", cfg.seed),
        format!("\"seconds\": {}", cfg.seconds),
        format!("\"trace\": {}", u8::from(cfg.trace)),
        format!("\"smoke\": {}", cfg.smoke),
        format!(
            "\"git_revision\": \"{}\"",
            json_escape(&util::git_revision())
        ),
        format!(
            "\"nproc\": {}",
            std::thread::available_parallelism().map_or(1, usize::from)
        ),
        format!(
            "\"odcfp_threads\": {}",
            odcfp_analysis::engine::configured_threads()
        ),
        format!(
            "\"solver_profile\": \"{}\"",
            odcfp_sat::SolverConfig::default().profile_name()
        ),
    ];
    for (k, v) in &o.context {
        fields.push(format!("\"{k}\": \"{}\"", json_escape(v)));
    }
    for p in &o.problems {
        fields.push(format!("\"problem\": \"{}\"", json_escape(p)));
    }
    format!("{{\"context\": {{{}}}}}", fields.join(", "))
}

struct Args {
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut switches = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => switches.push("smoke".to_owned()),
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--runs" => {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                flags.insert(a.trim_start_matches("--").to_owned(), v.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { flags, switches })
}

fn config_of(a: &Args) -> Result<Config, String> {
    let num = |k: &str, d: f64| -> Result<f64, String> {
        a.flags.get(k).map_or(Ok(d), |v| {
            v.parse::<f64>()
                .map_err(|_| format!("--{k}: not a number: {v:?}"))
        })
    };
    let trace = match a.flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, not {v:?}")),
    };
    Ok(Config {
        seed: num("seed", 1.0)? as u64,
        seconds: num("seconds", 10.0)?.max(0.0),
        trace,
        smoke: a.switches.iter().any(|s| s == "smoke"),
    })
}

fn run_workload(a: &Args) -> Result<ExitCode, String> {
    let name = a.flags.get("workload").ok_or("--workload is required")?;
    let cfg = config_of(a)?;
    let outcome = match name.as_str() {
        "constrain" => workloads::constrain::run(&cfg),
        "mint" => workloads::mint::run(&cfg),
        "population" => workloads::population::run(&cfg),
        "served" => workloads::served::run(&cfg),
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    }?;
    let context = context_line(name, &cfg, &outcome);
    let result = result_line(&outcome, cfg.trace);
    if let Some(path) = a.flags.get("out") {
        std::fs::write(path, format!("{context}\n{result}\n"))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{context}");
    println!("{result}");
    // The result line is printed either way; a wrong answer or a failed
    // op also shows in the exit code, as in `all`.
    Ok(if outcome.problems.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs this executable as a child for one workload and returns its
/// result line.
fn child_result(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    // A run that checked a wrong answer or a failed op still prints its
    // result line, and exits non-zero.
    match text.lines().last() {
        Some(line) if line.starts_with("{\"correct\"") => Ok(line.to_owned()),
        _ => Err(format!(
            "{workload} exited with {} and no result",
            out.status
        )),
    }
}

/// `all`: every workload, each in its own process.
fn run_all(a: &Args) -> Result<ExitCode, String> {
    let cfg = config_of(a)?;
    let mut ok = true;
    for w in WORKLOADS {
        match child_result(w, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke) {
            Ok(line) => {
                ok &= line.contains("\"correct\": true") && line.contains("\"failed\": 0,");
                println!("{{\"workload\": \"{w}\", \"result\": {line}}}");
            }
            Err(e) => {
                ok = false;
                println!(
                    "{{\"workload\": \"{w}\", \"error\": \"{}\"}}",
                    json_escape(&e)
                );
            }
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Reads `(name, bound)` of every end-to-end metric from BENCHMARK.json.
fn bounds_from_benchmark_json() -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let mut bounds = BTreeMap::new();
    let Some(e2e) = text.split("\"end_to_end\"").nth(1) else {
        return bounds;
    };
    let e2e = e2e.split(']').next().unwrap_or("");
    for entry in e2e.split('}') {
        let field = |key: &str| -> Option<String> {
            let rest = entry.split(&format!("\"{key}\"")).nth(1)?;
            let rest = rest.trim_start().strip_prefix(':')?.trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"').to_owned())
        };
        if let (Some(name), Some(bound)) = (field("name"), field("bound")) {
            if let Ok(b) = bound.parse() {
                bounds.insert(name, b);
            }
        }
    }
    bounds
}

fn metric_value(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("\"{name}\": {{\"value\": "))
}

/// `steady`: k runs of one workload with seeds seed..seed+k; prints each
/// end-to-end metric's median, quartiles, spread (IQR / median) and bound.
fn run_steady(a: &Args) -> Result<ExitCode, String> {
    let name = a
        .flags
        .get("workload")
        .ok_or("--workload is required")?
        .clone();
    let cfg = config_of(a)?;
    let runs: usize = a.flags.get("runs").map_or(Ok(10), |v| {
        v.parse().map_err(|_| "--runs: not a number".to_owned())
    })?;
    let bounds = bounds_from_benchmark_json();
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut fail_shares = Vec::new();
    for k in 0..runs as u64 {
        let line = child_result(&name, cfg.seed + k, cfg.seconds, false, cfg.smoke)?;
        eprintln!("run {k}: {line}");
        let attempted = number_after(&line, "\"attempted\": ").unwrap_or(0.0);
        let failed = number_after(&line, "\"failed\": ").unwrap_or(0.0);
        fail_shares.push(if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        });
        for (m, _) in END_TO_END {
            if let Some(v) = metric_value(&line, m) {
                values.entry(m).or_default().push(v);
            }
        }
    }
    println!("workload {name}: {runs} runs, failed shares {fail_shares:?}");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>8} {:>7} {:>6}",
        "metric", "q1", "median", "q3", "spread", "bound", "ok"
    );
    let mut steady = true;
    for (m, unit) in END_TO_END {
        let v = values.get(m).cloned().unwrap_or_default();
        // Python's statistics.quantiles(n=4), "exclusive" method.
        let (q1, med, q3) = exclusive_quartiles(&v);
        let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
        let bound = bounds.get(m).copied().unwrap_or(f64::NAN);
        // `setup_s` is held to its bound by the drift of its median
        // between two sets, not by its spread within one: set-up is a
        // few cold repeats per run and carries the host's drift whole.
        let ok = m == "setup_s" || spread <= bound / 3.0;
        steady &= ok;
        println!(
            "{:<20} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>7.3} {:>6} {unit}",
            m,
            q1,
            med,
            q3,
            spread,
            bound,
            if m == "setup_s" {
                "median"
            } else if ok {
                "yes"
            } else {
                "NO"
            }
        );
    }
    Ok(if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = line.split(key).nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn exclusive_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve-child") => {
            let mut stdout = std::io::stdout();
            return match odcfp_cli::run("serve", &args[1..], &mut stdout) {
                Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(u8::try_from(e.exit_code()).unwrap_or(1))
                }
            };
        }
        Some("all") => parse_args(&args[1..]).and_then(|a| run_all(&a)),
        Some("steady") => parse_args(&args[1..]).and_then(|a| run_steady(&a)),
        _ => parse_args(&args).and_then(|a| run_workload(&a)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(exclusive_quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(exclusive_quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.e2e.insert("setup_s", 1.5);
        let line = result_line(&o, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert_eq!(metric_value(&line, "setup_s"), Some(1.5));
    }
}
