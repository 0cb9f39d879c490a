//! `constrain`: parse each design's Verilog, find its locations, then run
//! the paper's reactive delay-constrained heuristic at 10/5/1% (Table
//! III). One op is one pass over the whole circuit set, so every op does
//! the same work and no percentile falls between per-circuit clusters.
//! STA and the heuristics do the work here; SAT does none.

use std::time::Instant;

use odcfp_analysis::sta;
use odcfp_core::heuristics::{reactive_delay_reduction, ReactiveOptions};
use odcfp_core::{FingerprintedCopy, Fingerprinter};

use super::{
    area_overhead_pct, checked_capacity, design, fill_latency, fill_overhead, fill_setup,
    fill_unattributed, parse, span_ms, timed_rounds, Design,
};
use crate::oracle;
use crate::util::{mean, ms, peak_rss_mb, Layers, Rng};
use crate::{Config, Outcome};

const CIRCUITS: [&str; 6] = ["c432", "c880", "c3540", "i10", "k2", "des"];
const SMOKE_CIRCUITS: [&str; 2] = ["c432", "c880"];
pub const CONSTRAINTS: [f64; 3] = [10.0, 5.0, 1.0];
const SHORT_SETUP_REPEATS: usize = 9;
/// A pass takes ~10 s, so a 10 s run would hold one pass or two by
/// chance; every run times at least two, and the median is over both.
const MIN_PASSES: usize = 2;

/// What one circuit of one pass produced, kept for the checks.
struct CircuitResult {
    design: usize,
    fp: Fingerprinter,
    base_delay: f64,
    /// Per constraint: the surviving copy and its measured delay.
    copies: Vec<(f64, FingerprintedCopy, f64)>,
}

struct Pass {
    wall_ms: f64,
    ok: bool,
    results: Vec<CircuitResult>,
}

fn one_pass(designs: &[Design], order: &[usize], layers: &mut Layers, worker_ms: &mut f64) -> Pass {
    let start = Instant::now();
    let mut results = Vec::new();
    let mut ok = true;
    for &d in order {
        let text = &designs[d].text;
        let Ok(netlist) = layers.time("verilog.parse", || parse(text)) else {
            ok = false;
            continue;
        };
        layers.add("verilog.parse_bytes", text.len() as f64);
        let (fp, events) = layers.traced("analysis.locate", || Fingerprinter::new(netlist));
        *worker_ms += span_ms(&events, "engine.worker");
        let Ok(fp) = fp else {
            ok = false;
            continue;
        };
        let base_delay = layers.time("analysis.sta", || {
            sta::analyze(fp.base()).map(|t| t.max_delay())
        });
        layers.add("analysis.sta_calls", 1.0);
        let Ok(base_delay) = base_delay else {
            ok = false;
            continue;
        };
        let mut copies = Vec::new();
        for pct in CONSTRAINTS {
            let r = layers.time("heuristics.reactive", || {
                reactive_delay_reduction(&fp, pct, ReactiveOptions::default())
            });
            let Ok(r) = r else {
                ok = false;
                continue;
            };
            let delay = layers.time("analysis.sta", || {
                sta::analyze(r.copy.netlist()).map(|t| t.max_delay())
            });
            layers.add("analysis.sta_calls", 1.0);
            match delay {
                Ok(delay) => copies.push((pct, r.copy, delay)),
                Err(_) => ok = false,
            }
        }
        results.push(CircuitResult {
            design: d,
            fp,
            base_delay,
            copies,
        });
    }
    Pass {
        wall_ms: ms(start),
        ok,
        results,
    }
}

/// Per-pass figures, gathered as each pass is checked.
#[derive(Default)]
struct Checked {
    capacity: Vec<f64>,
    /// Bits kept at the tightest constraint, summed over designs.
    kept: Vec<f64>,
    areas: Vec<f64>,
    /// Verilog bytes of the tightest-constraint copies.
    bytes: Vec<f64>,
}

impl Checked {
    /// Checks the method's properties on one pass, with the oracle.
    fn add(&mut self, o: &mut Outcome, designs: &[Design], pass: &Pass, seed: u64) {
        let mut capacity = 0.0;
        let mut kept_tightest = 0.0;
        let mut bytes = 0.0;
        for r in &pass.results {
            let name = designs[r.design].name;
            capacity += checked_capacity(o, name, &r.fp);
            let mut last_kept = usize::MAX;
            for (pct, copy, delay) in &r.copies {
                let kept = copy.bits().iter().filter(|&&b| b).count();
                o.check(kept <= last_kept, || {
                    format!("{name}: kept bits grew to {kept} at {pct}% (was {last_kept})")
                });
                last_kept = kept;
                let overhead = (delay - r.base_delay) / r.base_delay * 100.0;
                o.check(overhead <= pct + 1e-9, || {
                    format!("{name}: delay overhead {overhead:.3}% exceeds the {pct}% constraint")
                });
                o.check(r.fp.extract(copy.netlist()) == copy.bits(), || {
                    format!("{name}@{pct}%: extract(copy) != embedded bits")
                });
                let text = odcfp_verilog::write_verilog(copy.netlist());
                if let Err(e) =
                    oracle::check_texts(&designs[r.design].text, &text, seed ^ kept as u64)
                {
                    o.check(false, || format!("{name}@{pct}%: oracle: {e}"));
                }
                self.areas
                    .push(area_overhead_pct(r.fp.base(), copy.netlist()));
                if *pct == CONSTRAINTS[CONSTRAINTS.len() - 1] {
                    kept_tightest += kept as f64;
                    bytes += text.len() as f64;
                }
            }
            o.check(r.copies.len() == CONSTRAINTS.len(), || {
                format!("{name}: a constraint run failed")
            });
        }
        self.capacity.push(capacity);
        self.kept.push(kept_tightest);
        self.bytes.push(bytes);
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let names: &[&'static str] = if cfg.smoke {
        &SMOKE_CIRCUITS
    } else {
        &CIRCUITS
    };
    let mut setups = Vec::new();
    let mut designs = Vec::new();
    // Every pass starts cold, so there is no warm state to build. Set-up
    // is what a user pays before choosing constraints: generating the
    // inputs and one cold parse and locate of each design. It is short
    // (~0.1 s), so it is repeated more often for a steady median.
    for _ in 0..SHORT_SETUP_REPEATS {
        let t = Instant::now();
        designs = names.iter().map(|&n| design(n)).collect();
        for d in &designs {
            let fp =
                parse(&d.text).and_then(|n| Fingerprinter::new(n).map_err(|e| e.to_string()))?;
            std::hint::black_box(fp);
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    fill_setup(&mut o, &setups);
    o.context.insert("circuits", names.join(","));

    // Each pass is checked as soon as it is timed and then dropped, so
    // memory holds one pass whatever the run length. Throughput divides
    // by the passes' own wall time, which leaves the checks out.
    let mut rng = Rng::new(cfg.seed);
    let mut checked = Checked::default();
    let mut phase = |trace: bool, seconds: f64, o: &mut Outcome| -> (Layers, f64, usize, f64) {
        let mut layers = Layers::new(trace);
        let mut worker_ms = 0.0;
        let mut lat = Vec::new();
        timed_rounds(seconds, MIN_PASSES, |round| {
            let mut order: Vec<usize> = (0..designs.len()).collect();
            rng.shuffle(&mut order);
            let pass = one_pass(&designs, &order, &mut layers, &mut worker_ms);
            o.op(pass.ok);
            lat.push(pass.wall_ms);
            checked.add(o, &designs, &pass, cfg.seed ^ round as u64);
            drop(pass);
            // The peak of the first pass and its checks, alike in every run.
            if !o.e2e.contains_key("peak_rss_mb") {
                o.e2e.insert("peak_rss_mb", peak_rss_mb(std::process::id()));
            }
            true
        });
        let wall_ms: f64 = lat.iter().sum();
        fill_latency(o, &lat, lat.len(), wall_ms / 1e3);
        (layers, worker_ms, lat.len(), wall_ms)
    };

    if cfg.trace {
        let (_, _, n_u, wall_u) = phase(false, cfg.seconds / 2.0, &mut o);
        let (layers, worker_ms, n, wall) = phase(true, cfg.seconds / 2.0, &mut o);
        fill_overhead(&mut o, n_u as f64 / wall_u, n as f64 / wall);
        let per = |v: f64| v / n as f64;
        let parse_ms = layers.ms_of("verilog.parse");
        let locate_ms = layers.ms_of("analysis.locate");
        let threads = odcfp_analysis::engine::configured_threads() as f64;
        o.layer.insert("verilog.parse_ms", per(parse_ms));
        o.layer.insert(
            "verilog.parse_mb_s",
            layers.count_of("verilog.parse_bytes") / 1e6 / (parse_ms / 1e3),
        );
        o.layer.insert("analysis.locate_ms", per(locate_ms));
        o.layer.insert("analysis.locate_cpu_ms", per(worker_ms));
        o.layer.insert(
            "analysis.parallel_efficiency",
            worker_ms / (threads * locate_ms),
        );
        o.layer
            .insert("analysis.sta_ms", per(layers.ms_of("analysis.sta")));
        o.layer.insert(
            "analysis.sta_calls",
            per(layers.count_of("analysis.sta_calls")),
        );
        o.layer.insert(
            "heuristics.reactive_ms",
            per(layers.ms_of("heuristics.reactive")),
        );
        fill_unattributed(&mut o, wall / n as f64, per(layers.attributed_ms()));
    } else {
        phase(false, cfg.seconds, &mut o);
    }

    o.e2e.insert("capacity_bits", mean(&checked.capacity));
    o.e2e.insert("constrained_bits", mean(&checked.kept));
    o.e2e.insert("area_overhead_pct", mean(&checked.areas));
    o.e2e.insert("bytes_per_buyer", mean(&checked.bytes));
    o.layer
        .insert("heuristics.kept_locations", mean(&checked.kept));
    Ok(o)
}
