//! The four workloads and what they share: design generation, the
//! timed loop of whole rounds, latency summaries and trace reading.

pub mod constrain;
pub mod mint;
pub mod population;
pub mod served;

use std::sync::Arc;
use std::time::Instant;

use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_obs::{Event, Kind};

use crate::util::{median, quantile};
use crate::Outcome;

/// Number of times a workload repeats its set-up, unless it says
/// otherwise (`constrain` 9, `population` 5); `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Lowest op count for which `op.p95_ms` is reported (at least ten
/// samples beyond the 95th percentile).
pub const P95_MIN_OPS: usize = 200;

/// A benchmark design: the generated netlist and its Verilog text, which
/// is what the workloads feed the program.
pub struct Design {
    pub name: &'static str,
    pub text: String,
}

pub fn library() -> Arc<CellLibrary> {
    CellLibrary::standard()
}

pub fn design(name: &'static str) -> Design {
    let netlist: Netlist = odcfp_synth::benchmarks::generate(name, library())
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    Design {
        name,
        text: odcfp_verilog::write_verilog(&netlist),
    }
}

pub fn parse(text: &str) -> Result<Netlist, String> {
    odcfp_verilog::parse_verilog(text, library()).map_err(|e| e.to_string())
}

/// Runs whole rounds until `seconds` of wall time have passed (at least
/// `min_rounds`), or until a round returns `false` because the workload
/// has no input left; returns the rounds run and the wall time they took.
pub fn timed_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> bool,
) -> (usize, f64) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        if !round(rounds) {
            break;
        }
        rounds += 1;
    }
    (rounds, start.elapsed().as_secs_f64())
}

/// Fills the latency metrics from one timed phase: throughput is
/// completed ops over the phase's wall time; the p95 is reported only
/// where the sample count supports it.
pub fn fill_latency(o: &mut Outcome, latencies_ms: &[f64], completed: usize, wall_s: f64) {
    o.e2e.insert("throughput_ops_s", completed as f64 / wall_s);
    o.e2e.insert("p50_ms", median(latencies_ms));
    o.layer.insert("op.count", latencies_ms.len() as f64);
    if latencies_ms.len() >= P95_MIN_OPS {
        o.layer.insert("op.p95_ms", quantile(latencies_ms, 0.95));
    }
}

/// Median of repeated set-ups, in seconds.
pub fn fill_setup(o: &mut Outcome, setups_s: &[f64]) {
    o.e2e.insert("setup_s", median(setups_s));
}

/// `obs.overhead_pct`: how much slower ops ran with the trace sink on.
pub fn fill_overhead(o: &mut Outcome, untraced_ops_s: f64, traced_ops_s: f64) {
    if traced_ops_s > 0.0 {
        o.layer.insert(
            "obs.overhead_pct",
            (untraced_ops_s / traced_ops_s - 1.0) * 100.0,
        );
    }
}

/// The remainder of op wall time that no timed layer call covers. The
/// layer calls are sequential on the op's thread, so a negative remainder
/// would mean double counting; it is a correctness failure.
pub fn fill_unattributed(o: &mut Outcome, op_wall_ms: f64, attributed_ms: f64) {
    if op_wall_ms > 0.0 {
        o.check(attributed_ms <= op_wall_ms * 1.0001, || {
            format!("layer wall {attributed_ms:.3} ms exceeds op wall {op_wall_ms:.3} ms")
        });
        o.layer.insert(
            "unattributed_pct",
            (op_wall_ms - attributed_ms) / op_wall_ms * 100.0,
        );
    }
    o.layer.insert(
        "op.threads",
        odcfp_analysis::engine::configured_threads() as f64,
    );
}

/// Summed duration in ms of spans named `name` (worker-thread spans
/// count as CPU time, never as wall time on the calling thread).
pub fn span_ms(events: &[Event], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.kind == Kind::Span && e.name == name)
        .filter_map(|e| e.dur_us)
        .sum::<u64>() as f64
        / 1e3
}

/// Area overhead of `copy` over `base`, in percent.
pub fn area_overhead_pct(base: &Netlist, copy: &Netlist) -> f64 {
    let b = odcfp_analysis::area::total_area(base);
    (odcfp_analysis::area::total_area(copy) / b - 1.0) * 100.0
}

/// Capacity recomputed from the location list (sum of log2 of each
/// location's options, "leave unmodified" included), checked against the
/// program's own report.
pub fn checked_capacity(o: &mut Outcome, name: &str, fp: &odcfp_core::Fingerprinter) -> f64 {
    let recomputed: f64 = fp
        .locations()
        .iter()
        .map(|l| ((l.candidates.len() + 1) as f64).log2())
        .sum();
    let reported = fp.capacity().log2_combinations;
    o.check(
        (recomputed - reported).abs() <= 1e-6 * recomputed.max(1.0),
        || format!("{name}: capacity {reported} != recomputed {recomputed}"),
    );
    recomputed
}
