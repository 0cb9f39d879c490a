//! `mint`: per-buyer full-artifact minting, in memory. One op mints one
//! buyer's copy of every design in the set: `embed_verified(bits, None)`,
//! then `VerifySession::verify(strict)`, then `write_verilog`. Minting
//! the whole set per op keeps op cost uniform, so the median does not
//! sit between per-circuit latency clusters. The verify sweep, SAT and
//! the Verilog writer do the work.

use std::collections::HashSet;
use std::time::Instant;

use odcfp_core::{
    artifact_identity, Fingerprinter, Verdict, VerifyLevel, VerifyPolicy, VerifySession,
};
use odcfp_netlist::{Digest128, Netlist};

use super::{
    area_overhead_pct, checked_capacity, design, fill_latency, fill_overhead, fill_setup,
    fill_unattributed, parse, timed_rounds, SETUP_REPEATS,
};
use crate::oracle;
use crate::util::{mean, ms, peak_rss_mb, Layers, Rng};
use crate::{Config, Outcome};

const CIRCUITS: [&str; 4] = ["c3540", "i10", "des", "c6288"];
const SMOKE_CIRCUITS: [&str; 2] = ["c432", "c880"];
/// Set-up mints buyers of each design until its verify session has
/// learnt its steady state: `WARMUP_STREAK` consecutive verifies that
/// spend no SAT conflict, after at least `WARMUP_MIN` and at most
/// `WARMUP_MAX` buyers. How long that takes differs by design (c6288
/// ~14 buyers, des ~35, i10 ~40) and shows in `setup_s` and
/// `verify.warmup_buyers`.
const WARMUP_MIN: usize = 8;
const WARMUP_STREAK: usize = 4;
const WARMUP_MAX: usize = 96;
/// One op in this many keeps its copies for the oracle checks.
const SAMPLE_EVERY: usize = 16;

struct Minter {
    name: &'static str,
    text: String,
    fp: Fingerprinter,
    session: VerifySession,
    golden: Digest128,
    /// Cumulative solver counters last seen, for per-op deltas.
    sat_seen: [u64; 3],
    /// Buyers minted in set-up before the session settled.
    warmup: usize,
}

struct Sample {
    minter: usize,
    bits: Vec<bool>,
    copy: Netlist,
    text: String,
}

fn setup(
    names: &[&'static str],
    rng: &mut Rng,
    layers: &mut Layers,
) -> Result<Vec<Minter>, String> {
    let strict = VerifyPolicy::strict();
    names
        .iter()
        .map(|&name| {
            let d = design(name);
            let netlist = layers.time("verilog.parse", || parse(&d.text))?;
            let fp = layers
                .time("analysis.locate", || Fingerprinter::new(netlist))
                .map_err(|e| e.to_string())?;
            let mut session = VerifySession::new(fp.base()).map_err(|e| e.to_string())?;
            let mut sat_seen = [0; 3];
            let mut streak = 0;
            let mut warmup = 0;
            while warmup < WARMUP_MAX && (warmup < WARMUP_MIN || streak < WARMUP_STREAK) {
                warmup += 1;
                let bits = rng.bits(fp.locations().len());
                let copy = fp
                    .embed_verified(&bits, VerifyLevel::None)
                    .map_err(|e| e.to_string())?;
                let report = session
                    .verify(copy.netlist(), &strict)
                    .map_err(|e| e.to_string())?;
                streak = if report.stats.sat_conflicts == 0 {
                    streak + 1
                } else {
                    0
                };
                if let Some(st) = report.stats.solver {
                    sat_seen = [st.conflicts, st.decisions, st.propagations];
                }
            }
            Ok(Minter {
                name,
                golden: Digest128::of(d.text.as_bytes()),
                text: d.text,
                fp,
                session,
                sat_seen,
                warmup,
            })
        })
        .collect()
}

/// Mints one buyer's copies of every design; returns (ok, artifact
/// bytes). Each copy's area overhead goes to `areas[design]`.
fn mint_one(
    minters: &mut [Minter],
    rng: &mut Rng,
    layers: &mut Layers,
    identities: &mut HashSet<(usize, u128)>,
    mut keep: Option<&mut Vec<Sample>>,
    areas: &mut [Vec<f64>],
    o: &mut Outcome,
) -> (bool, usize) {
    let strict = VerifyPolicy::strict();
    let mut ok = true;
    let mut bytes = 0;
    for (i, m) in minters.iter_mut().enumerate() {
        let bits = rng.bits(m.fp.locations().len());
        let copy = match layers.time("embed.apply", || {
            m.fp.embed_verified(&bits, VerifyLevel::None)
        }) {
            Ok(c) => c,
            Err(_) => {
                ok = false;
                continue;
            }
        };
        let session = &mut m.session;
        match layers.time("verify.session", || session.verify(copy.netlist(), &strict)) {
            Ok(report) => {
                ok &= report.verdict == Verdict::Proven;
                let s = &report.stats;
                layers.add("verify.patterns", s.patterns_simulated as f64);
                layers.add("verify.strash_outputs", s.strash_proven_outputs as f64);
                layers.add("verify.cut_points_proven", s.cut_points_proven as f64);
                layers.add("verify.cut_points_refuted", s.cut_points_refuted as f64);
                layers.add("verify.cut_points_skipped", s.cut_points_skipped as f64);
                if let Some(st) = &s.solver {
                    let now = [st.conflicts, st.decisions, st.propagations];
                    for (k, name) in ["sat.conflicts", "sat.decisions", "sat.propagations"]
                        .into_iter()
                        .enumerate()
                    {
                        layers.add(name, now[k].saturating_sub(m.sat_seen[k]) as f64);
                    }
                    m.sat_seen = now;
                }
            }
            Err(_) => ok = false,
        }
        let text = layers.time("verilog.write", || {
            odcfp_verilog::write_verilog(copy.netlist())
        });
        bytes += text.len();
        areas[i].push(area_overhead_pct(m.fp.base(), copy.netlist()));
        let identity = artifact_identity(m.golden, &bits);
        o.check(identities.insert((i, identity.0)), || {
            format!("{}: two buyers share artifact identity {identity}", m.name)
        });
        if let Some(keep) = keep.as_deref_mut() {
            keep.push(Sample {
                minter: i,
                bits,
                copy: copy.into_netlist(),
                text,
            });
        }
    }
    (ok, bytes)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let names: &[&'static str] = if cfg.smoke {
        &SMOKE_CIRCUITS
    } else {
        &CIRCUITS
    };
    o.context.insert("circuits", names.join(","));
    let mut rng = Rng::new(cfg.seed);
    let mut setups = Vec::new();
    let mut minters = Vec::new();
    let mut setup_layers = Layers::default();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        minters = setup(names, &mut rng, &mut setup_layers)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    fill_setup(&mut o, &setups);
    let warmups: Vec<String> = minters
        .iter()
        .map(|m| format!("{}:{}", m.name, m.warmup))
        .collect();
    o.context.insert("warmup_buyers", warmups.join(","));
    o.layer.insert(
        "verify.warmup_buyers",
        minters.iter().map(|m| m.warmup as f64).sum(),
    );

    let mut identities = HashSet::new();
    let mut samples = Vec::new();
    let mut areas = vec![Vec::new(); minters.len()];
    let mut bytes = Vec::new();
    let mut phase = |trace: bool, seconds: f64, o: &mut Outcome| -> (Layers, usize, f64) {
        let mut layers = Layers::new(trace);
        let mut lat = Vec::new();
        let (rounds, wall) = timed_rounds(seconds, 1, |round| {
            let t = Instant::now();
            let keep = (round % SAMPLE_EVERY == 0).then_some(&mut samples);
            let (ok, b) = mint_one(
                &mut minters,
                &mut rng,
                &mut layers,
                &mut identities,
                keep,
                &mut areas,
                o,
            );
            lat.push(ms(t));
            o.op(ok);
            bytes.push(b as f64);
            true
        });
        fill_latency(o, &lat, rounds, wall);
        (layers, rounds, lat.iter().sum())
    };

    if cfg.trace {
        let (_, n_u, wall_u) = phase(false, cfg.seconds / 2.0, &mut o);
        let (layers, n, wall) = phase(true, cfg.seconds / 2.0, &mut o);
        fill_overhead(&mut o, n_u as f64 / wall_u, n as f64 / wall);
        let per = |v: f64| v / n as f64;
        o.layer
            .insert("embed.apply_ms", per(layers.ms_of("embed.apply")));
        o.layer
            .insert("verify.session_ms", per(layers.ms_of("verify.session")));
        o.layer
            .insert("verilog.write_ms", per(layers.ms_of("verilog.write")));
        for k in [
            "verify.patterns",
            "verify.strash_outputs",
            "verify.cut_points_proven",
            "verify.cut_points_refuted",
            "verify.cut_points_skipped",
            "sat.conflicts",
            "sat.decisions",
            "sat.propagations",
        ] {
            o.layer.insert(k, per(layers.count_of(k)));
        }
        let refuted = layers.count_of("verify.cut_points_refuted");
        let tried = refuted + layers.count_of("verify.cut_points_proven");
        o.layer.insert(
            "verify.cut_refute_ratio",
            if tried > 0.0 { refuted / tried } else { 0.0 },
        );
        o.layer.insert(
            "sat.conflicts_per_s",
            layers.count_of("sat.conflicts") / (layers.ms_of("verify.session") / 1e3),
        );
        o.layer.insert(
            "verilog.parse_ms",
            setup_layers.ms_of("verilog.parse") / SETUP_REPEATS as f64,
        );
        o.layer.insert(
            "analysis.locate_ms",
            setup_layers.ms_of("analysis.locate") / SETUP_REPEATS as f64,
        );
        fill_unattributed(&mut o, wall / n as f64, per(layers.attributed_ms()));
    } else {
        phase(false, cfg.seconds, &mut o);
    }

    // Peak memory of the minting itself, before the checks allocate.
    o.e2e.insert("peak_rss_mb", peak_rss_mb(std::process::id()));

    // Checks on the sampled copies: extraction and oracle equivalence.
    let mut capacity = 0.0;
    let mut locations = 0.0;
    for m in &minters {
        capacity += checked_capacity(&mut o, m.name, &m.fp);
        locations += m.fp.locations().len() as f64;
    }
    for (k, s) in samples.iter().enumerate() {
        let m = &minters[s.minter];
        o.check(m.fp.extract(&s.copy) == s.bits, || {
            format!("{}: extract(copy) != bits", m.name)
        });
        if let Err(e) = oracle::check_texts(&m.text, &s.text, cfg.seed ^ k as u64) {
            o.check(false, || format!("{}: oracle: {e}", m.name));
        }
    }
    o.check(!samples.is_empty(), || "no copy was sampled".into());
    o.e2e.insert("capacity_bits", capacity);
    o.e2e.insert("constrained_bits", locations);
    // Mean over designs of each design's mean overhead over every copy.
    o.e2e.insert(
        "area_overhead_pct",
        mean(&areas.iter().map(|a| mean(a)).collect::<Vec<_>>()),
    );
    o.e2e.insert("bytes_per_buyer", mean(&bytes));
    Ok(o)
}
