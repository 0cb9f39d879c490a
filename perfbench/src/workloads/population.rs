//! `population`: delta campaigns on disk through `campaign::run_cached`
//! with a warm `CampaignCache`. Set-up parses and locates des, writes the
//! golden artifact and proves the code space. Each timed op is one leg
//! that mints the next buyers as codebook records in journalled, fsynced
//! windows. Per-buyer SAT is nil here; codebook and journal formatting
//! and I/O dominate.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use odcfp_core::campaign::{self, CampaignCache, CampaignEnv, CampaignOptions, JobEvent, Manifest};
use odcfp_core::{
    artifact_identity, codebook_file, unpack_bits, CancelToken, CodeSpace, CodebookReader,
    CodebookRecord, Fingerprinter, Verdict, VerifyLevel, VerifySession,
};
use odcfp_netlist::{Digest128, Netlist};

use super::{
    area_overhead_pct, checked_capacity, design, fill_latency, fill_overhead, fill_setup,
    fill_unattributed, parse, timed_rounds, Design,
};
use crate::oracle;
use crate::util::{mean, ms, peak_rss_mb, Layers, Rng, TempDir};
use crate::{Config, Outcome};

const CIRCUIT: &str = "des";
const SMOKE_CIRCUIT: &str = "c432";
/// Buyers per durability window (two fsyncs each).
const WINDOW: usize = 1024;
/// Buyers minted per timed leg.
const LEG_BUYERS: usize = 8 * WINDOW;
/// Buyers the manifest names. A run that mints them all ends its timed
/// phase early.
const CAMPAIGN_BUYERS: usize = 1_000_000;
/// Codebook records re-embedded for the area figure; the first
/// `ORACLE_SAMPLES` of them are also checked by the oracle.
const AREA_SAMPLES: usize = 64;
const ORACLE_SAMPLES: usize = 12;
/// Set-ups per run. The code-space proof dominates set-up and its wall
/// time spread by 0.26 between runs with three repeats, so the median
/// is taken over five.
const PROOF_SETUP_REPEATS: usize = 5;

struct Campaign {
    dir: TempDir,
    manifest: Manifest,
    cache: CampaignCache,
    proof_ms: f64,
    proof_conflicts: f64,
}

fn manifest(name: &str, seed: u64, buyers: usize) -> Manifest {
    Manifest::parse(&format!(
        "circuit {name} path:{name}.v\nbuyers {buyers}\nseed {seed}\nretries 0\n\
         verify strict\nartifacts delta\nwindow {WINDOW}\n"
    ))
    .expect("benchmark manifest parses")
}

/// One leg of the campaign; returns (ok, windows completed).
fn leg(
    c: &mut Campaign,
    d: &Design,
    stop_after: usize,
    resume: bool,
    events: &mut Vec<JobEvent>,
) -> (bool, usize) {
    let text = &d.text;
    let load = |_: &campaign::ManifestCircuit| -> Result<Netlist, String> { parse(text) };
    let emit = |n: &Netlist| odcfp_verilog::write_verilog(n);
    let env = CampaignEnv {
        load: &load,
        emit: &emit,
    };
    let options = CampaignOptions {
        resume,
        stop_after: Some(stop_after),
    };
    let mut windows = 0;
    let summary = campaign::run_cached(
        &c.manifest,
        c.dir.path(),
        &env,
        &options,
        &mut c.cache,
        &mut |e| {
            if matches!(e, JobEvent::WindowCompleted { .. }) {
                windows += 1;
            }
            if matches!(
                e,
                JobEvent::CodeSpaceProven { .. } | JobEvent::CodeSpaceFallback { .. }
            ) {
                events.push(e.clone());
            }
        },
    );
    match summary {
        Ok(s) => {
            let ok = s.poisoned.is_empty()
                && s.executed == stop_after
                && s.verdicts.keys().all(|v| v == "proven");
            if !ok {
                eprintln!("campaign leg: {s:?}");
            }
            (ok, windows)
        }
        Err(e) => {
            eprintln!("campaign leg failed: {e}");
            (false, windows)
        }
    }
}

fn setup(d: &Design, seed: u64, buyers: usize) -> Result<Campaign, String> {
    let mut c = Campaign {
        dir: TempDir::new("population"),
        manifest: manifest(d.name, seed, buyers),
        cache: CampaignCache::default(),
        proof_ms: 0.0,
        proof_conflicts: 0.0,
    };
    let mut events = Vec::new();
    let (ok, _) = leg(&mut c, d, WINDOW, false, &mut events);
    if !ok {
        return Err("population set-up leg failed".into());
    }
    match events.first() {
        Some(JobEvent::CodeSpaceProven {
            conflicts, millis, ..
        }) => {
            c.proof_ms = *millis as f64;
            c.proof_conflicts = *conflicts as f64;
        }
        other => {
            return Err(format!(
                "expected a one-shot code-space proof, got {other:?}"
            ))
        }
    }
    Ok(c)
}

fn file_len(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(0.0, |m| m.len() as f64)
}

struct Sizes {
    codebook: f64,
    journal: f64,
    golden: f64,
}

fn sizes(dir: &Path, name: &str) -> Sizes {
    Sizes {
        codebook: file_len(&dir.join(codebook_file(name))),
        journal: file_len(&dir.join("campaign.journal.jsonl")),
        golden: file_len(
            &dir.join(campaign::ARTIFACT_DIR)
                .join(format!("{name}.golden.v")),
        ),
    }
}

/// Reads the codebook back and checks the method's properties on it.
/// Returns (capacity bits, locations, area overheads of sampled copies).
fn check_codebook(
    o: &mut Outcome,
    c: &Campaign,
    d: &Design,
    buyers: usize,
    seed: u64,
) -> (f64, f64, Vec<f64>) {
    let golden_bytes = std::fs::read(
        c.dir
            .path()
            .join(campaign::ARTIFACT_DIR)
            .join(format!("{}.golden.v", d.name)),
    )
    .unwrap_or_default();
    let golden_digest = Digest128::of(&golden_bytes);
    let golden_text = String::from_utf8_lossy(&golden_bytes).into_owned();
    let fp =
        match parse(&golden_text).and_then(|n| Fingerprinter::new(n).map_err(|e| e.to_string())) {
            Ok(fp) => fp,
            Err(e) => {
                o.check(false, || format!("golden artifact unusable: {e}"));
                return (0.0, 0.0, Vec::new());
            }
        };
    let capacity = checked_capacity(o, d.name, &fp);
    let locations = fp.locations().len();
    let mut reader = match CodebookReader::open(&c.dir.path().join(codebook_file(d.name))) {
        Ok(r) => r,
        Err(e) => {
            o.check(false, || format!("codebook unreadable: {e}"));
            return (capacity, locations as f64, Vec::new());
        }
    };
    // Identities are H(golden, bits), checked per record, so distinct
    // identities also mean distinct codes. Only sampled codes are kept.
    let mut rng = Rng::new(seed ^ 0xC0DE);
    let picks: HashSet<u64> = (0..AREA_SAMPLES)
        .map(|_| rng.below(buyers.max(1)) as u64)
        .collect();
    let mut records = 0usize;
    let mut in_order = true;
    let mut codes = Vec::new();
    let mut identities = HashSet::new();
    while let Ok(Some(record)) = reader.next_record() {
        match record {
            CodebookRecord::Golden {
                digest,
                locations: l,
                ..
            } => {
                o.check(digest == golden_digest, || {
                    "codebook golden digest mismatch".into()
                });
                o.check(l as usize == locations, || {
                    "codebook location count mismatch".into()
                });
            }
            CodebookRecord::Code {
                buyer,
                bits,
                verdict,
                digest,
            } => {
                o.check(verdict == "proven", || {
                    format!("buyer {buyer}: verdict {verdict}")
                });
                let Some(unpacked) = unpack_bits(&bits, locations) else {
                    o.check(false, || format!("buyer {buyer}: bits do not unpack"));
                    continue;
                };
                o.check(
                    digest == artifact_identity(golden_digest, &unpacked),
                    || format!("buyer {buyer}: identity is not H(golden, bits)"),
                );
                o.check(identities.insert(digest.0), || {
                    format!("buyer {buyer}: identity repeats")
                });
                in_order &= buyer == records as u64;
                records += 1;
                if picks.contains(&buyer) {
                    codes.push((buyer, unpacked));
                }
            }
        }
    }
    o.check(records == buyers, || {
        format!("codebook holds {records} records for {buyers} buyers")
    });
    o.check(in_order, || "codebook buyers out of order".into());

    let golden = oracle::Design::parse(&golden_text);
    let mut areas = Vec::new();
    for (k, (buyer, bits)) in codes.iter().enumerate() {
        match fp.embed_verified(bits, VerifyLevel::None) {
            Ok(copy) => {
                areas.push(area_overhead_pct(fp.base(), copy.netlist()));
                if k >= ORACLE_SAMPLES {
                    continue;
                }
                o.check(fp.extract(copy.netlist()) == *bits, || {
                    format!("buyer {buyer}: extract != code")
                });
                let text = odcfp_verilog::write_verilog(copy.netlist());
                let verdict = match (&golden, oracle::Design::parse(&text)) {
                    (Ok(g), Ok(c)) => oracle::equivalent_on_vectors(g, &c, seed ^ k as u64, 8),
                    (Err(e), _) => Err(e.clone()),
                    (_, Err(e)) => Err(e),
                };
                if let Err(e) = verdict {
                    o.check(false, || format!("buyer {buyer}: oracle: {e}"));
                }
            }
            Err(e) => o.check(false, || format!("buyer {buyer}: re-embed failed: {e}")),
        }
    }
    (capacity, locations as f64, areas)
}

/// `codebook.build_ms` and `codebook.check_us`, timed through the
/// benchmark's own calls (the campaign makes these calls internally).
fn codebook_layers(o: &mut Outcome, d: &Design, rng: &mut Rng) {
    let Ok(fp) = parse(&d.text).and_then(|n| Fingerprinter::new(n).map_err(|e| e.to_string()))
    else {
        return;
    };
    let t = Instant::now();
    let Ok(space) = CodeSpace::build(&fp) else {
        return;
    };
    o.layer.insert("codebook.build_ms", ms(t));
    let Ok(mut session) = VerifySession::new(fp.base()) else {
        return;
    };
    let token = CancelToken::new();
    let Ok(proof) = space.prove(&mut session, None, &token) else {
        return;
    };
    let checks = 2000;
    let codes: Vec<Vec<bool>> = (0..checks)
        .map(|_| rng.bits(fp.locations().len()))
        .collect();
    let t = Instant::now();
    let proven = codes
        .iter()
        .filter(|c| session.check_code(&proof, c, None, &token) == Verdict::Proven)
        .count();
    o.layer
        .insert("codebook.check_us", ms(t) * 1e3 / checks as f64);
    o.check(proven == checks, || {
        format!("{} of {checks} codes not proven", checks - proven)
    });
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let name = if cfg.smoke { SMOKE_CIRCUIT } else { CIRCUIT };
    o.context.insert("circuits", name.into());
    let d = design(name);
    let mut setups = Vec::new();
    let mut proofs = Vec::new();
    let mut campaign: Option<Campaign> = None;
    for _ in 0..PROOF_SETUP_REPEATS {
        // Drop the previous set-up's directory before timing the next.
        drop(campaign.take());
        let t = Instant::now();
        let c = setup(&d, cfg.seed, CAMPAIGN_BUYERS)?;
        setups.push(t.elapsed().as_secs_f64());
        proofs.push((c.proof_ms, c.proof_conflicts));
        campaign = Some(c);
    }
    fill_setup(&mut o, &setups);
    let mut c = campaign.expect("set-up ran");
    let mut minted = WINDOW;

    let mut phase = |trace: bool,
                     seconds: f64,
                     o: &mut Outcome,
                     c: &mut Campaign|
     -> (Layers, usize, f64, usize) {
        let mut layers = Layers::new(trace);
        let mut lat = Vec::new();
        let mut windows = 0;
        let (_, wall) = timed_rounds(seconds, 1, |_| {
            if minted + LEG_BUYERS > CAMPAIGN_BUYERS {
                return false;
            }
            let t = Instant::now();
            let (ok, w) = layers.time("campaign.leg", || {
                leg(c, &d, LEG_BUYERS, true, &mut Vec::new())
            });
            lat.push(ms(t));
            windows += w;
            o.op(ok);
            minted += LEG_BUYERS;
            true
        });
        fill_latency(o, &lat, lat.len(), wall);
        (layers, lat.len(), lat.iter().sum(), windows)
    };

    if cfg.trace {
        let (_, n_u, wall_u, _) = phase(false, cfg.seconds / 2.0, &mut o, &mut c);
        let mid = sizes(c.dir.path(), name);
        let (layers, n, wall, windows) = phase(true, cfg.seconds / 2.0, &mut o, &mut c);
        let after = sizes(c.dir.path(), name);
        fill_overhead(&mut o, n_u as f64 / wall_u, n as f64 / wall);
        let buyers = (n * LEG_BUYERS) as f64;
        o.layer
            .insert("campaign.leg_ms", layers.ms_of("campaign.leg") / n as f64);
        // Each window fsyncs the codebook and the journal once.
        o.layer
            .insert("campaign.fsyncs", 2.0 * windows as f64 / n as f64);
        o.layer.insert(
            "campaign.codebook_bytes",
            (after.codebook - mid.codebook) / buyers,
        );
        o.layer.insert(
            "campaign.journal_bytes",
            (after.journal - mid.journal) / buyers,
        );
        o.layer.insert(
            "codebook.prove_ms",
            mean(&proofs.iter().map(|p| p.0).collect::<Vec<_>>()),
        );
        o.layer.insert(
            "codebook.prove_conflicts",
            mean(&proofs.iter().map(|p| p.1).collect::<Vec<_>>()),
        );
        fill_unattributed(&mut o, wall / n as f64, layers.attributed_ms() / n as f64);
        let mut rng = Rng::new(cfg.seed ^ 0xB00C);
        codebook_layers(&mut o, &d, &mut rng);
    } else {
        phase(false, cfg.seconds, &mut o, &mut c);
    }

    o.e2e.insert("peak_rss_mb", peak_rss_mb(std::process::id()));
    let after = sizes(c.dir.path(), name);
    o.e2e.insert(
        "bytes_per_buyer",
        (after.codebook + after.journal + after.golden) / minted as f64,
    );
    let (capacity, locations, areas) = check_codebook(&mut o, &c, &d, minted, cfg.seed);
    o.e2e.insert("capacity_bits", capacity);
    o.e2e.insert("constrained_bits", locations);
    o.e2e.insert("area_overhead_pct", mean(&areas));
    Ok(o)
}
