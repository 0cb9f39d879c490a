//! `served`: `odcfp serve` in its own process at default settings, and a
//! closed-loop client with two connections. Each connection repeats
//! whole rounds of a fixed request mix, shuffled per round:
//!
//! * `verify` by `candidate_bits` — the code-space path, ~0 compute;
//! * `verify` of a genuine per-buyer netlist — parse, sweep, SAT;
//! * `verify` of a tampered per-buyer netlist, which must be `refuted`;
//! * seeded `embed`s, whose Verilog replies stream as chunks;
//! * a pipelined step (an embed, then a genuine netlist verify and a
//!   code verify written at once), whose two verifies always share one
//!   server-side batch.
//!
//! Every request carries the server's default verify policy, as the
//! repository's own client sends it. Which verifies meet in a batch is
//! fixed by the mix, not left to timing: the only connection that sends
//! verifies waits for each reply, except in the pipelined step.
//!
//! The loop is closed because the server's callers (campaign drivers,
//! CI gates) wait for each verdict before sending the next request.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use odcfp_core::Fingerprinter;
use odcfp_obs::{Event, Kind};
use odcfp_serve::proto::{payload_digest, request_line, FieldValue, Frame, Reply};

use super::{
    area_overhead_pct, checked_capacity, design, fill_latency, fill_overhead, fill_setup,
    fill_unattributed, parse, Design, SETUP_REPEATS,
};
use crate::oracle;
use crate::util::{bit_string, mean, ms, peak_rss_mb, Rng, TempDir};
use crate::{Config, Outcome};

const CIRCUIT: &str = "des";
const SMOKE_CIRCUIT: &str = "c432";
/// Client connections, within the 2 cores of the reference host.
const CONNS: usize = 2;
/// Genuine and tampered per-buyer copies the client holds.
const COPIES: usize = 12;
/// Netlist verifies sent in set-up, so the server's verify session has
/// learnt its steady state before timing starts.
const WARMUP_VERIFIES: usize = 24;
/// One embed reply in this many is kept for the oracle checks.
const EMBED_SAMPLE_EVERY: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReqKind {
    VerifyCode,
    VerifyGenuine,
    VerifyTampered,
    Embed,
    /// The genuine netlist verify of the pipelined step.
    PairedNet,
    /// The code verify of the pipelined step.
    PairedCode,
}

/// Requests written to a connection at once; the step ends when every
/// reply has arrived. Each request is one op.
type Step = &'static [ReqKind];

const CODE: Step = &[ReqKind::VerifyCode];
const GENUINE: Step = &[ReqKind::VerifyGenuine];
const TAMPERED: Step = &[ReqKind::VerifyTampered];
const EMBED: Step = &[ReqKind::Embed];
/// The embed goes first and holds one of the server's two workers (and
/// the circuit) for tens of milliseconds, so the other worker takes the
/// netlist verify and finds the code verify queued behind it, in the
/// same batch, on every run.
const PIPELINED: Step = &[ReqKind::Embed, ReqKind::PairedNet, ReqKind::PairedCode];

/// Steps per round on each connection. The shares are the benchmark's
/// choice, not measured traffic (see README, "The served mix").
const MIX: [&[(Step, usize)]; CONNS] = [
    &[(CODE, 4), (GENUINE, 2), (TAMPERED, 1), (PIPELINED, 1)],
    &[(EMBED, 3)],
];

/// What the client holds: copies made locally by the benchmark, plus
/// tampered versions the oracle has shown to differ from the golden.
struct Inputs {
    design: Design,
    fp: Fingerprinter,
    genuine: Vec<String>,
    tampered: Vec<String>,
}

fn prepare_inputs(name: &'static str, rng: &mut Rng, o: &mut Outcome) -> Result<Inputs, String> {
    let design = design(name);
    let fp = Fingerprinter::new(parse(&design.text)?).map_err(|e| e.to_string())?;
    let golden = oracle::Design::parse(&design.text)?;
    let mut genuine = Vec::new();
    let mut tampered = Vec::new();
    for _ in 0..COPIES {
        let bits = rng.bits(fp.locations().len());
        let copy = fp
            .embed_verified(&bits, odcfp_core::VerifyLevel::None)
            .map_err(|e| e.to_string())?;
        let text = odcfp_verilog::write_verilog(copy.netlist());
        let t = oracle::tamper(&text, &golden, rng).ok_or("no observable gate to tamper")?;
        // Ground truth for the expected verdicts: genuine copies agree
        // with the golden on every vector, tampered ones do not.
        if let Err(e) = oracle::check_texts(&design.text, &text, rng.next_u64()) {
            o.check(false, || format!("genuine copy differs from golden: {e}"));
        }
        genuine.push(text);
        tampered.push(t);
    }
    Ok(Inputs {
        design,
        fp,
        genuine,
        tampered,
    })
}

struct Server {
    child: Child,
    drain: Option<std::thread::JoinHandle<()>>,
    addr: String,
    trace: Option<PathBuf>,
    spawned: Instant,
    warm_end: Instant,
    groups: usize,
}

/// A reply read to its terminal frame, with any streamed payload
/// reassembled and checked against its `done` trailer.
struct Answer {
    reply: Reply,
    payload: Option<String>,
    chunks: u64,
    bytes: usize,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(Duration::from_secs(60))).ok();
        // A pipelined step writes ~365 KB before it reads; a server that
        // stopped reading would fail the step here rather than hang it.
        s.set_write_timeout(Some(Duration::from_secs(60))).ok();
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
            line: String::new(),
        })
    }

    /// Writes `requests` (each with its id) at once and reads until
    /// every one has its terminal frame. Returns the answers in request
    /// order, each with its latency from the write.
    fn exchange(&mut self, requests: &[(String, String)]) -> Result<Vec<(Answer, f64)>, String> {
        let mut out = String::new();
        for (_, line) in requests {
            out.push_str(line);
            out.push('\n');
        }
        let sent = Instant::now();
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut answers: Vec<Option<(Answer, f64)>> = requests.iter().map(|_| None).collect();
        // The frames of one reply are never interleaved with another's.
        let mut payload = String::new();
        let mut chunks = 0u64;
        let mut bytes = 0;
        while answers.iter().any(Option::is_none) {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("connection closed".into());
            }
            bytes += n;
            let answer = match Frame::parse_line(self.line.trim_end()) {
                Some(Frame::Reply(reply)) => {
                    // Payloads under the stream threshold arrive inline.
                    let payload = reply.field_str("netlist").map(str::to_owned);
                    Answer {
                        reply,
                        payload,
                        chunks,
                        bytes,
                    }
                }
                Some(Frame::Chunk { seq, data, .. }) => {
                    if seq != chunks {
                        return Err(format!("chunk {seq} out of order"));
                    }
                    chunks += 1;
                    payload.push_str(&data);
                    continue;
                }
                Some(Frame::Done {
                    reply,
                    chunks: n_chunks,
                    bytes: n_bytes,
                    digest,
                    ..
                }) => {
                    if n_chunks != chunks
                        || n_bytes as usize != payload.len()
                        || digest != payload_digest(payload.as_bytes())
                    {
                        return Err("torn stream".into());
                    }
                    Answer {
                        reply,
                        payload: Some(std::mem::take(&mut payload)),
                        chunks,
                        bytes,
                    }
                }
                None => {
                    return Err(format!(
                        "unparsable frame {:?}",
                        self.line.chars().take(80).collect::<String>()
                    ))
                }
            };
            let slot = requests
                .iter()
                .zip(&answers)
                .position(|((id, _), a)| a.is_none() && *id == answer.reply.id)
                .ok_or_else(|| format!("reply to unknown id {:?}", answer.reply.id))?;
            answers[slot] = Some((answer, ms(sent)));
            chunks = 0;
            bytes = 0;
        }
        Ok(answers.into_iter().flatten().collect())
    }
}

/// Request lines for one connection. Netlist verifies are encoded once
/// per held copy (their ids repeat, which the protocol allows), so the
/// client spends no time re-escaping 365 KB candidates.
struct Requests {
    tenant: String,
    design_path: String,
    genuine: Vec<(String, String)>,
    tampered: Vec<(String, String)>,
}

impl Requests {
    fn new(tenant: &str, inputs: &Inputs) -> Requests {
        let design_path = format!("{}.v", inputs.design.name);
        let lines = |prefix: &str, texts: &[String]| -> Vec<(String, String)> {
            texts
                .iter()
                .enumerate()
                .map(|(i, text)| {
                    let id = format!("{prefix}{i}");
                    let args: [(&str, FieldValue); 2] = [
                        ("golden_path", design_path.as_str().into()),
                        ("candidate_text", text.as_str().into()),
                    ];
                    let line = request_line(&id, tenant, None, "verify", &args);
                    (id, line)
                })
                .collect()
        };
        Requests {
            tenant: tenant.to_owned(),
            genuine: lines("g", &inputs.genuine),
            tampered: lines("t", &inputs.tampered),
            design_path,
        }
    }

    /// One request as `(id, line)`.
    fn line(&self, kind: ReqKind, id: u64, groups: usize, rng: &mut Rng) -> (String, String) {
        let id = format!("r{id}");
        match kind {
            ReqKind::VerifyCode | ReqKind::PairedCode => {
                let args: [(&str, FieldValue); 2] = [
                    ("golden_path", self.design_path.as_str().into()),
                    ("candidate_bits", bit_string(&rng.bits(groups)).into()),
                ];
                let line = request_line(&id, &self.tenant, None, "verify", &args);
                (id, line)
            }
            ReqKind::VerifyGenuine | ReqKind::PairedNet => {
                self.genuine[rng.below(self.genuine.len())].clone()
            }
            ReqKind::VerifyTampered => self.tampered[rng.below(self.tampered.len())].clone(),
            ReqKind::Embed => {
                let args: [(&str, FieldValue); 2] = [
                    ("design_path", self.design_path.as_str().into()),
                    ("seed", FieldValue::U64(rng.next_u64() >> 1)),
                ];
                let line = request_line(&id, &self.tenant, None, "embed", &args);
                (id, line)
            }
        }
    }

    fn step(
        &self,
        step: Step,
        next_id: &mut u64,
        groups: usize,
        rng: &mut Rng,
    ) -> Vec<(String, String)> {
        step.iter()
            .map(|&kind| {
                *next_id += 1;
                self.line(kind, *next_id, groups, rng)
            })
            .collect()
    }
}

/// A reply's outcome fields, without its (possibly huge) payload.
fn brief(r: &Reply) -> String {
    format!(
        "ok={} error={:?} message={:?} verdict={:?}",
        r.ok,
        r.error,
        r.message,
        r.field_str("verdict")
    )
}

/// Whether a reply is the right answer to its request.
fn answer_ok(kind: ReqKind, a: &Answer, groups: usize) -> bool {
    let verdict = a.reply.field_str("verdict");
    a.reply.ok
        && match kind {
            ReqKind::VerifyCode
            | ReqKind::VerifyGenuine
            | ReqKind::PairedNet
            | ReqKind::PairedCode => verdict == Some("proven"),
            ReqKind::VerifyTampered => verdict == Some("refuted"),
            ReqKind::Embed => {
                // The server's default embed policy is the quick ladder.
                matches!(verdict, Some("proven" | "probably_equivalent"))
                    && a.reply.field_str("bits").is_some_and(|b| b.len() == groups)
                    && a.payload.is_some()
            }
        }
}

fn start_server(
    root: &std::path::Path,
    traced: bool,
    inputs: &Inputs,
    rng: &mut Rng,
) -> Result<Server, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spawned = Instant::now();
    let mut cmd = Command::new(exe);
    cmd.args(["serve-child", "--listen", "127.0.0.1:0", "--root"])
        .arg(root)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let trace = traced.then(|| root.join("serve-trace.jsonl"));
    if let Some(t) = &trace {
        cmd.arg("--trace-out").arg(t);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawning server: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
    let mut line = String::new();
    out.read_line(&mut line).map_err(|e| e.to_string())?;
    let Some(addr) = line.trim().strip_prefix("odcfp serve listening on ") else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("unexpected server banner {line:?}"));
    };
    let addr = addr.to_owned();
    // Keep draining the server's stdout so it never blocks on a pipe.
    let drain = std::thread::spawn(move || {
        let mut sink = String::new();
        while out.read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
    });
    let mut server = Server {
        child,
        drain: Some(drain),
        addr,
        trace,
        spawned,
        warm_end: spawned,
        groups: 0,
    };
    warm_up(&mut server, inputs, rng)?;
    Ok(server)
}

/// Warm-up, counted in `setup_s`: circuit analysis, the code-space
/// proof, the verify session's first buyers and one streamed embed.
fn warm_up(server: &mut Server, inputs: &Inputs, rng: &mut Rng) -> Result<(), String> {
    let mut conn = Conn::open(&server.addr)?;
    let path = format!("{}.v", inputs.design.name);
    let loc = conn.exchange(&[(
        "w0".into(),
        request_line(
            "w0",
            "setup",
            None,
            "locations",
            &[("design_path", path.as_str().into())],
        ),
    )])?;
    server.groups = loc[0]
        .0
        .reply
        .field_u64("locations")
        .ok_or("locations reply without a location count")? as usize;
    let requests = Requests::new("setup", inputs);
    let mut steps = vec![CODE, EMBED, TAMPERED];
    steps.extend(std::iter::repeat_n(GENUINE, WARMUP_VERIFIES));
    // The batch path's first use is warm-up too.
    steps.push(PIPELINED);
    let mut id = 0;
    for step in steps {
        let answers = conn.exchange(&requests.step(step, &mut id, server.groups, rng))?;
        for (&kind, (a, _)) in step.iter().zip(&answers) {
            if !answer_ok(kind, a, server.groups) {
                return Err(format!("warm-up {kind:?} got {}", brief(&a.reply)));
            }
        }
    }
    server.warm_end = Instant::now();
    Ok(())
}

/// Asks the server to drain and waits for it to exit; kills it if it
/// does not within 30 s.
fn stop_server(server: &mut Server) {
    if let Ok(mut c) = Conn::open(&server.addr) {
        let _ = c.exchange(&[(
            "bye".into(),
            request_line("bye", "setup", None, "shutdown", &[]),
        )]);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match server.child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = server.child.kill();
                let _ = server.child.wait();
                return;
            }
        }
    }
}

impl Drop for Server {
    /// A server still running here (an error path) is killed; every
    /// server process has ended before the benchmark exits.
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

#[derive(Default)]
struct Record {
    lat: Vec<(ReqKind, f64)>,
    attempted: u64,
    failed: u64,
    cache_hits: u64,
    cache_replies: u64,
    verifies: u64,
    batched: u64,
    batch_sizes: Vec<f64>,
    chunks: Vec<f64>,
    reply_bytes: Vec<f64>,
    embeds: Vec<(String, String)>,
    /// Pipelined steps whose two verifies did not share a batch.
    unbatched_pairs: u64,
    wall_s: f64,
}

impl Record {
    fn absorb(&mut self, other: Record) {
        self.lat.extend(other.lat);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cache_hits += other.cache_hits;
        self.cache_replies += other.cache_replies;
        self.verifies += other.verifies;
        self.batched += other.batched;
        self.batch_sizes.extend(other.batch_sizes);
        self.chunks.extend(other.chunks);
        self.reply_bytes.extend(other.reply_bytes);
        self.embeds.extend(other.embeds);
        self.unbatched_pairs += other.unbatched_pairs;
    }
}

/// One connection of the closed loop: whole rounds of its mix until
/// `seconds` have passed since `start`.
fn client(
    c: usize,
    server: &Server,
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    start: Instant,
) -> Result<Record, String> {
    let mut rng = Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut conn = Conn::open(&server.addr)?;
    let requests = Requests::new(&format!("conn{c}"), inputs);
    let mut rec = Record::default();
    let mut id = 0u64;
    let mut embeds = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let mut round: Vec<Step> = MIX[c]
            .iter()
            .flat_map(|&(step, n)| std::iter::repeat_n(step, n))
            .collect();
        rng.shuffle(&mut round);
        for step in round {
            let lines = requests.step(step, &mut id, server.groups, &mut rng);
            rec.attempted += step.len() as u64;
            let answers = match conn.exchange(&lines) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("served: {step:?}: {e}");
                    rec.failed += step.len() as u64;
                    // A dropped or torn connection: reconnect and go on.
                    conn = Conn::open(&server.addr)?;
                    continue;
                }
            };
            for (&kind, (answer, latency)) in step.iter().zip(answers) {
                rec.lat.push((kind, latency));
                if !answer_ok(kind, &answer, server.groups) {
                    eprintln!(
                        "served: {kind:?}: unexpected reply {}",
                        brief(&answer.reply)
                    );
                    rec.failed += 1;
                }
                if let Some(cache) = answer.reply.field_str("cache") {
                    rec.cache_replies += 1;
                    rec.cache_hits += u64::from(cache == "hit");
                }
                if kind == ReqKind::Embed {
                    rec.chunks.push(answer.chunks as f64);
                    embeds += 1;
                    if embeds % EMBED_SAMPLE_EVERY == 1 {
                        if let (Some(bits), Some(p)) =
                            (answer.reply.field_str("bits"), answer.payload)
                        {
                            rec.embeds.push((bits.to_owned(), p));
                        }
                    }
                } else {
                    rec.verifies += 1;
                    let batched = answer.reply.field_bool("batched") == Some(true);
                    if batched {
                        rec.batched += 1;
                        rec.batch_sizes
                            .push(answer.reply.field_u64("batch").unwrap_or(1) as f64);
                    }
                    if kind == ReqKind::PairedNet && !batched {
                        rec.unbatched_pairs += 1;
                    }
                }
                rec.reply_bytes.push(answer.bytes as f64);
            }
        }
    }
    Ok(rec)
}

/// The closed loop over all connections.
fn drive(server: &Server, inputs: &Inputs, seconds: f64, seed: u64) -> Result<Record, String> {
    let start = Instant::now();
    let results: Vec<Result<Record, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| s.spawn(move || client(c, server, inputs, seconds, seed, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = Record::default();
    for r in results {
        total.absorb(r?);
    }
    total.wall_s = start.elapsed().as_secs_f64();
    Ok(total)
}

fn record_outcome(o: &mut Outcome, rec: &Record) {
    o.attempted += rec.attempted;
    o.failed += rec.failed;
    let lat: Vec<f64> = rec.lat.iter().map(|l| l.1).collect();
    fill_latency(o, &lat, lat.len(), rec.wall_s);
}

fn kind_mean(rec: &Record, kinds: &[ReqKind]) -> f64 {
    mean(
        &rec.lat
            .iter()
            .filter(|l| kinds.contains(&l.0))
            .map(|l| l.1)
            .collect::<Vec<_>>(),
    )
}

/// Server-side layers from the traced server's `--trace-out` file,
/// restricted to events after the warm-up ended.
fn server_layers(o: &mut Outcome, server: &Server, rec: &Record) {
    let Some(path) = &server.trace else { return };
    let Ok(trace) = odcfp_obs::read_trace(path) else {
        o.check(false, || "server trace unreadable".into());
        return;
    };
    let after_us = server.warm_end.duration_since(server.spawned).as_micros() as u64;
    let events: Vec<&Event> = trace.events.iter().filter(|e| e.t_us >= after_us).collect();
    let mut busy_us = 0u64;
    let mut served = 0u64;
    let mut waits = Vec::new();
    let mut conflicts = 0u64;
    for e in &events {
        match (e.kind, e.name.as_str()) {
            (Kind::Span, "serve.request") => {
                busy_us += e.dur_us.unwrap_or(0);
                served += 1;
            }
            (Kind::Span, "serve.batch.execute") => {
                // Every request of a batch waits for the whole batch.
                let size = e.field_u64("size").unwrap_or(1);
                busy_us += e.dur_us.unwrap_or(0) * size;
                served += size;
            }
            (Kind::Point, "serve.queue_wait") => {
                waits.push(e.field_u64("us").unwrap_or(0) as f64 / 1e3)
            }
            (Kind::Count, "sat.conflicts") => conflicts += e.field_u64("v").unwrap_or(0),
            _ => {}
        }
    }
    let request_ms = if served > 0 {
        busy_us as f64 / 1e3 / served as f64
    } else {
        0.0
    };
    let wait_ms = mean(&waits);
    let client_ms = mean(&rec.lat.iter().map(|l| l.1).collect::<Vec<_>>());
    o.layer.insert("serve.request_ms", request_ms);
    o.layer.insert("serve.queue_wait_ms", wait_ms);
    o.layer
        .insert("serve.wire_ms", client_ms - request_ms - wait_ms);
    o.layer.insert(
        "sat.conflicts",
        conflicts as f64 / rec.lat.len().max(1) as f64,
    );
    // Calling-thread attribution for a served op: server execution and
    // queueing are the layers; the rest of the client-observed time is
    // the wire, reactor and client, reported as unattributed.
    fill_unattributed(o, client_ms, request_ms + wait_ms);
}

fn check_embeds(o: &mut Outcome, inputs: &Inputs, rec: &Record, seed: u64) -> Vec<f64> {
    let golden = oracle::Design::parse(&inputs.design.text);
    let mut areas = Vec::new();
    for (k, (bits, netlist)) in rec.embeds.iter().enumerate() {
        let want: Vec<bool> = bits.chars().map(|c| c == '1').collect();
        match parse(netlist) {
            Ok(copy) => {
                let got = inputs.fp.extract_by_name(&copy);
                o.check(got.as_ref().ok() == Some(&want), || {
                    "embed: extract(copy) != reply bits".into()
                });
                areas.push(area_overhead_pct(inputs.fp.base(), &copy));
            }
            Err(e) => o.check(false, || format!("embed reply does not parse: {e}")),
        }
        let verdict = match (&golden, oracle::Design::parse(netlist)) {
            (Ok(g), Ok(c)) => oracle::equivalent_on_vectors(g, &c, seed ^ k as u64, 8),
            (Err(e), _) => Err(e.clone()),
            (_, Err(e)) => Err(e),
        };
        if let Err(e) = verdict {
            o.check(false, || format!("embed reply: oracle: {e}"));
        }
    }
    o.check(!rec.embeds.is_empty(), || {
        "no embed reply was sampled".into()
    });
    let mut codes: Vec<&String> = rec.embeds.iter().map(|e| &e.0).collect();
    codes.sort();
    codes.dedup();
    o.check(codes.len() == rec.embeds.len(), || {
        "two seeded embeds returned the same code".into()
    });
    areas
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let name = if cfg.smoke { SMOKE_CIRCUIT } else { CIRCUIT };
    o.context.insert("circuits", name.into());
    let mut rng = Rng::new(cfg.seed);
    let inputs = prepare_inputs(name, &mut rng, &mut o)?;
    let root = TempDir::new("served");
    std::fs::write(root.path().join(format!("{name}.v")), &inputs.design.text)
        .map_err(|e| e.to_string())?;

    // Set-up is repeated on fresh servers; the last one (traced in a
    // traced run) serves the timed phase.
    let mut setups = Vec::new();
    let mut servers = Vec::new();
    let last = SETUP_REPEATS - 1;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mut server = start_server(root.path(), cfg.trace && i == last, &inputs, &mut rng)?;
        setups.push(t.elapsed().as_secs_f64());
        if i == last || (cfg.trace && i + 1 == last) {
            servers.push(server);
        } else {
            stop_server(&mut server);
        }
    }
    fill_setup(&mut o, &setups);

    let result = (|| -> Result<Record, String> {
        if cfg.trace {
            // Untraced then traced server, same closed loop: the ratio of
            // their throughputs is the tracing overhead.
            let untraced = drive(&servers[0], &inputs, cfg.seconds / 2.0, cfg.seed)?;
            stop_server(&mut servers[0]);
            let mut rec = drive(&servers[1], &inputs, cfg.seconds / 2.0, cfg.seed ^ 1)?;
            fill_overhead(
                &mut o,
                untraced.lat.len() as f64 / untraced.wall_s,
                rec.lat.len() as f64 / rec.wall_s,
            );
            o.attempted += untraced.attempted;
            o.failed += untraced.failed;
            rec.unbatched_pairs += untraced.unbatched_pairs;
            Ok(rec)
        } else {
            drive(&servers[0], &inputs, cfg.seconds, cfg.seed)
        }
    })();
    let server = servers.last_mut().expect("a server serves the timed phase");
    let server_rss = peak_rss_mb(server.child.id());
    stop_server(server);
    let rec = result?;
    record_outcome(&mut o, &rec);

    if cfg.trace {
        let server = servers.last().expect("traced server");
        server_layers(&mut o, server, &rec);
        o.layer.insert(
            "serve.client_ms.verify_code",
            kind_mean(&rec, &[ReqKind::VerifyCode]),
        );
        o.layer.insert(
            "serve.client_ms.verify_net",
            kind_mean(&rec, &[ReqKind::VerifyGenuine, ReqKind::VerifyTampered]),
        );
        o.layer.insert(
            "serve.client_ms.verify_batched",
            kind_mean(&rec, &[ReqKind::PairedNet]),
        );
        o.layer
            .insert("serve.client_ms.embed", kind_mean(&rec, &[ReqKind::Embed]));
        let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
        o.layer.insert(
            "serve.cache_hit_ratio",
            ratio(rec.cache_hits, rec.cache_replies),
        );
        o.layer
            .insert("serve.batched_share", ratio(rec.batched, rec.verifies));
        o.layer.insert("serve.batch_size", mean(&rec.batch_sizes));
        o.layer.insert("serve.stream_chunks", mean(&rec.chunks));
        o.layer.insert("serve.reply_bytes", mean(&rec.reply_bytes));
    }

    let areas = check_embeds(&mut o, &inputs, &rec, cfg.seed);
    let capacity = checked_capacity(&mut o, name, &inputs.fp);
    o.e2e.insert("capacity_bits", capacity);
    o.e2e
        .insert("constrained_bits", inputs.fp.locations().len() as f64);
    o.e2e.insert("area_overhead_pct", mean(&areas));
    // The artifact a buyer receives: the embed reply, streamed.
    let embed_bytes: Vec<f64> = rec
        .lat
        .iter()
        .zip(&rec.reply_bytes)
        .filter(|(l, _)| l.0 == ReqKind::Embed)
        .map(|(_, b)| *b)
        .collect();
    o.e2e.insert("bytes_per_buyer", mean(&embed_bytes));
    o.e2e.insert("peak_rss_mb", server_rss);
    o.context
        .insert("unbatched_pairs", rec.unbatched_pairs.to_string());
    o.check(o.attempted > 0, || "no request was attempted".into());
    Ok(o)
}
