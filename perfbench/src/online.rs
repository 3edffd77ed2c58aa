//! `online_short` and `online_live_kv`: open-loop load over one pipelined
//! loopback TCP connection to `NetServer`.
//!
//! The generator is one process with one sender (this thread) and one
//! reader thread on one connection. Arrivals are Poisson at a fixed
//! absolute rate derived from the seed; each request is timed from when
//! it was due, so a stall also charges the requests queued behind it.
//! Frames are matched to requests by the server-assigned id: on one
//! connection the `accepted`/`rejected` answers come back in submission
//! order.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vq_llm::net::json::{self, Json};
use vq_llm::net::{loopback_with, proto, NetConfig, NetServer};
use vq_llm::AdmissionConfig;

use crate::layers;
use crate::offline::{common_setup_metrics, record_request};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::setup::{self, Arrivals, Req, Workload, SETUPS};
use crate::timeline::{Latency, Slo, Timeline};
use crate::trace::Tracer;

/// Seconds of arrivals before the measured window (sent, checked, not
/// timed).
pub const WARMUP_S: f64 = 1.0;
/// Requests per run checked bit for bit against a solo decode.
pub const SAMPLED: usize = 8;
/// How long the reader waits for outstanding requests after the last
/// send before counting them failed.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// A run whose generator sent its p99 request later than this after it
/// was due fell behind its schedule and is invalid.
pub const LAG_LIMIT_MS: f64 = 50.0;

/// The fixed offered load of each online workload.
pub fn arrivals(w: Workload) -> Arrivals {
    match w {
        Workload::OnlineShort => Arrivals {
            rate: 240.0,
            context_len: (16, 112),
            gen_tokens: (2, 6),
            tenants: 1000,
        },
        Workload::OnlineLiveKv => Arrivals {
            rate: 18.0,
            context_len: (512, 1024),
            gen_tokens: (24, 40),
            tenants: 16,
        },
        Workload::OfflineMixed => unreachable!("offline_mixed is a closed loop"),
    }
}

/// The latency limits of both online workloads.
pub const SLO: Slo = Slo {
    ttft_ms: 50.0,
    itl_ms: 15.0,
};

/// What the reader saw of one request.
#[derive(Debug, Default)]
struct Obs {
    accepted: Option<Instant>,
    tokens: Vec<Instant>,
    values: Vec<Vec<f32>>,
    done: Option<Instant>,
    done_tokens: usize,
    failed: bool,
    wrong: bool,
    resolved: bool,
}

/// A server frame, as far as the generator needs it.
#[derive(Debug, PartialEq)]
enum Frame {
    Hello,
    Accepted(u64),
    Rejected(u64),
    /// `value` is parsed only when asked for (sampled requests).
    Token {
        id: u64,
        index: usize,
        value: Option<Vec<f32>>,
    },
    Done {
        id: u64,
        tokens: usize,
    },
    Other,
}

impl Frame {
    /// Reads one line. Token frames, the bulk of the stream, are
    /// recognised by their fixed prefix without a full parse, keeping the
    /// reader's CPU off the cores the server needs.
    fn read(line: &str, want_value: impl Fn(u64) -> bool) -> Frame {
        if let Some(rest) = line.strip_prefix("{\"event\":\"token\",\"id\":") {
            let mut parts = rest.splitn(2, ",\"index\":");
            let id = parts.next().and_then(|v| v.parse().ok());
            let index = parts
                .next()
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.parse().ok());
            if let (Some(id), Some(index)) = (id, index) {
                let value = want_value(id).then(|| {
                    json::parse(line)
                        .ok()
                        .and_then(|f| f.get("value").and_then(Json::as_f32s))
                        .unwrap_or_default()
                });
                return Frame::Token { id, index, value };
            }
        }
        let Ok(f) = json::parse(line) else {
            return Frame::Other;
        };
        let id = f.get("id").and_then(Json::as_u64);
        match (f.get("event").and_then(Json::as_str), id) {
            (Some("hello"), _) => Frame::Hello,
            (Some("accepted"), Some(id)) => Frame::Accepted(id),
            (Some("rejected"), Some(id)) => Frame::Rejected(id),
            (Some("done"), Some(id)) => Frame::Done {
                id,
                tokens: f.get("tokens").and_then(Json::as_usize).unwrap_or(0),
            },
            _ => Frame::Other,
        }
    }
}

/// Shared between the sender and the reader.
struct Progress {
    sent: AtomicUsize,
    sender_done: AtomicBool,
}

/// Reads every frame until all sent requests are resolved, the
/// connection drops, or the drain timeout passes. Outstanding requests
/// then count as failed; nothing is retried.
fn read_frames(stream: TcpStream, keep_values: &[bool], progress: &Progress) -> (Vec<Obs>, usize) {
    let mut obs: Vec<Obs> = keep_values.iter().map(|_| Obs::default()).collect();
    let mut ids: HashMap<u64, usize> = HashMap::new();
    let mut next_bind = 0usize;
    let mut resolved = 0usize;
    let mut errors = 0usize;
    let mut deadline: Option<Instant> = None;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        // `sender_done` first: once it reads true, `sent` is final.
        let done = progress.sender_done.load(Ordering::Acquire);
        if done && resolved >= progress.sent.load(Ordering::Acquire) {
            break;
        }
        if done && deadline.is_none() {
            deadline = Some(Instant::now() + DRAIN_TIMEOUT);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if !line.ends_with('\n') => continue,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => break,
        }
        let now = Instant::now();
        let frame = Frame::read(line.trim_end(), |id| {
            ids.get(&id).is_some_and(|&k| keep_values[k])
        });
        line.clear();
        let slot = match frame {
            Frame::Hello => continue,
            Frame::Accepted(id) | Frame::Rejected(id) if !ids.contains_key(&id) => {
                // A new id answers the oldest unanswered submission.
                (next_bind < obs.len()).then(|| {
                    ids.insert(id, next_bind);
                    next_bind += 1;
                    next_bind - 1
                })
            }
            Frame::Accepted(id)
            | Frame::Rejected(id)
            | Frame::Token { id, .. }
            | Frame::Done { id, .. } => ids.get(&id).copied(),
            Frame::Other => None,
        };
        let Some(k) = slot else {
            errors += 1;
            continue;
        };
        let o = &mut obs[k];
        match frame {
            Frame::Accepted(_) => o.accepted = Some(now),
            Frame::Token { index, value, .. } => {
                if index != o.tokens.len() {
                    o.wrong = true;
                }
                o.tokens.push(now);
                if let Some(v) = value {
                    o.values.push(v);
                }
            }
            Frame::Done { tokens, .. } => {
                o.done = Some(now);
                o.done_tokens = tokens;
            }
            Frame::Rejected(_) => o.failed = true,
            Frame::Hello | Frame::Other => {}
        }
        if !o.resolved && (o.done.is_some() || o.failed) {
            o.resolved = true;
            resolved += 1;
        }
    }
    (obs, errors)
}

/// The front end's admission policy: a front queue deep enough for the
/// offered load, and a one-second step watchdog. The default watchdog
/// (8× the measured p99 step, at least 50 ms) would shed healthy
/// requests whenever the shared host takes the CPU away for longer than
/// that, counting host noise as failed requests; a wedged step still
/// trips this one. Everything else stays at the defaults.
fn admission() -> AdmissionConfig {
    AdmissionConfig {
        max_pending: 4096,
        step_timeout_us: Some(1_000_000),
        ..AdmissionConfig::default()
    }
}

/// Runs an online workload: `WARMUP_S + seconds` of arrivals, latency
/// taken over the requests due in the last `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let tracer = trace.then(|| Tracer::new(Instant::now()));
    let mut out = Outcome::default();

    // Set-up: quantize, build, register, bind. Repeated; the last server
    // serves the run.
    let mut setups = Vec::new();
    let mut kept: Option<(NetServer, _, _, _)> = None;
    for _ in 0..SETUPS {
        let (eng, handles, ctxs, mut times) = setup::build(w, setup::backend(tracer.as_ref()), 64);
        let cache = eng.cache_stats();
        // Outside the set-up clock: the standalone estimate timing.
        let est = if trace {
            setup::estimate_us(&eng, &handles)
        } else {
            (0.0, 0.0)
        };
        let t = Instant::now();
        let server = loopback_with(eng, handles, admission(), NetConfig::default())
            .expect("bind a loopback port");
        times.total_s += t.elapsed().as_secs_f64();
        setups.push(times);
        if let Some((old, ..)) = kept.replace((server, ctxs, cache, est)) {
            old.shutdown();
        }
    }
    let (server, ctxs, cache, (est_attn, est_gemm)) = kept.expect("at least one set-up");
    let planner_calls = tracer.as_ref().map_or(0, |t| t.planner_calls());

    // Inputs and references, outside every timed window.
    let dim = w.shapes()[0].1;
    let sched = setup::schedule(arrivals(w), dim, seed, WARMUP_S, seconds);
    let reqs: Vec<Req> = sched.iter().map(|(_, r)| r.clone()).collect();
    let lines: Vec<String> = reqs
        .iter()
        .map(|r| {
            let mut l = proto::submit_line(
                r.ctx,
                r.tenant,
                &r.query,
                r.context_len,
                r.gen_tokens,
                0,
                None,
                true,
            );
            l.push('\n');
            l
        })
        .collect();
    let sample = Rng::new(seed, 3).sample(reqs.len(), SAMPLED);
    let sampled: Vec<&Req> = sample.iter().map(|&i| &reqs[i]).collect();
    let ref_out = setup::solo_references(w, &ctxs, &sampled);
    let mut keep_values = vec![false; reqs.len()];
    for &i in &sample {
        keep_values[i] = true;
    }

    let stream = TcpStream::connect(server.local_addr()).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone the stream");
    let progress = Progress {
        sent: AtomicUsize::new(0),
        sender_done: AtomicBool::new(false),
    };
    let t0 = Instant::now() + Duration::from_millis(50);
    let mut timelines: Vec<Timeline> = sched
        .iter()
        .map(|(at, _)| Timeline::new(t0 + Duration::from_secs_f64(*at)))
        .collect();

    let ticks = setup::cpu_ticks();
    let (obs, errors) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_frames(stream, &keep_values, &progress));
        for (i, line) in lines.iter().enumerate() {
            let due = timelines[i].due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            if writer.write_all(line.as_bytes()).is_err() {
                break;
            }
            timelines[i].sent = Some(at);
            progress.sent.store(i + 1, Ordering::Release);
        }
        progress.sender_done.store(true, Ordering::Release);
        reader.join().expect("reader thread")
    });
    let run_end = Instant::now();
    out.note(setup::steal_note(ticks, setup::cpu_ticks()));
    let m = server.client().metrics();
    let st = server.client().stats();
    drop(writer);
    let _ = server.drain(Duration::from_secs(10));

    // Outcomes: a sent request that never resolved failed (connection
    // drop or timeout); a finished one is checked for length, order and,
    // when sampled, bitwise against its solo decode.
    let refs: HashMap<usize, &Vec<Vec<f32>>> = sample
        .iter()
        .copied()
        .zip(ref_out.iter().map(|(r, _)| r))
        .collect();
    for (i, (tl, o)) in timelines.iter_mut().zip(obs).enumerate() {
        if tl.sent.is_none() {
            continue;
        }
        tl.accepted = o.accepted;
        tl.tokens = o.tokens;
        tl.done = o.done;
        tl.failed = o.failed || !o.resolved;
        let want = reqs[i].gen_tokens;
        let bad_ref = refs
            .get(&i)
            .is_some_and(|r| !crate::bitwise_eq(r, &o.values));
        tl.wrong = o.done.is_some()
            && (o.wrong || o.done_tokens != want || tl.tokens.len() != want || bad_ref);
    }
    let sent: Vec<&Timeline> = timelines.iter().filter(|t| t.sent.is_some()).collect();
    let wrong = sent.iter().filter(|t| t.wrong).count();
    let failed = sent.iter().filter(|t| t.failed).count();
    out.correct = wrong == 0 && errors == 0;
    out.attempted = sent.len() as u64;
    out.failed = failed as u64;
    if errors > 0 {
        out.note(format!("{errors} frames could not be matched to a request"));
    }
    if failed > 0 {
        out.note(format!(
            "{failed} requests failed: rejections {:?}, watchdog sheds {}, quarantined {}",
            m.rejected
                .iter()
                .filter(|(_, n)| *n > 0)
                .collect::<Vec<_>>(),
            m.watchdog_sheds,
            m.quarantined
        ));
    }

    let win_start = t0 + Duration::from_secs_f64(WARMUP_S);
    let measured: Vec<&Timeline> = timelines.iter().filter(|t| t.due >= win_start).collect();
    let tokens: usize = measured
        .iter()
        .filter(|t| t.completed())
        .map(|t| t.tokens.len())
        .sum();
    let tok_per_s = tokens as f64 / seconds;
    out.set("tok_per_s", tok_per_s);
    let a = arrivals(w);
    out.note(format!(
        "{}: {} requests sent at {} req/s (Poisson), {} measured, {} tokens delivered; \
         {} sampled requests checked against solo decodes",
        w.name(),
        sent.len(),
        a.rate,
        measured.len(),
        tokens,
        SAMPLED
    ));
    let latency = Latency::of(&measured, SLO);
    latency.report(&mut out, SLO);
    let lag = out.values["loadgen.lag_p99_ms"];
    if lag > LAG_LIMIT_MS {
        out.invalid = Some(format!(
            "generator fell behind: lag p99 {lag:.3} ms > {LAG_LIMIT_MS} ms"
        ));
    }
    common_setup_metrics(&mut out, &setups);
    out.set("peak_rss_mb", setup::peak_rss_mb());

    // Per-layer split: kernel spans from the decorator, step time from
    // the metrics' exact sum/count mean, the rest from client frames.
    let spans = tracer.as_ref().map(|t| t.spans()).unwrap_or_default();
    let kernel_spans: Vec<_> = spans.iter().filter(|s| s.kernel.is_some()).collect();
    let steps = m.steps.max(1) as f64;
    let step_mean = m.step_latency_mean_us;
    let totals = layers::kernel_metrics(
        &mut out,
        &kernel_spans,
        (run_end - t0).as_secs_f64() * 1e6,
        est_attn,
        est_gemm,
        step_mean * steps,
    );
    out.set("serve.step_us_mean", step_mean);
    out.set("serve.self_us_mean", step_mean - totals.busy_us / steps);
    out.set("serve.groups_per_step", totals.attn_calls as f64 / steps);
    out.set("serve.queue_depth_max", m.queue_depth_max as f64);
    let server_stats = st.map(|s| s.server).unwrap_or_default();
    out.set("serve.batch_mean", server_stats.mean_batch());
    // Compressed live-KV bytes per appended token, from the sampled
    // solo decodes: decode is batch-invariant, so their caches hold the
    // same bytes the served requests' caches did.
    let kv_bytes: usize = ref_out.iter().map(|(_, b)| b).sum();
    let appended: usize = sampled.iter().map(|r| r.gen_tokens - 1).sum();
    out.set(
        "serve.kv_bytes_per_token",
        kv_bytes as f64 / appended.max(1) as f64,
    );
    out.set("serve.kv_nmse", server_stats.kv_nmse());
    out.set(
        "serve.kv_folded_tokens",
        server_stats.kv_folded_tokens as f64,
    );
    out.set(
        "serve.kv_outlier_groups",
        server_stats.kv_outlier_groups as f64,
    );
    out.set("net.delivery_us", latency.itl_mean_ms * 1e3 - step_mean);
    out.set("net.writer_queue_peak", m.writer_queue_peak as f64);
    out.set("net.admitted", m.admitted as f64);
    out.set(
        "net.rejected",
        m.rejected.iter().map(|&(_, n)| n).sum::<u64>() as f64,
    );
    out.set("loadgen.sent", sent.len() as f64);
    out.set(
        "loadgen.completed",
        sent.iter().filter(|t| t.completed()).count() as f64,
    );
    out.set("loadgen.failed", failed as f64);
    out.set("loadgen.wrong", wrong as f64);
    out.set("core.plan_cache_hits", cache.hits as f64);
    out.set("core.plan_cache_misses", cache.misses as f64);
    out.set(
        "core.replans",
        tracer
            .as_ref()
            .map_or(0, |t| t.planner_calls() - planner_calls) as f64,
    );
    out.set("trace.tok_per_s", tok_per_s);
    out.set("trace.itl_p50_ms", latency.itl.p50);

    if let Some(t) = &tracer {
        for tl in &timelines {
            record_request(t, tl);
        }
        crate::write_trace(&mut out, t, w, seed);
    }
    out
}
