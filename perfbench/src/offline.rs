//! `offline_mixed`: the library throughput case.
//!
//! An in-process `Engine` at batch 8 holds two contexts of different
//! geometry. A fixed request set, attended depths spread over each
//! context, is submitted up front and drained by calling `Engine::step`
//! in a loop (closed loop); the set is drained again and again for the
//! measured time. Every request of a round is due when the round starts,
//! so time to first token here is the wait behind the backlog.
//!
//! Each drain is summarized as it ends and its records dropped, so the
//! benchmark's own memory does not grow with the number of drains a
//! faster program fits into the run (that would read as a `peak_rss_mb`
//! regression).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use vq_llm::llm::RequestId;
use vq_llm::{ContextHandle, Engine};

use crate::layers;
use crate::report::Outcome;
use crate::rng::Rng;
use crate::setup::{self, Req, Workload, SETUPS};
use crate::stats;
use crate::timeline::{Latency, Slo, Spread, Timeline};
use crate::trace::Tracer;

/// Requests in the fixed set.
pub const REQUESTS: usize = 48;
/// Requests per drain checked bit for bit against a solo decode.
pub const SAMPLED: usize = 6;
/// Latency limits: a request of the set must start within about two
/// drains' time and decode at about the engine's step pace.
pub const SLO: Slo = Slo {
    ttft_ms: 2000.0,
    itl_ms: 15.0,
};

/// One `Engine::step` as the loop saw it.
struct StepLog {
    end: Instant,
    admitted: Vec<RequestId>,
    finished: Vec<RequestId>,
    quarantined: Vec<RequestId>,
}

/// What one drain of the request set measured.
#[derive(Default)]
struct Round {
    secs: f64,
    /// Tokens of requests that completed with the right output.
    tokens: usize,
    latency: Latency,
    completed: usize,
    wrong: usize,
    failed: usize,
    /// Step wall times, µs.
    step: Spread,
    steps: usize,
    step_us_total: f64,
    batch_total: usize,
    groups_total: usize,
    queued_max: usize,
}

/// Submits the whole set, steps until idle, then checks every output
/// (after the clock stops) against its length and, for sampled requests,
/// against the solo reference.
fn drain_round(
    eng: &mut Engine,
    handles: &[ContextHandle],
    reqs: &[Req],
    refs: &HashMap<usize, Vec<Vec<f32>>>,
    tracer: Option<&Arc<Tracer>>,
) -> Round {
    let decode: Vec<_> = reqs.iter().map(Req::decode_request).collect();
    let start = Instant::now();
    let mut timelines: Vec<Timeline> = reqs.iter().map(|_| Timeline::new(start)).collect();
    let mut ids = Vec::with_capacity(reqs.len());
    for ((r, d), tl) in reqs.iter().zip(decode).zip(timelines.iter_mut()) {
        tl.sent = Some(Instant::now());
        ids.push(eng.submit(handles[r.ctx], d));
        tl.accepted = Some(Instant::now());
    }
    let mut round = Round::default();
    let mut steps = Vec::new();
    let mut step_us = Vec::new();
    while !eng.is_idle() {
        let span = tracer.map_or(0, |t| {
            let id = t.reserve();
            t.set_parent(id);
            id
        });
        let t0 = Instant::now();
        let rep = eng.step().expect("engine step");
        let t1 = Instant::now();
        if let Some(t) = tracer {
            t.set_parent(0);
            t.record_as(span, "serve.step", 0, 0, t0, t1, None);
        }
        step_us.push((t1 - t0).as_secs_f64() * 1e6);
        round.batch_total += rep.batch;
        round.groups_total += rep.groups;
        round.queued_max = round.queued_max.max(rep.queued);
        steps.push(StepLog {
            end: t1,
            admitted: rep.admitted,
            finished: rep.finished,
            quarantined: rep.quarantined,
        });
    }
    round.secs = start.elapsed().as_secs_f64();

    // A request decodes one token in every step from the one that
    // admitted it to the one that finished it.
    let index: HashMap<RequestId, usize> =
        ids.iter().enumerate().map(|(i, h)| (h.id(), i)).collect();
    let mut first = vec![None; reqs.len()];
    for (s, log) in steps.iter().enumerate() {
        for id in &log.admitted {
            first[index[id]] = Some(s);
        }
        for id in &log.quarantined {
            timelines[index[id]].failed = true;
        }
        for id in &log.finished {
            let i = index[id];
            if let Some(a) = first[i] {
                timelines[i].tokens = steps[a..=s].iter().map(|l| l.end).collect();
                timelines[i].done = Some(log.end);
            }
        }
    }
    for (i, (h, tl)) in ids.iter().zip(timelines.iter_mut()).enumerate() {
        match eng.take_output(h) {
            Some(out) => {
                let want = reqs[i].gen_tokens;
                let bad_ref = refs
                    .get(&i)
                    .is_some_and(|r| !crate::bitwise_eq(r, &out.steps));
                if out.steps.len() != want || tl.tokens.len() != want || bad_ref {
                    tl.wrong = true;
                } else {
                    round.tokens += want;
                }
            }
            None => tl.failed = true,
        }
    }
    let all: Vec<&Timeline> = timelines.iter().collect();
    round.latency = Latency::of(&all, SLO);
    round.completed = all.iter().filter(|t| t.completed()).count();
    round.wrong = all.iter().filter(|t| t.wrong).count();
    round.failed = all.iter().filter(|t| t.failed).count();
    round.steps = step_us.len();
    round.step_us_total = step_us.iter().sum();
    round.step = Spread::of(step_us);
    if let Some(t) = tracer {
        for tl in &timelines {
            record_request(t, tl);
        }
    }
    round
}

/// Runs the workload for `seconds` of timed drains after one warm-up
/// drain.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let w = Workload::OfflineMixed;
    let tracer = trace.then(|| Tracer::new(Instant::now()));
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let (eng, handles, ctxs, times) =
            setup::build(w, setup::backend(tracer.as_ref()), REQUESTS);
        setups.push(times);
        kept = Some((eng, handles, ctxs));
    }
    let (mut eng, handles, ctxs) = kept.expect("at least one set-up");
    let cache = eng.cache_stats();

    let reqs = setup::offline_requests(seed, REQUESTS);
    let sample = Rng::new(seed, 3).sample(REQUESTS, SAMPLED);
    let sampled: Vec<&Req> = sample.iter().map(|&i| &reqs[i]).collect();
    let refs: HashMap<usize, Vec<Vec<f32>>> = sample
        .iter()
        .copied()
        .zip(setup::solo_references(w, &ctxs, &sampled))
        .map(|(i, (rows, _))| (i, rows))
        .collect();
    let (est_attn, est_gemm) = if trace {
        setup::estimate_us(&eng, &handles)
    } else {
        (0.0, 0.0)
    };

    let warm = drain_round(&mut eng, &handles, &reqs, &refs, None);
    let stats0 = eng.stats();
    let planner_calls = tracer.as_ref().map_or(0, |t| t.planner_calls());
    let mut rounds = vec![];
    let ticks = setup::cpu_ticks();
    let t_meas = Instant::now();
    while rounds.is_empty() || t_meas.elapsed().as_secs_f64() < seconds {
        rounds.push(drain_round(
            &mut eng,
            &handles,
            &reqs,
            &refs,
            tracer.as_ref(),
        ));
    }
    out.note(setup::steal_note(ticks, setup::cpu_ticks()));
    let stats1 = eng.stats();

    let every = || rounds.iter().chain(std::iter::once(&warm));
    let wrong: usize = every().map(|r| r.wrong).sum();
    let failed: usize = every().map(|r| r.failed).sum();
    let completed: usize = every().map(|r| r.completed).sum();
    out.correct = wrong == 0;
    out.attempted = (REQUESTS * (rounds.len() + 1)) as u64;
    out.failed = failed as u64;

    // Each figure is the median over drains: one drain that host noise
    // slowed does not move it.
    let drain_s: f64 = rounds.iter().map(|r| r.secs).sum();
    let tokens: usize = rounds.iter().map(|r| r.tokens).sum();
    let per_round: Vec<f64> = rounds.iter().map(|r| r.tokens as f64 / r.secs).collect();
    let tok_per_s = stats::median(&per_round);
    out.set("tok_per_s", tok_per_s);
    out.note(format!(
        "offline_mixed: {} drains of {REQUESTS} requests, {tokens} tokens in {drain_s:.3} s \
         ({:.0} tok/s overall, per-drain median {tok_per_s:.0}); latency figures are medians \
         over drains; {SAMPLED} sampled requests per drain checked against solo decodes",
        rounds.len(),
        tokens as f64 / drain_s,
    ));
    let latency = Latency::median(&rounds.iter().map(|r| r.latency).collect::<Vec<_>>());
    latency.report(&mut out, SLO);
    common_setup_metrics(&mut out, &setups);
    out.set("peak_rss_mb", setup::peak_rss_mb());

    // Per-layer split. Kernel figures need the traced run; the rest is
    // also exact untraced but only printed with `--trace 1`.
    let steps: usize = rounds.iter().map(|r| r.steps).sum();
    let step_us_total: f64 = rounds.iter().map(|r| r.step_us_total).sum();
    let step_mean = step_us_total / steps.max(1) as f64;
    // Kernel calls inside timed steps carry the step as parent; the
    // warm-up drain's calls carry none.
    let spans = tracer.as_ref().map(|t| t.spans()).unwrap_or_default();
    let kernel_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.kernel.is_some() && s.parent != 0)
        .collect();
    let totals = layers::kernel_metrics(
        &mut out,
        &kernel_spans,
        drain_s * 1e6,
        est_attn,
        est_gemm,
        step_us_total,
    );
    let self_us = (step_us_total - totals.busy_us) / steps.max(1) as f64;
    out.set("serve.step_us_mean", step_mean);
    out.set("serve.self_us_mean", self_us);
    if trace {
        out.note(format!(
            "step = kernel spans + self: {step_mean:.1} us = {:.1} us + {self_us:.1} us per step",
            totals.busy_us / steps.max(1) as f64
        ));
    }
    let step = Spread::median(&rounds.iter().map(|r| r.step).collect::<Vec<_>>());
    out.note(format!(
        "serve: {steps} steps, per-drain medians p50 {:.1} us, p{:.2} {:.1} us; mean {step_mean:.1} us",
        step.p50,
        step.tail_q * 100.0,
        step.tail
    ));
    let per_step =
        |f: fn(&Round) -> usize| rounds.iter().map(f).sum::<usize>() as f64 / steps.max(1) as f64;
    out.set("serve.batch_mean", per_step(|r| r.batch_total));
    out.set("serve.groups_per_step", per_step(|r| r.groups_total));
    out.set(
        "serve.queue_depth_max",
        rounds.iter().map(|r| r.queued_max).max().unwrap_or(0) as f64,
    );
    for k in [
        "serve.kv_bytes_per_token",
        "serve.kv_nmse",
        "serve.kv_folded_tokens",
        "serve.kv_outlier_groups",
        "net.writer_queue_peak",
    ] {
        out.set(k, 0.0);
    }
    out.set("net.delivery_us", latency.itl_mean_ms * 1e3 - step_mean);
    out.set("net.admitted", (stats1.submitted - stats0.submitted) as f64);
    out.set("net.rejected", (stats1.rejected - stats0.rejected) as f64);
    out.set("loadgen.sent", out.attempted as f64);
    out.set("loadgen.completed", completed as f64);
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
        crate::write_trace(&mut out, t, w, seed);
    }
    out
}

/// `setup_s`, `vq.quantize_s` and `core.register_ms` as medians over the
/// run's set-ups.
pub fn common_setup_metrics(out: &mut Outcome, setups: &[setup::SetupTimes]) {
    let total: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let quant: Vec<f64> = setups.iter().map(|s| s.quantize_s).collect();
    let reg: Vec<f64> = setups.iter().map(|s| s.register_ms).collect();
    out.set("setup_s", stats::median(&total));
    out.set("vq.quantize_s", stats::median(&quant));
    out.set("core.register_ms", stats::median(&reg));
    out.note(format!(
        "setup: {} set-ups, {:?} s each; kernel threads {}",
        setups.len(),
        total
            .iter()
            .map(|t| (t * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        setup::KERNEL_THREADS
    ));
}

/// Records a request's lifecycle as spans: the request, and under it the
/// generator lag, acceptance, the wait for the first token, and each gap
/// between tokens.
pub fn record_request(t: &Tracer, tl: &Timeline) {
    let Some(end) = tl.done.or(tl.tokens.last().copied()).or(tl.accepted) else {
        return;
    };
    let req = t.reserve();
    t.record_as(req, "request", 0, req, tl.due, end, None);
    if let Some(sent) = tl.sent {
        t.record("loadgen.lag", req, req, tl.due, sent);
        if let Some(acc) = tl.accepted {
            t.record("net.accept", req, req, sent, acc);
            if let Some(&first) = tl.tokens.first() {
                t.record("net.first_token_wait", req, req, acc, first);
            }
        }
    }
    for p in tl.tokens.windows(2) {
        t.record("token_gap", req, req, p[0], p[1]);
    }
}
