//! Per-request lifecycles and the latency metrics drawn from them.

use std::time::Instant;

use crate::report::Outcome;
use crate::stats;

/// What the benchmark saw of one request.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// When the request was due to be sent.
    pub due: Instant,
    /// When the generator started handing it to the program.
    pub sent: Option<Instant>,
    /// When the program acknowledged it (`accepted` frame, or the return
    /// of `Engine::submit`).
    pub accepted: Option<Instant>,
    /// When each output token arrived.
    pub tokens: Vec<Instant>,
    /// When the request finished.
    pub done: Option<Instant>,
    /// Rejected, dropped, quarantined or never finished.
    pub failed: bool,
    /// Finished with output that disagrees with its reference or its
    /// requested length.
    pub wrong: bool,
}

impl Timeline {
    /// A request due at `due` that has not been sent yet.
    pub fn new(due: Instant) -> Timeline {
        Timeline {
            due,
            sent: None,
            accepted: None,
            tokens: Vec::new(),
            done: None,
            failed: false,
            wrong: false,
        }
    }

    /// Finished, with every token, and not wrong.
    pub fn completed(&self) -> bool {
        self.done.is_some() && !self.failed && !self.wrong && !self.tokens.is_empty()
    }
}

/// The fixed latency limits of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Time-to-first-token limit, ms.
    pub ttft_ms: f64,
    /// Limit on a request's mean gap between tokens, ms.
    pub itl_ms: f64,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// p50, p90 and the deepest tail a sample supports, ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spread {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The highest percentile up to p99 with at least ten samples beyond
    /// it, as a fraction.
    pub tail_q: f64,
    /// Its value.
    pub tail: f64,
    /// Sample count.
    pub n: usize,
}

impl Spread {
    pub fn of(samples: Vec<f64>) -> Spread {
        let sorted = stats::sorted(samples);
        let t = stats::tail(&sorted);
        Spread {
            p50: stats::quantile(&sorted, 0.5),
            p90: stats::quantile(&sorted, 0.9),
            tail_q: t.q,
            tail: t.value,
            n: t.n,
        }
    }

    /// Field-wise median over several samples; counts add up.
    pub fn median(all: &[Spread]) -> Spread {
        let m = |f: fn(&Spread) -> f64| stats::median(&all.iter().map(f).collect::<Vec<_>>());
        Spread {
            p50: m(|s| s.p50),
            p90: m(|s| s.p90),
            tail_q: m(|s| s.tail_q),
            tail: m(|s| s.tail),
            n: all.iter().map(|s| s.n).sum(),
        }
    }
}

/// The latency figures of a set of requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    /// Requests considered.
    pub requests: usize,
    /// Of those, requests that met both limits of the [`Slo`].
    pub slo_ok: usize,
    /// Due → first token.
    pub ttft: Spread,
    /// Gap between consecutive tokens of one request.
    pub itl: Spread,
    /// Due → done.
    pub e2e: Spread,
    /// Mean gap between consecutive tokens, ms.
    pub itl_mean_ms: f64,
    /// Sent → accepted.
    pub accept: Spread,
    /// Accepted → first token.
    pub first_token_wait: Spread,
    /// Due → sent: how late the generator ran.
    pub lag: Spread,
}

impl Latency {
    /// Measures the requests' lifecycles. A request that did not complete
    /// misses the limits and contributes no latency sample.
    pub fn of(reqs: &[&Timeline], slo: Slo) -> Latency {
        let mut ttft = Vec::new();
        let mut itl = Vec::new();
        let mut e2e = Vec::new();
        let mut accept = Vec::new();
        let mut wait = Vec::new();
        let mut lag = Vec::new();
        let mut slo_ok = 0usize;
        for r in reqs {
            if let Some(sent) = r.sent {
                lag.push(ms(r.due, sent));
                if let Some(acc) = r.accepted {
                    accept.push(ms(sent, acc));
                }
            }
            if !r.completed() {
                continue;
            }
            let (Some(first), Some(done)) = (r.tokens.first(), r.done) else {
                continue;
            };
            let t = ms(r.due, *first);
            ttft.push(t);
            if let Some(acc) = r.accepted {
                wait.push(ms(acc, *first));
            }
            let gaps: Vec<f64> = r.tokens.windows(2).map(|p| ms(p[0], p[1])).collect();
            if t <= slo.ttft_ms && stats::mean(&gaps) <= slo.itl_ms {
                slo_ok += 1;
            }
            itl.extend(gaps);
            e2e.push(ms(r.due, done));
        }
        Latency {
            requests: reqs.len(),
            slo_ok,
            itl_mean_ms: stats::mean(&itl),
            ttft: Spread::of(ttft),
            itl: Spread::of(itl),
            e2e: Spread::of(e2e),
            accept: Spread::of(accept),
            first_token_wait: Spread::of(wait),
            lag: Spread::of(lag),
        }
    }

    /// Field-wise median over repeated measurements (the offline drains);
    /// request counts add up.
    pub fn median(all: &[Latency]) -> Latency {
        let spread =
            |f: fn(&Latency) -> Spread| Spread::median(&all.iter().map(f).collect::<Vec<_>>());
        Latency {
            requests: all.iter().map(|l| l.requests).sum(),
            slo_ok: all.iter().map(|l| l.slo_ok).sum(),
            itl_mean_ms: stats::median(&all.iter().map(|l| l.itl_mean_ms).collect::<Vec<_>>()),
            ttft: spread(|l| l.ttft),
            itl: spread(|l| l.itl),
            e2e: spread(|l| l.e2e),
            accept: spread(|l| l.accept),
            first_token_wait: spread(|l| l.first_token_wait),
            lag: spread(|l| l.lag),
        }
    }

    /// Sets the end-to-end latency metrics (`ttft_p50_ms`, `itl_p50_ms`,
    /// `e2e_p50_ms`, `slo_ok_frac`) and the per-layer acceptance, wait and
    /// generator-lag metrics.
    ///
    /// Latency is gated at the median; the tail enters the gate through
    /// `slo_ok_frac`. The p90 and the deepest supported tail are printed
    /// with their sample counts but not gated: on a small shared host the
    /// serving thread loses the CPU in bursts, and those tails moved by a
    /// third to a half between identical runs.
    pub fn report(&self, out: &mut Outcome, slo: Slo) {
        out.set("ttft_p50_ms", self.ttft.p50);
        out.set("itl_p50_ms", self.itl.p50);
        out.set("e2e_p50_ms", self.e2e.p50);
        out.set(
            "slo_ok_frac",
            self.slo_ok as f64 / self.requests.max(1) as f64,
        );
        for (name, s) in [("ttft", self.ttft), ("itl", self.itl), ("e2e", self.e2e)] {
            out.note(format!(
                "{name}: p50 {:.3} ms, p90 {:.3} ms, p{:.2} {:.3} ms over {} samples",
                s.p50,
                s.p90,
                s.tail_q * 100.0,
                s.tail,
                s.n
            ));
        }
        out.note(format!(
            "slo: {}/{} requests met ttft <= {} ms and mean itl <= {} ms",
            self.slo_ok, self.requests, slo.ttft_ms, slo.itl_ms
        ));
        out.note(format!(
            "loadgen lag p50 {:.3} ms, p{:.2} {:.3} ms",
            self.lag.p50,
            self.lag.tail_q * 100.0,
            self.lag.tail
        ));
        out.set("net.accept_ms_p50", self.accept.p50);
        out.set("net.accept_ms_p99", self.accept.tail);
        out.set("net.first_token_wait_ms_p50", self.first_token_wait.p50);
        out.set("loadgen.lag_p99_ms", self.lag.tail);
    }
}
