//! The timing decorator must not change what the engine computes, and the
//! metric registry must match `BENCHMARK.json`.

use perfbench::online;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::setup::{self, Req, Workload};
use perfbench::trace::{Tracer, ATTENTION, GEMM};
use std::sync::Arc;
use std::time::Instant;
use vq_llm::net::json::{self, Json};
use vq_llm::Backend;

/// The first requests each workload sends for seed 1.
fn first_requests(w: Workload, n: usize) -> Vec<Req> {
    match w {
        Workload::OfflineMixed => setup::offline_requests(1, n),
        _ => setup::schedule(online::arrivals(w), w.shapes()[0].1, 1, 1.0, 1.0)
            .into_iter()
            .take(n)
            .map(|(_, r)| r)
            .collect(),
    }
}

/// Submits every request up front and drains: the batched decode.
fn drain(w: Workload, backend: Arc<dyn Backend>, reqs: &[Req]) -> Vec<Vec<Vec<f32>>> {
    let ctxs = setup::contexts(&setup::quantizer(), w);
    let mut eng = setup::engine(backend, w, reqs.len());
    let handles: Vec<_> = ctxs
        .iter()
        .map(|c| eng.register_context(c.clone()).expect("register"))
        .collect();
    let ids: Vec<_> = reqs
        .iter()
        .map(|r| eng.submit(handles[r.ctx], r.decode_request()))
        .collect();
    eng.run_until_drained().expect("drain");
    ids.iter()
        .map(|h| eng.take_output(h).expect("finished").steps)
        .collect()
}

#[test]
fn decorated_and_plain_backends_decode_the_same_bits() {
    for w in Workload::ALL {
        let reqs = first_requests(w, 12);
        let plain = drain(w, setup::backend(None), &reqs);
        let tracer = Tracer::new(Instant::now());
        let traced = drain(w, setup::backend(Some(&tracer)), &reqs);
        assert_eq!(plain.len(), reqs.len());
        for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
            assert_eq!(
                p.len(),
                reqs[i].gen_tokens,
                "{}: request {i} length",
                w.name()
            );
            assert!(
                perfbench::bitwise_eq(p, t),
                "{}: request {i} decoded different bits through the decorator",
                w.name()
            );
        }
        let spans = tracer.spans();
        let attn = spans.iter().filter(|s| s.name == ATTENTION).count();
        let gemm = spans.iter().filter(|s| s.name == GEMM).count();
        assert!(
            attn > 0 && attn == gemm,
            "{}: {attn} attention, {gemm} gemm spans",
            w.name()
        );
    }
}

#[test]
fn schedules_repeat_per_seed_and_offer_fixed_load() {
    let w = Workload::OnlineShort;
    let a = online::arrivals(w);
    let s1 = setup::schedule(a, 64, 7, 1.0, 2.0);
    let s2 = setup::schedule(a, 64, 7, 1.0, 2.0);
    let s3 = setup::schedule(a, 64, 8, 1.0, 2.0);
    assert_eq!(s1, s2);
    assert_ne!(s1, s3);
    let tokens = |s: &[(f64, Req)]| -> usize {
        s.iter()
            .filter(|(t, _)| *t >= 1.0)
            .map(|(_, r)| r.gen_tokens)
            .sum()
    };
    assert_eq!(s1.len(), s3.len());
    assert_eq!(tokens(&s1), tokens(&s3));
    assert!(s1.windows(2).all(|p| p[0].0 <= p[1].0));
}

#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        match spec.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    };
    let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
    let names: Vec<String> = match spec.get("workloads") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
            .collect(),
        _ => panic!("BENCHMARK.json has no workloads"),
    };
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
}
