//! The repository benchmark: three workloads against the real CPU
//! execution path, end-to-end metrics from untraced runs and per-layer
//! metrics from traced runs that time calls into each layer from outside.
//! See `README.md` beside this crate.

pub mod layers;
pub mod offline;
pub mod online;
pub mod report;
pub mod rng;
pub mod setup;
pub mod stats;
pub mod timeline;
pub mod trace;

use std::path::PathBuf;

use report::Outcome;
use setup::Workload;
use trace::Tracer;

/// Bitwise equality of decoded rows.
pub fn bitwise_eq(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Runs one workload.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match w {
        Workload::OfflineMixed => offline::run(seed, seconds, trace),
        Workload::OnlineShort | Workload::OnlineLiveKv => online::run(w, seed, seconds, trace),
    }
}

/// Where traced runs write their spans: `traces/` beside this crate.
pub fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("perfbench"), PathBuf::from)
        .join("traces")
}

/// Writes a traced run's spans and notes where they went.
pub fn write_trace(out: &mut Outcome, t: &Tracer, w: Workload, seed: u64) {
    let path = trace_dir().join(format!("{}-seed{seed}.jsonl", w.name()));
    match t.write_jsonl(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
    }
}
