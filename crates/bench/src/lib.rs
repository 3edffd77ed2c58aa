//! Benchmark harness: shared plumbing for the figure/table regeneration
//! binaries (`src/bin/fig*.rs`, `src/bin/tbl*.rs`) and the Criterion
//! benches (`benches/`).
//!
//! Every binary regenerates one table or figure from the paper's
//! evaluation; `cargo run -p vqllm-bench --bin figures --release` runs all
//! of them and tees the output to `results/`.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use vq_llm::net::json::{self, Json};

/// A figure/table report: builds the text, prints it, and tees it into
/// `results/<id>.txt` at the workspace root.
#[derive(Debug)]
pub struct Report {
    id: String,
    body: String,
}

impl Report {
    /// Starts a report for experiment `id` (e.g. `"fig13"`).
    pub fn new(id: &str, title: &str) -> Self {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "================================================================"
        );
        let _ = writeln!(body, "{id}: {title}");
        let _ = writeln!(
            body,
            "================================================================"
        );
        Report {
            id: id.to_string(),
            body,
        }
    }

    /// Appends a line.
    pub fn line(&mut self, s: impl AsRef<str>) {
        let _ = writeln!(self.body, "{}", s.as_ref());
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        let _ = writeln!(self.body);
    }

    /// Appends a section header.
    pub fn section(&mut self, s: &str) {
        let _ = writeln!(self.body, "\n--- {s} ---");
    }

    /// Prints to stdout and writes `results/<id>.txt`.
    pub fn finish(self) {
        println!("{}", self.body);
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let _ = fs::write(dir.join(format!("{}.txt", self.id)), &self.body);
    }
}

/// `results/` directory at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// A flat JSON bench record (`BENCH_serving.json`) shared by several
/// bins: each bin loads the file, upserts only its own keys, and writes
/// it back, so no run drops another bin's keys. This is the file's one
/// reader/writer; key order is preserved and new keys append.
#[derive(Debug, Clone, Default)]
pub struct BenchRecord {
    path: PathBuf,
    fields: Vec<(String, Json)>,
}

impl BenchRecord {
    /// `BENCH_serving.json` at the workspace root.
    pub fn serving() -> Self {
        let mut path = results_dir();
        path.pop();
        path.push("BENCH_serving.json");
        BenchRecord::load(&path)
    }

    /// Loads the record at `path`; a missing or malformed file (or one
    /// whose top level is not an object) starts an empty record.
    pub fn load(path: &Path) -> Self {
        let fields = match fs::read_to_string(path)
            .ok()
            .and_then(|s| json::parse(&s).ok())
        {
            Some(Json::Obj(fields)) => fields,
            _ => Vec::new(),
        };
        BenchRecord {
            path: path.to_path_buf(),
            fields,
        }
    }

    /// The numeric value under `key`, if present.
    pub fn num_of(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    }

    /// Upserts `key`.
    pub fn set(&mut self, key: &str, v: Json) {
        match self.fields.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = v,
            None => self.fields.push((key.to_string(), v)),
        }
    }

    /// Upserts `key` as a number rounded to `decimals` places.
    pub fn set_num(&mut self, key: &str, n: f64, decimals: i32) {
        let scale = 10f64.powi(decimals);
        self.set(key, Json::Num((n * scale).round() / scale));
    }

    /// One key per line, so the committed file diffs by key.
    pub fn render(&self) -> String {
        let mut s = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            s.push_str("  ");
            json::push_escaped(k, &mut s);
            s.push_str(": ");
            s.push_str(&json::to_string(v));
            if i + 1 < self.fields.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("}\n");
        s
    }

    /// Writes the record back to the file it was loaded from and returns
    /// the rendered text.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn save(&self) -> std::io::Result<String> {
        let rendered = self.render();
        fs::write(&self.path, &rendered)?;
        Ok(rendered)
    }
}

/// Formats a latency with a sensible unit.
pub fn fmt_us(us: f64) -> String {
    if us >= 10_000.0 {
        format!("{:8.2} ms", us / 1000.0)
    } else {
        format!("{us:8.1} us")
    }
}

/// Formats a byte count.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:7.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:7.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:7.2} KB", b / 1e3)
    } else {
        format!("{b:7.0} B ")
    }
}

/// Simple fixed-width ASCII bar for histogram-style figures.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn serve_bench_merge_keeps_other_bins_keys() {
        let path =
            std::env::temp_dir().join(format!("vqllm-bench-record-{}.json", std::process::id()));
        let mut rec = BenchRecord::load(&path);
        rec.set_num("step_latency_p50_us", 2786.7, 1);
        rec.set_num("net_load_p50_us", 5120.0, 1);
        rec.set_num("chaos_restarts", 1.0, 0);
        rec.save().unwrap();

        // What serve_bench does: load, read its old baseline, upsert its
        // own keys, save.
        let mut rec = BenchRecord::load(&path);
        assert_eq!(rec.num_of("step_latency_p50_us"), Some(2786.7));
        rec.set_num("step_latency_p50_us", 812.34, 1);
        rec.set_num("kv_ratio", 0.214_549, 4);
        rec.set("simd_tier", Json::Str("avx2+fma".into()));
        rec.save().unwrap();

        let back = BenchRecord::load(&path);
        let _ = fs::remove_file(&path);
        assert_eq!(back.num_of("step_latency_p50_us"), Some(812.3));
        assert_eq!(back.num_of("kv_ratio"), Some(0.2145));
        assert_eq!(back.num_of("net_load_p50_us"), Some(5120.0));
        assert_eq!(back.num_of("chaos_restarts"), Some(1.0));
        let keys: Vec<&str> = back.fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "step_latency_p50_us",
                "net_load_p50_us",
                "chaos_restarts",
                "kv_ratio",
                "simd_tier"
            ]
        );
        assert!(back.render().contains("  \"simd_tier\": \"avx2+fma\"\n}"));
    }

    #[test]
    fn missing_record_starts_empty() {
        let rec = BenchRecord::load(Path::new("/nonexistent/BENCH_serving.json"));
        assert_eq!(rec.num_of("step_latency_p50_us"), None);
        assert_eq!(rec.render(), "{\n}\n");
    }

    #[test]
    fn fmt_helpers_pick_units() {
        assert!(fmt_us(500.0).contains("us"));
        assert!(fmt_us(50_000.0).contains("ms"));
        assert!(fmt_bytes(2.5e6).contains("MB"));
        assert!(fmt_bytes(100.0).contains("B"));
    }
}
