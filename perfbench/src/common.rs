//! Shared plumbing: command-line arguments, seeded key spaces, order
//! statistics, the run report and the metric tables.

use crate::trace::Tracer;
use serde::Value;
use std::time::{Duration, Instant};

/// Every end-to-end metric, in the order `BENCHMARK.json` lists them. Each
/// workload reports all of them (see README.md for what each means on each
/// workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("lookup_keys_per_s", "1/s"),
    ("point_lookups_per_s", "1/s"),
    ("bits_per_key", "bits/key"),
    ("fpr", "fraction"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// workload that does not exercise a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("store.snapshot_ns", "ns"),
    ("store.probe_ns_per_key", "ns"),
    ("store.route_ns_per_key", "ns"),
    ("store.kernel_ns_per_key", "ns"),
    ("store.merge_ns_per_key", "ns"),
    ("kernel.routed_ns_per_key", "ns"),
    ("kernel.simd_ns_per_key", "ns"),
    ("kernel.staged_ns_per_key", "ns"),
    ("kernel.scalar_ns_per_key", "ns"),
    ("kernel8m.routed_ns_per_key", "ns"),
    ("kernel8m.simd_ns_per_key", "ns"),
    ("kernel8m.staged_ns_per_key", "ns"),
    ("kernel8m.scalar_ns_per_key", "ns"),
    ("join.hash_probe_ns", "ns"),
    ("join.probes_per_match", "ratio"),
    ("join.measured_ns_per_tuple", "ns"),
    ("model.rho_ns_per_tuple", "ns"),
    ("model.fpr", "fraction"),
    ("write.batch_ms_p50", "ms"),
    ("write.batch_ms_p99", "ms"),
    ("write.route_ns_per_key", "ns"),
    ("filter.insert_ns_per_key", "ns"),
    ("store.publish_clone_us", "us"),
    ("persist.wal_append_us", "us"),
    ("store.bookkeeping_ns_per_key", "ns"),
    ("store.delete_us", "us"),
    ("store.maintain_ms", "ms"),
    ("store.rebuilds", "count"),
    ("persist.disk_bytes_per_key", "B/key"),
    ("persist.snapshot_bytes_per_key", "B/key"),
    ("persist.wal_bytes_per_key", "B/key"),
    ("recover.open_s", "s"),
    ("persist.scan_ms", "ms"),
    ("persist.recover_shard_ms", "ms"),
    ("store.replay_ms", "ms"),
    ("persist.replay_records", "count"),
    ("tiered.level0_probe_ns_per_key", "ns"),
    ("tiered.level1_probe_ns_per_key", "ns"),
    ("tiered.cascade_share", "fraction"),
    ("tiered.compaction_batch_ms", "ms"),
    ("tiered.compactions", "count"),
    ("trace.unattributed_share", "fraction"),
];

/// The four workloads.
pub const WORKLOADS: &[&str] = &[
    "join_filter",
    "join_store",
    "ingest_recover",
    "tiered_churn",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run may write (durable store directories, trace files).
    pub out_dir: std::path::PathBuf,
}

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut out_dir = std::path::PathBuf::from(".bench_out");
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--out-dir" => out_dir = value()?.into(),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            out_dir,
        })
    }
}

/// Seeded 64-bit generator (SplitMix64) for the benchmark's own sampling.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A seeded bijection from indices to 32-bit keys. Indices below 2^31 give
/// *present* keys and indices at or above 2^31 give *absent* keys; because
/// the map is a bijection the two halves never collide, so membership of
/// every generated key is known by construction, without a hash set.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    salt: u32,
}

impl KeySpace {
    pub fn new(seed: u64) -> Self {
        Self {
            salt: (Rng::new(seed).next_u64() >> 32) as u32,
        }
    }

    fn map(self, index: u32) -> u32 {
        // Each step is a bijection on u32: xor with a constant, multiply by
        // an odd constant, xor-shift.
        let mut h = (index ^ self.salt).wrapping_mul(0x9E37_79B1);
        h ^= h >> 15;
        h = h.wrapping_mul(0x85EB_CA77);
        h ^= h >> 13;
        h
    }

    /// The `i`-th present key (`i < 2^31`).
    pub fn present(self, i: u32) -> u32 {
        debug_assert!(i < 1 << 31);
        self.map(i)
    }

    /// The `i`-th absent key (`i < 2^31`); never equal to any present key.
    pub fn absent(self, i: u32) -> u32 {
        debug_assert!(i < 1 << 31);
        self.map(i | 1 << 31)
    }
}

/// Order statistic by linear interpolation between closest ranks (the
/// method Python's `statistics.quantiles(..., method="inclusive")` uses).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size of the regular files in `dir` whose name ends in `suffix`
/// (all files for an empty suffix).
pub fn dir_bytes(dir: &std::path::Path, suffix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Everything one run reports: the operation tally and both metric sets.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check found a wrong answer.
    pub wrong: bool,
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
    deadline: Instant,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            wrong: false,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            tracer: Tracer::new(trace),
            deadline: Instant::now(),
        }
    }

    /// Start the timed phase: it lasts the requested seconds from now.
    pub fn start_timed_phase(&mut self, seconds: f64) {
        self.deadline = Instant::now() + Duration::from_secs_f64(seconds);
    }

    /// True once the timed phase's time is used up.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Record one checked operation. A wrong answer counts it as failed and
    /// marks the run incorrect.
    pub fn op(&mut self, ok: bool) {
        self.ops(1, u64::from(!ok));
    }

    /// Record `n` checked operations of which `wrong` gave a wrong answer.
    pub fn ops(&mut self, n: u64, wrong: u64) {
        self.attempted += n;
        self.failed += wrong;
        self.wrong |= wrong > 0;
    }

    /// Record one operation the program refused with an error. It counts as
    /// failed and marks the run incorrect: whatever the operation should
    /// have produced (a recovered store, say) went unchecked.
    pub fn op_error(&mut self, what: &str, error: &dyn std::fmt::Display) {
        eprintln!("operation failed: {what}: {error}");
        self.ops(1, 1);
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "{name} is not an end-to-end metric"
        );
        self.end_to_end.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.per_layer.push((name, value));
    }

    /// The result object: end-to-end metrics untraced, per-layer traced.
    /// Metrics a workload did not set read 0 (per-layer) — an end-to-end
    /// metric left unset is a bug in the workload.
    pub fn result_json(&self, trace: bool) -> Value {
        let (table, values) = if trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v);
                assert!(
                    trace || value.is_some(),
                    "workload did not report end-to-end metric {name}"
                );
                let value = value.unwrap_or(0.0);
                (
                    name.to_owned(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            (
                "correct".into(),
                Value::Bool(!self.wrong && self.attempted > 0),
            ),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ])
    }

    /// End-to-end metrics as a JSON map (written into the trace file so the
    /// steadiness tool can report the tracing overhead).
    pub fn end_to_end_json(&self) -> Value {
        Value::Map(
            self.end_to_end
                .iter()
                .map(|&(n, v)| (n.to_owned(), Value::F64(v)))
                .collect(),
        )
    }
}

/// Set-up timings of one run. The workload sets up once before its timed
/// phase and again every so often inside it, so that `setup_s`, their
/// median, samples the whole run rather than its first milliseconds.
#[derive(Debug, Default)]
pub struct Setups {
    walls: Vec<f64>,
}

impl Setups {
    /// Run `setup`, record its wall time and return its result.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = setup();
        self.walls.push(start.elapsed().as_secs_f64());
        value
    }

    /// Run `setup` `times` times, returning the last result (the one the
    /// workload goes on with). Earlier results are dropped before the next
    /// set-up starts, so peak memory holds one copy.
    pub fn repeat<T>(&mut self, times: usize, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..times {
            drop(last.take());
            last = Some(self.time(&mut setup));
        }
        last.expect("at least one set-up")
    }

    /// The median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.walls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// tables' metrics, with the same units, in the same order.
    #[test]
    fn benchmark_json_lists_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = serde_json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Seq(entries)) = spec.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            let listed: Vec<(String, String)> = entries
                .iter()
                .map(|e| match (e.get("name"), e.get("unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry without a name and a unit"),
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(
                listed, expected,
                "{key} differs from the table in common.rs"
            );
        }
        let Some(Value::Seq(workloads)) = spec.get("workloads") else {
            panic!("BENCHMARK.json has no workloads list");
        };
        let names: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let expected: Vec<Value> = WORKLOADS.iter().map(|&w| Value::Str(w.into())).collect();
        assert_eq!(names, expected.iter().collect::<Vec<_>>());
    }

    #[test]
    fn key_space_halves_are_disjoint_and_seeded() {
        let a = KeySpace::new(1);
        let b = KeySpace::new(2);
        let present: std::collections::HashSet<u32> = (0..1 << 16).map(|i| a.present(i)).collect();
        assert_eq!(present.len(), 1 << 16);
        assert!((0..1 << 16).all(|i| !present.contains(&a.absent(i))));
        assert_ne!(a.present(0), b.present(0));
    }
}
