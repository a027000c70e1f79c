//! `join_filter`: the paper's Figure 2 pipeline. A cache-sectorized Bloom
//! filter over 2^16 dimension keys is pushed into a scan of 2^22 fact tuples
//! at σ = 0.1 through `ProbePipeline`, followed by a batch-lookup and a
//! point-lookup phase on the same keys. No store, no writes: the filter's
//! batch kernel does most of the work.
//!
//! The filter (128 KiB) and the join hash table (1 MiB) stay inside one
//! core's 2 MiB L2 on purpose: on the benchmark host, working sets that live
//! in the shared L3 swing by 2-3x with other tenants' load for tens of
//! seconds at a time, which no per-run statistic can steady. The traced run
//! adds the cell the routing question needs: the four batch kernels timed
//! on an 8 MiB filter over 2^22 keys, where `contains_batch` routes 4096-key
//! batches to the staged kernel.

use crate::check::{check_join, check_probe, oracle_join, point_block, tally_probe, JoinTotals};
use crate::common::{median, peak_rss_mib, KeySpace, Report, Rng, Setups};
use pof_bloom::{Addressing, BloomConfig};
use pof_core::{AnyFilter, Calibrator, FilterConfig};
use pof_filter::{Filter, ProbePlan, SelectionVector, STAGED_BATCH_THRESHOLD};
use pof_workloads::{JoinHashTable, JoinWorkload, ProbePipeline};
use std::time::Instant;

pub const DIMENSION_KEYS: usize = 1 << 16;
pub const FACT_TUPLES: usize = 1 << 22;
/// Keys of the past-L2 kernel cell's filter (8 MiB at 16 bits per key).
pub const PAST_L2_KEYS: usize = 1 << 22;
pub const SIGMA: f64 = 0.1;
pub const BITS_PER_KEY: f64 = 16.0;
/// The pipeline's batch size (`ProbePipeline`'s default).
pub const BATCH: usize = 4096;
/// Fact tuples per timed join unit: one `run_with_filter` call (16 batches).
pub const CHUNK: usize = 1 << 16;
/// Point-lookup keys per round, timed in blocks of `BATCH`.
pub const POINT_KEYS_PER_ROUND: usize = 1 << 13;
/// Set-ups before the timed phase; one more follows every `SETUP_EVERY`
/// rounds inside it, and the rounds after it use the new filter and table.
/// `setup_s` is the median of them all.
const SETUPS: usize = 3;
const SETUP_EVERY: usize = 64;

pub fn bloom_config() -> FilterConfig {
    FilterConfig::Bloom(BloomConfig::cache_sectorized(
        512,
        64,
        2,
        8,
        Addressing::Magic,
    ))
}

/// Join inputs with membership known by construction.
pub struct JoinInputs {
    pub dimension_keys: Vec<u32>,
    /// One workload per `CHUNK` fact tuples (their dimension side is empty:
    /// the pipeline only reads the fact columns).
    pub chunks: Vec<JoinWorkload>,
    /// Bit `i` set when fact tuple `i` (global index) joins.
    pub member: Vec<u64>,
    pub oracle: Vec<JoinTotals>,
}

impl JoinInputs {
    /// `dimension` distinct keys; `facts` tuples of which a fraction σ carry
    /// a uniformly drawn dimension key and the rest a key outside the
    /// dimension (disjoint by construction), with payloads in `1..1000`.
    pub fn generate(seed: u64, dimension: usize, facts: usize) -> Self {
        let space = KeySpace::new(seed);
        let mut rng = Rng::new(seed ^ 0xFAC7);
        let dimension_keys: Vec<u32> = (0..dimension as u32).map(|i| space.present(i)).collect();
        let mut member = vec![0u64; facts.div_ceil(64)];
        let threshold = (SIGMA * u64::MAX as f64) as u64;
        let chunks: Vec<JoinWorkload> = (0..facts.div_ceil(CHUNK))
            .map(|c| {
                let len = CHUNK.min(facts - c * CHUNK);
                let mut fact_keys = Vec::with_capacity(len);
                let mut fact_values = Vec::with_capacity(len);
                for i in c * CHUNK..c * CHUNK + len {
                    let key = if rng.next_u64() < threshold {
                        member[i / 64] |= 1 << (i % 64);
                        dimension_keys[rng.below(dimension as u64) as usize]
                    } else {
                        space.absent(rng.below(1 << 31) as u32)
                    };
                    fact_keys.push(key);
                    fact_values.push(1 + rng.below(999));
                }
                JoinWorkload {
                    dimension_keys: Vec::new(),
                    fact_keys,
                    fact_values,
                    sigma: SIGMA,
                }
            })
            .collect();
        let oracle = oracle_join(
            &dimension_keys,
            chunks
                .iter()
                .map(|w| (&w.fact_keys[..], &w.fact_values[..])),
        );
        Self {
            dimension_keys,
            chunks,
            member,
            oracle,
        }
    }

    /// Membership bitmap of chunk `chunk` from `position` on (a multiple of
    /// 64): bit `p` is set when tuple `position + p` joins.
    pub fn members(&self, chunk: usize, position: usize) -> &[u64] {
        debug_assert_eq!(position % 64, 0);
        &self.member[(chunk * CHUNK + position) / 64..]
    }
}

/// Calibrated lookup cost (ns) of `config` at `filter_bits`, through the
/// program's own calibration microbenchmark.
pub fn calibrated_lookup_ns(config: &FilterConfig, filter_bits: u64) -> f64 {
    Calibrator::default()
        .measure(config, filter_bits, Calibrator::estimate_cpu_ghz())
        .ns_per_lookup
}

/// The paper's per-tuple cost of a filtered join: every tuple pays the
/// filter lookup `t_l`; the tuples that pass (true matches plus the false
/// positives among the rest) pay the hash probe `t_w`.
pub fn modeled_rho(t_l: f64, sigma: f64, fpr: f64, t_w: f64) -> f64 {
    t_l + (sigma + (1.0 - sigma) * fpr) * t_w
}

pub fn run(report: &mut Report, seed: u64, seconds: f64) {
    let inputs = JoinInputs::generate(seed, DIMENSION_KEYS, FACT_TUPLES);
    let config = bloom_config();
    let set_up = || {
        let filter = AnyFilter::build_with_keys(&config, &inputs.dimension_keys, BITS_PER_KEY)
            .expect("Bloom filters accept every key");
        let table = JoinHashTable::build(&inputs.dimension_keys);
        (filter, table)
    };
    let mut setups = Setups::default();
    let (mut filter, mut table) = setups.repeat(SETUPS, set_up);

    let tracing = report.tracer.on();
    let mut chunk_s = Vec::new();
    let mut batch_s = Vec::new();
    let mut point_block_s = Vec::new();
    let (mut qualifying, mut matches, mut tuples, mut absent) = (0u64, 0u64, 0u64, 0u64);
    let (mut hash_probe_ns, mut hash_probes) = (0u64, 0u64);
    let mut kernels: [Vec<f64>; 4] = Default::default();
    let mut sel = SelectionVector::with_capacity(CHUNK);
    let mut plan = ProbePlan::new();
    let mut point_sel = SelectionVector::with_capacity(BATCH);

    report.start_timed_phase(seconds);
    let mut round = 0usize;
    while round == 0 || !report.expired() {
        if round > 0 && round.is_multiple_of(SETUP_EVERY) {
            // The old instance goes first, so memory holds one at a time.
            drop((filter, table));
            (filter, table) = setups.time(set_up);
        }
        let c = round % inputs.chunks.len();
        let chunk = &inputs.chunks[c];
        round += 1;

        // Join unit: the whole pipeline over one chunk.
        let phase = report.tracer.begin("phase.join");
        let start = Instant::now();
        let id = report.tracer.begin("join.pipeline");
        let r = ProbePipeline::new(chunk, &table).run_with_filter(&filter);
        report.tracer.end(id);
        chunk_s.push(start.elapsed().as_secs_f64());
        report.tracer.end(phase);
        let got = JoinTotals {
            matches: r.matches,
            aggregate: r.aggregate,
        };
        check_join(report, got, inputs.oracle[c]);
        let n = chunk.fact_keys.len() as u64;
        tuples += n;
        matches += got.matches;
        qualifying += r.hash_probes;
        absent += n - got.matches;

        // Batch lookups on the same keys.
        let phase = report.tracer.begin("phase.lookup");
        for (b, keys) in chunk.fact_keys.chunks(BATCH).enumerate() {
            sel.clear();
            let start = Instant::now();
            let id = report.tracer.begin("kernel.routed");
            filter.contains_batch(keys, &mut sel);
            let routed_ns = report.tracer.end(id);
            batch_s.push(start.elapsed().as_secs_f64());
            let tally = tally_probe(sel.as_slice(), keys.len(), inputs.members(c, b * BATCH));
            check_probe(report, tally);
            if tracing {
                // The pipeline's hash-table probe of the tuples that pass,
                // timed apart from `run_with_filter` on the same tuples.
                let values = &chunk.fact_values[b * BATCH..];
                let id = report.tracer.begin("join.hash_probe");
                for &pos in sel.as_slice() {
                    if table.probe(keys[pos as usize]).is_some() {
                        std::hint::black_box(values[pos as usize]);
                    }
                }
                hash_probe_ns += report.tracer.end(id);
                hash_probes += sel.len() as u64;
                // One explicit kernel per batch, on the same keys; its
                // selection must equal the routed kernel's.
                kernels[0].push(routed_ns as f64 / keys.len() as f64);
                let which = 1 + b % 3;
                let routed = sel.as_slice().to_vec();
                sel.clear();
                let ns = run_kernel(
                    report,
                    &KERNEL_SPANS,
                    which,
                    &filter,
                    keys,
                    &mut sel,
                    &mut plan,
                );
                kernels[which].push(ns as f64 / keys.len() as f64);
                report.op(sel.as_slice() == routed.as_slice());
            }
        }
        report.tracer.end(phase);

        // Point lookups on the same keys, timed per block.
        let phase = report.tracer.begin("phase.point");
        let offset = (round / inputs.chunks.len() * POINT_KEYS_PER_ROUND) % CHUNK;
        for (b, keys) in chunk.fact_keys[offset..offset + POINT_KEYS_PER_ROUND]
            .chunks(BATCH)
            .enumerate()
        {
            let contains = |k| filter.contains(k);
            let wall = point_block(report, "filter.contains", keys, &mut point_sel, contains);
            point_block_s.push(wall);
            let members = inputs.members(c, offset + b * BATCH);
            check_probe(
                report,
                tally_probe(point_sel.as_slice(), keys.len(), members),
            );
        }
        report.tracer.end(phase);
    }
    // Every absent tuple that passed the filter paid a futile hash probe.
    let false_positives = qualifying - matches;

    let chunk_time = median(&chunk_s);
    report.e2e("setup_s", setups.median_s());
    report.e2e("throughput_per_s", CHUNK as f64 / chunk_time);
    report.e2e("lookup_keys_per_s", BATCH as f64 / median(&batch_s));
    report.e2e("point_lookups_per_s", BATCH as f64 / median(&point_block_s));
    report.e2e(
        "bits_per_key",
        filter.size_bits() as f64 / inputs.dimension_keys.len() as f64,
    );
    report.e2e("fpr", false_positives as f64 / absent as f64);
    report.e2e("peak_rss_mib", peak_rss_mib());

    if tracing {
        let hash_ns = hash_probe_ns as f64 / hash_probes as f64;
        for (name, samples) in [
            "kernel.routed_ns_per_key",
            "kernel.simd_ns_per_key",
            "kernel.staged_ns_per_key",
            "kernel.scalar_ns_per_key",
        ]
        .into_iter()
        .zip(&kernels)
        {
            report.layer(name, median(samples));
        }
        report.layer("join.hash_probe_ns", hash_ns);
        report.layer("join.probes_per_match", qualifying as f64 / matches as f64);
        report.layer(
            "join.measured_ns_per_tuple",
            chunk_time * 1e9 / CHUNK as f64,
        );
        let t_l = calibrated_lookup_ns(&config, filter.size_bits());
        let sigma = matches as f64 / tuples as f64;
        report.layer(
            "model.rho_ns_per_tuple",
            modeled_rho(t_l, sigma, filter.modeled_fpr(), hash_ns),
        );
        report.layer("model.fpr", filter.modeled_fpr());
        report.layer(
            "trace.unattributed_share",
            report.tracer.unattributed_share(),
        );
        past_l2_kernels(report, seed, &inputs);
    }
}

/// The four batch kernels on an 8 MiB filter over 2^22 keys — the
/// dimension keys plus further keys of the same key space, so the fact
/// tuples' membership is still known — probed with the workload's fact keys
/// in 4096-key batches. Each batch goes through one kernel only, in turn,
/// so no kernel finds the batch's filter lines cached by another. Runs
/// outside the timed phases.
fn past_l2_kernels(report: &mut Report, seed: u64, inputs: &JoinInputs) {
    let space = KeySpace::new(seed);
    let keys: Vec<u32> = (0..PAST_L2_KEYS as u32).map(|i| space.present(i)).collect();
    debug_assert_eq!(
        keys[..inputs.dimension_keys.len()],
        inputs.dimension_keys[..]
    );
    let filter = AnyFilter::build_with_keys(&bloom_config(), &keys, BITS_PER_KEY)
        .expect("Bloom filters accept every key");
    drop(keys);
    let mut sel = SelectionVector::with_capacity(BATCH);
    let mut plan = ProbePlan::new();
    let mut kernels: [Vec<f64>; 4] = Default::default();
    let mut b = 0usize;
    for (c, chunk) in inputs.chunks.iter().enumerate().take(64) {
        for (i, probe) in chunk.fact_keys.chunks(BATCH).enumerate() {
            sel.clear();
            let which = b % 4;
            b += 1;
            let ns = run_kernel(
                report,
                &KERNEL8M_SPANS,
                which,
                &filter,
                probe,
                &mut sel,
                &mut plan,
            );
            kernels[which].push(ns as f64 / probe.len() as f64);
            let tally = tally_probe(sel.as_slice(), probe.len(), inputs.members(c, i * BATCH));
            check_probe(report, tally);
        }
    }
    for (name, samples) in [
        "kernel8m.routed_ns_per_key",
        "kernel8m.simd_ns_per_key",
        "kernel8m.staged_ns_per_key",
        "kernel8m.scalar_ns_per_key",
    ]
    .into_iter()
    .zip(&kernels)
    {
        report.layer(name, median(samples));
    }
}

const KERNEL_SPANS: [&str; 4] = [
    "kernel.routed",
    "kernel.simd",
    "kernel.staged",
    "kernel.scalar",
];
const KERNEL8M_SPANS: [&str; 4] = [
    "kernel8m.routed",
    "kernel8m.simd",
    "kernel8m.staged",
    "kernel8m.scalar",
];

/// Run one batch kernel on `keys` in a span, returning its duration: 0 the
/// routed `contains_batch`, 1 SIMD (`contains_batch` on slices below the
/// staged threshold, which it never routes to staged), 2 staged, 3 scalar.
fn run_kernel(
    report: &mut Report,
    spans: &[&'static str; 4],
    which: usize,
    filter: &AnyFilter,
    keys: &[u32],
    sel: &mut SelectionVector,
    plan: &mut ProbePlan,
) -> u64 {
    let slice = STAGED_BATCH_THRESHOLD / 2;
    let id = report.tracer.begin(spans[which]);
    match which {
        0 => filter.contains_batch(keys, sel),
        1 => {
            for (i, part) in keys.chunks(slice).enumerate() {
                filter.contains_batch_offset(part, (i * slice) as u32, sel);
            }
        }
        2 => filter.contains_batch_staged(keys, sel, plan),
        _ => filter.contains_batch_scalar(keys, sel),
    }
    report.tracer.end(id)
}
