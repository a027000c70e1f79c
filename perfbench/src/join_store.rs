//! `join_store`: the same fact scan with a default 8-shard
//! `ShardedFilterStore` pushed down in place of the bare filter. The store is
//! built in set-up by `insert_batch` from 2^16 dimension keys (sized, like
//! `join_filter`, to stay in one core's L2). Every batch
//! takes a `snapshot()`, probes it with `contains_batch_with` and probes the
//! join hash table with the qualifying tuples; a batch-lookup and a
//! point-lookup phase follow on the same keys. Snapshot acquire and store
//! routing/merge dominate; each shard's kernel sees a slice of about 512
//! keys.

use crate::check::{check_join, check_probe, point_block, tally_probe, JoinTotals};
use crate::common::{median, peak_rss_mib, Report, Setups};
use crate::join_filter::{
    calibrated_lookup_ns, modeled_rho, JoinInputs, BATCH, CHUNK, POINT_KEYS_PER_ROUND,
};
use crate::layers::WriteLayers;
use pof_filter::{Filter, SelectionVector};
use pof_store::{ProbeScratch, ShardedFilterStore, StoreBuilder, StoreSnapshot};
use pof_workloads::JoinHashTable;
use std::time::Instant;

pub const DIMENSION_KEYS: usize = 1 << 16;
pub const FACT_TUPLES: usize = 1 << 22;
const SHARDS: usize = 8;
/// Keys per `insert_batch` call while building the store.
const INGEST_BATCH: usize = 4096;
/// Set-ups before the timed phase; one more follows every `SETUP_EVERY`
/// rounds inside it, and the rounds after it use the new store and table.
/// `setup_s` is the median of them all.
const SETUPS: usize = 3;
const SETUP_EVERY: usize = 256;

/// The store is sized for a quarter more keys than it gets, so that no
/// shard's share of the keys outgrows its capacity and rebuilds on some
/// seeds but not on others: every seed then builds the same filter sizes.
fn builder(keys: usize) -> StoreBuilder {
    StoreBuilder::new()
        .shards(SHARDS)
        .expected_keys(keys + keys / 4)
}

fn build_store(keys: &[u32]) -> ShardedFilterStore {
    let store = builder(keys.len()).build();
    for batch in keys.chunks(INGEST_BATCH) {
        store.insert_batch(batch);
    }
    store
}

pub fn run(report: &mut Report, seed: u64, seconds: f64) {
    let inputs = JoinInputs::generate(seed, DIMENSION_KEYS, FACT_TUPLES);
    let set_up = || {
        let store = build_store(&inputs.dimension_keys);
        let table = JoinHashTable::build(&inputs.dimension_keys);
        (store, table)
    };
    let mut setups = Setups::default();
    let (mut store, mut table) = setups.repeat(SETUPS, set_up);
    let tracing = report.tracer.on();
    if tracing {
        attribute_ingest(report, &inputs.dimension_keys);
    }

    let mut scratch = ProbeScratch::new();
    let mut sel = SelectionVector::with_capacity(BATCH);
    let mut chunk_s = Vec::new();
    let mut batch_s = Vec::new();
    let mut point_block_s = Vec::new();
    let (mut qualifying, mut matches, mut tuples, mut absent) = (0u64, 0u64, 0u64, 0u64);
    let mut hash_probe_ns = 0u64;
    let mut probe = StoreProbeLayers::default();
    let mut point_sel = SelectionVector::with_capacity(BATCH);

    report.start_timed_phase(seconds);
    let mut round = 0usize;
    while round == 0 || !report.expired() {
        if round > 0 && round.is_multiple_of(SETUP_EVERY) {
            // The old instance goes first, so memory holds one at a time.
            drop((store, table));
            (store, table) = setups.time(set_up);
        }
        let c = round % inputs.chunks.len();
        let chunk = &inputs.chunks[c];
        round += 1;

        // Join unit: one chunk through the store-pushed pipeline.
        let phase = report.tracer.begin("phase.join");
        let start = Instant::now();
        let mut got = JoinTotals::default();
        let mut passed = 0u64;
        for (b, keys) in chunk.fact_keys.chunks(BATCH).enumerate() {
            let id = report.tracer.begin("store.snapshot");
            let snapshot = store.snapshot();
            report.tracer.end(id);
            sel.clear();
            let id = report.tracer.begin("store.probe");
            snapshot.contains_batch_with(keys, &mut sel, &mut scratch);
            report.tracer.end(id);
            let id = report.tracer.begin("join.hash_probe");
            let base = b * BATCH;
            for &pos in sel.as_slice() {
                let index = base + pos as usize;
                if table.probe(chunk.fact_keys[index]).is_some() {
                    got.matches += 1;
                    got.aggregate += chunk.fact_values[index];
                }
            }
            hash_probe_ns += report.tracer.end(id);
            passed += sel.len() as u64;
        }
        chunk_s.push(start.elapsed().as_secs_f64());
        report.tracer.end(phase);
        check_join(report, got, inputs.oracle[c]);
        let n = chunk.fact_keys.len() as u64;
        tuples += n;
        matches += got.matches;
        qualifying += passed;
        absent += n - got.matches;

        // Batch lookups: snapshot + probe per batch.
        let phase = report.tracer.begin("phase.lookup");
        for (b, keys) in chunk.fact_keys.chunks(BATCH).enumerate() {
            sel.clear();
            let start = Instant::now();
            let id = report.tracer.begin("store.snapshot");
            let snapshot = store.snapshot();
            let snapshot_ns = report.tracer.end(id);
            let id = report.tracer.begin("store.probe");
            snapshot.contains_batch_with(keys, &mut sel, &mut scratch);
            let probe_ns = report.tracer.end(id);
            batch_s.push(start.elapsed().as_secs_f64());
            let tally = tally_probe(sel.as_slice(), keys.len(), inputs.members(c, b * BATCH));
            check_probe(report, tally);
            if tracing {
                probe.attribute(report, &snapshot, keys, &sel, snapshot_ns, probe_ns);
            }
        }
        report.tracer.end(phase);

        // Point lookups through the store.
        let phase = report.tracer.begin("phase.point");
        let offset = (round / inputs.chunks.len() * POINT_KEYS_PER_ROUND) % CHUNK;
        for (b, keys) in chunk.fact_keys[offset..offset + POINT_KEYS_PER_ROUND]
            .chunks(BATCH)
            .enumerate()
        {
            let contains = |k| store.contains(k);
            let wall = point_block(report, "store.contains", keys, &mut point_sel, contains);
            point_block_s.push(wall);
            let members = inputs.members(c, offset + b * BATCH);
            check_probe(
                report,
                tally_probe(point_sel.as_slice(), keys.len(), members),
            );
        }
        report.tracer.end(phase);
    }

    let chunk_time = median(&chunk_s);
    let stats = store.stats();
    report.e2e("setup_s", setups.median_s());
    report.e2e("throughput_per_s", CHUNK as f64 / chunk_time);
    report.e2e("lookup_keys_per_s", BATCH as f64 / median(&batch_s));
    report.e2e("point_lookups_per_s", BATCH as f64 / median(&point_block_s));
    report.e2e(
        "bits_per_key",
        store.size_bits() as f64 / store.key_count() as f64,
    );
    report.e2e("fpr", (qualifying - matches) as f64 / absent as f64);
    report.e2e("peak_rss_mib", peak_rss_mib());

    if tracing {
        probe.report(report);
        let hash_ns = hash_probe_ns as f64 / qualifying as f64;
        report.layer("join.hash_probe_ns", hash_ns);
        report.layer("join.probes_per_match", qualifying as f64 / matches as f64);
        report.layer(
            "join.measured_ns_per_tuple",
            chunk_time * 1e9 / CHUNK as f64,
        );
        let t_l = calibrated_lookup_ns(&store.config(), store.size_bits());
        let sigma = matches as f64 / tuples as f64;
        let fpr = stats.weighted_modeled_fpr();
        report.layer(
            "model.rho_ns_per_tuple",
            modeled_rho(t_l, sigma, fpr, hash_ns),
        );
        report.layer("model.fpr", fpr);
        report.layer("store.rebuilds", stats.total_rebuilds() as f64);
        report.layer(
            "trace.unattributed_share",
            report.tracer.unattributed_share(),
        );
    }
}

/// Attribute the set-up ingest by layer: build the store once more, timing
/// each `insert_batch` and repeating its layers' calls on the same keys.
fn attribute_ingest(report: &mut Report, keys: &[u32]) {
    let store = builder(keys.len()).build();
    let capacity = ((keys.len() + keys.len() / 4) / store.shard_count()).max(64);
    let mut layers = WriteLayers::new(&store, capacity, None).expect("no files to create");
    let phase = report.tracer.begin("phase.ingest");
    for batch in keys.chunks(INGEST_BATCH) {
        let id = report.tracer.begin("store.insert_batch");
        store.insert_batch(batch);
        let ns = report.tracer.end(id);
        layers
            .attribute(report, &store, batch, ns)
            .expect("no files to write");
    }
    report.tracer.end(phase);
    layers.report(report);
}

/// Read-path attribution of `StoreSnapshot::contains_batch_with`: routing
/// (`shard_of` over the batch, scattering keys into per-shard slices) and the
/// shard kernels (`AnyFilter::contains_batch` on each slice through
/// `shard_filter`), timed after the probe on the same keys; the rest of the
/// probe is the store's scatter bookkeeping, overflow pass and merge.
#[derive(Default)]
pub struct StoreProbeLayers {
    slices: Vec<Vec<u32>>,
    shard_sel: SelectionVector,
    snapshot_ns: Vec<f64>,
    probe_ns_per_key: Vec<f64>,
    route_ns_per_key: Vec<f64>,
    kernel_ns_per_key: Vec<f64>,
    merge_ns_per_key: Vec<f64>,
}

impl StoreProbeLayers {
    pub fn attribute(
        &mut self,
        report: &mut Report,
        snapshot: &StoreSnapshot,
        keys: &[u32],
        sel: &SelectionVector,
        snapshot_ns: u64,
        probe_ns: u64,
    ) {
        let shards = snapshot.shard_count();
        self.slices.resize_with(shards, Vec::new);
        let t = &mut report.tracer;
        let id = t.begin("store.route");
        for slice in &mut self.slices {
            slice.clear();
        }
        for &key in keys {
            self.slices[snapshot.shard_of(key)].push(key);
        }
        let route_ns = t.end(id);
        let id = t.begin("store.kernel");
        let mut passed = 0usize;
        for (shard, slice) in self.slices.iter().enumerate() {
            self.shard_sel.clear();
            snapshot
                .shard_filter(shard)
                .contains_batch(slice, &mut self.shard_sel);
            passed += self.shard_sel.len();
        }
        let kernel_ns = t.end(id);
        // The kernels alone must select exactly what the store selected
        // (no shard holds overflow keys under the default policy).
        report.op(passed == sel.len());
        let n = keys.len() as f64;
        self.snapshot_ns.push(snapshot_ns as f64);
        self.probe_ns_per_key.push(probe_ns as f64 / n);
        self.route_ns_per_key.push(route_ns as f64 / n);
        self.kernel_ns_per_key.push(kernel_ns as f64 / n);
        self.merge_ns_per_key
            .push((probe_ns as f64 - route_ns as f64 - kernel_ns as f64) / n);
    }

    pub fn report(&self, report: &mut Report) {
        report.layer("store.snapshot_ns", median(&self.snapshot_ns));
        report.layer("store.probe_ns_per_key", median(&self.probe_ns_per_key));
        report.layer("store.route_ns_per_key", median(&self.route_ns_per_key));
        report.layer("store.kernel_ns_per_key", median(&self.kernel_ns_per_key));
        report.layer("store.merge_ns_per_key", median(&self.merge_ns_per_key));
    }
}
