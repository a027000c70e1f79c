//! `ingest_recover`: a durable store from `ShardedFilterStore::open_with`
//! (`PersistOptions::durable()` with `FsyncPolicy::OnCheckpoint`: every
//! batch is appended to the WAL before it is applied, and the WAL and
//! snapshots reach stable storage at each checkpoint; the WAL rotation
//! threshold is lowered to 4096 records so checkpoints happen within a
//! cycle) is opened in a fresh directory and bootstrapped with 2^15 keys in
//! one `insert_batch` — the workload's set-up. It then ingests 2^16 keys in
//! acknowledged batches of 512, with one delete batch of older keys per four
//! inserts and a `maintain()` every 64 write batches. The store is dropped
//! without a checkpoint and reopened several times; after the ingest and
//! after every reopen, every live key and as many absent keys are probed in
//! batches and as point lookups. One such cycle is the workload's round; the
//! timed phase runs whole cycles.
//!
//! The cycle is also the unit of `throughput_per_s`: the keys a cycle writes
//! over the time a typical cycle's write calls and one recovery take, each
//! kind of call priced at its median (128 inserts, 32 deletes, 2 `maintain`
//! calls and one reopen), so a slower insert, delete, `maintain` or recovery
//! each lowers it. Medians rather than each cycle's summed wall time, because
//! the sum carries every checkpoint's fsync. The fsync policy is the
//! checkpoint one rather than every batch because with an fsync per batch
//! the shared virtual disk's latency set the median write: ten-run sets of
//! the same code read 150-210 thousand keys/s, with quartile spreads up to
//! 0.31 of the median, from one hour to the next.

use crate::check::{check_probe, even_present, point_block, tally_probe};
use crate::common::{dir_bytes, median, peak_rss_mib, quantile, Args, KeySpace, Report, Setups};
use crate::layers::WriteLayers;
use pof_filter::SelectionVector;
use pof_store::{FsyncPolicy, PersistOptions, ShardedFilterStore, StoreOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const KEYS: usize = 1 << 16;
/// Keys the set-up loads into the fresh store before the ingest.
pub const BOOTSTRAP_KEYS: usize = 1 << 15;
/// WAL records per shard between automatic checkpoints.
const WAL_ROTATE_RECORDS: u64 = 4 * 1024;
pub const WRITE_BATCH: usize = 512;
/// Insert batches per delete batch.
const INSERTS_PER_DELETE: usize = 4;
/// Write batches (inserts and deletes) between `maintain()` calls.
const MAINTAIN_EVERY: usize = 64;
/// Reopens per cycle; `recover.open_s` is their median.
const REOPENS: usize = 5;
/// Verification batch: live and absent keys alternate.
const VERIFY_BATCH: usize = 4096;
/// Set-ups (open a fresh directory, bootstrap) before the timed phase; every
/// cycle makes one more. `setup_s` is the median of them all.
const SETUPS: usize = 3;

const INSERT_BATCHES: usize = KEYS / WRITE_BATCH;
const DELETE_BATCHES: usize = INSERT_BATCHES / INSERTS_PER_DELETE;
const MAINTAINS: usize = (INSERT_BATCHES + DELETE_BATCHES) / MAINTAIN_EVERY;
/// Keys a cycle writes: every insert batch, and every fourth one's delete.
const CYCLE_WRITTEN_KEYS: usize = (INSERT_BATCHES + DELETE_BATCHES) * WRITE_BATCH;

/// Insert batch `d * 2` is the one delete batch `d` removes: deletes reach
/// ever further back as the ingest proceeds.
fn deleted_insert_batch(delete: usize) -> usize {
    2 * delete
}

fn is_deleted(insert_batch: usize) -> bool {
    insert_batch.is_multiple_of(2) && insert_batch / 2 < INSERT_BATCHES / INSERTS_PER_DELETE
}

fn options() -> StoreOptions {
    StoreOptions::default()
}

fn persist_options() -> PersistOptions {
    PersistOptions {
        fsync: FsyncPolicy::OnCheckpoint,
        wal_rotate_records: WAL_ROTATE_RECORDS,
        ..PersistOptions::durable()
    }
}

/// The bootstrap keys, which lie past the ingested keys' indices.
fn bootstrap_keys(space: KeySpace) -> Vec<u32> {
    (KEYS..KEYS + BOOTSTRAP_KEYS)
        .map(|i| space.present(i as u32))
        .collect()
}

/// The workload's set-up: open a fresh durable store in `dir` and load the
/// bootstrap keys in one acknowledged batch.
fn set_up(dir: &Path, bootstrap: &[u32]) -> Result<ShardedFilterStore, pof_store::PersistError> {
    let store = ShardedFilterStore::open_with(dir, options(), persist_options())?;
    store.insert_batch(bootstrap);
    Ok(store)
}

/// The verification keys: live keys in insertion order, each followed by an
/// absent key. Every verification draws fresh absent keys, so the
/// false-positive count is not the same few keys counted again.
struct VerifyKeys {
    space: KeySpace,
    live: Vec<u32>,
    keys: Vec<u32>,
    verifications: u32,
}

impl VerifyKeys {
    fn new(space: KeySpace) -> Self {
        let mut live: Vec<u32> = (0..INSERT_BATCHES)
            .filter(|&b| !is_deleted(b))
            .flat_map(|b| (b * WRITE_BATCH..(b + 1) * WRITE_BATCH).map(|i| space.present(i as u32)))
            .collect();
        live.extend(bootstrap_keys(space));
        Self {
            space,
            keys: Vec::with_capacity(2 * live.len()),
            live,
            verifications: 0,
        }
    }

    /// The next verification's keys.
    fn next(&mut self) -> &[u32] {
        let first_absent = self.verifications * self.live.len() as u32;
        self.verifications += 1;
        self.keys.clear();
        for (i, &key) in self.live.iter().enumerate() {
            self.keys.push(key);
            self.keys.push(self.space.absent(first_absent + i as u32));
        }
        &self.keys
    }
}

#[derive(Default)]
struct Tallies {
    setups: Setups,
    insert_s: Vec<f64>,
    delete_s: Vec<f64>,
    maintain_s: Vec<f64>,
    lookup_batch_s: Vec<f64>,
    point_block_s: Vec<f64>,
    open_s: Vec<f64>,
    false_positives: u64,
    absent: u64,
    bits_per_key: f64,
    disk_bytes: u64,
    snapshot_bytes: u64,
    wal_bytes: u64,
    live_keys: u64,
    rebuilds: u64,
    modeled_fpr: f64,
    scan_ms: Vec<f64>,
    recover_shard_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    replay_records: u64,
}

impl Tallies {
    /// A typical cycle's write calls and one recovery, each kind of call
    /// priced at its median over the run.
    fn typical_cycle_s(&self) -> f64 {
        INSERT_BATCHES as f64 * median(&self.insert_s)
            + DELETE_BATCHES as f64 * median(&self.delete_s)
            + MAINTAINS as f64 * median(&self.maintain_s)
            + median(&self.open_s)
    }
}

pub fn run(report: &mut Report, args: &Args) {
    let space = KeySpace::new(args.seed);
    let mut verify = VerifyKeys::new(space);
    let root = args
        .out_dir
        .join(format!("ingest-{}-{}", args.seed, std::process::id()));
    let _cleanup = RemoveOnDrop(root.clone());

    let bootstrap = bootstrap_keys(space);
    let mut t = Tallies::default();
    for i in 0..SETUPS {
        let dir = root.join(format!("setup-{i}"));
        if let Err(err) = t.setups.time(|| set_up(&dir, &bootstrap)) {
            report.op_error("open and bootstrap a durable store", &err);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    report.start_timed_phase(args.seconds);
    let mut cycle = 0usize;
    while cycle == 0 || !report.expired() {
        let dir = root.join(format!("cycle-{cycle}"));
        run_cycle(
            report,
            &dir,
            space,
            &bootstrap,
            &mut verify,
            &mut t,
            args.trace,
        );
        let _ = std::fs::remove_dir_all(&dir);
        cycle += 1;
    }

    report.e2e("setup_s", t.setups.median_s());
    report.e2e(
        "throughput_per_s",
        CYCLE_WRITTEN_KEYS as f64 / t.typical_cycle_s(),
    );
    report.e2e(
        "lookup_keys_per_s",
        VERIFY_BATCH as f64 / median(&t.lookup_batch_s),
    );
    report.e2e(
        "point_lookups_per_s",
        VERIFY_BATCH as f64 / median(&t.point_block_s),
    );
    report.e2e("bits_per_key", t.bits_per_key);
    report.e2e("fpr", t.false_positives as f64 / t.absent.max(1) as f64);
    report.e2e("peak_rss_mib", peak_rss_mib());

    if args.trace {
        let live = t.live_keys.max(1) as f64;
        let write_batch_s = [&t.insert_s[..], &t.delete_s[..]].concat();
        report.layer("write.batch_ms_p50", median(&write_batch_s) * 1e3);
        report.layer("write.batch_ms_p99", quantile(&write_batch_s, 0.99) * 1e3);
        report.layer("store.delete_us", median(&t.delete_s) * 1e6);
        report.layer("store.maintain_ms", median(&t.maintain_s) * 1e3);
        report.layer("store.rebuilds", t.rebuilds as f64);
        report.layer("persist.disk_bytes_per_key", t.disk_bytes as f64 / live);
        report.layer(
            "persist.snapshot_bytes_per_key",
            t.snapshot_bytes as f64 / live,
        );
        report.layer("persist.wal_bytes_per_key", t.wal_bytes as f64 / live);
        report.layer("recover.open_s", median(&t.open_s));
        report.layer("persist.scan_ms", median(&t.scan_ms));
        report.layer("persist.recover_shard_ms", median(&t.recover_shard_ms));
        report.layer("store.replay_ms", median(&t.replay_ms));
        report.layer("persist.replay_records", t.replay_records as f64);
        report.layer("model.fpr", t.modeled_fpr);
        report.layer(
            "trace.unattributed_share",
            report.tracer.unattributed_share(),
        );
    }
}

fn run_cycle(
    report: &mut Report,
    dir: &Path,
    space: KeySpace,
    bootstrap: &[u32],
    verify: &mut VerifyKeys,
    t: &mut Tallies,
    tracing: bool,
) {
    let store = match t.setups.time(|| set_up(dir, bootstrap)) {
        Ok(store) => store,
        Err(err) => return report.op_error("open and bootstrap a durable store", &err),
    };
    let capacity = options().capacity_per_shard;
    let side_dir = dir.with_extension("side-wal");
    let sync = persist_options().fsync == FsyncPolicy::EveryBatch;
    let mut layers = if tracing {
        match WriteLayers::new(&store, capacity, Some((&side_dir, sync))) {
            Ok(layers) => Some(layers),
            Err(err) => return report.op_error("create side WAL segments", &err),
        }
    } else {
        None
    };

    // Ingest.
    let phase = report.tracer.begin("phase.ingest");
    let key = |i: usize| space.present(i as u32);
    let mut writes = 0usize;
    let mut next_maintain = MAINTAIN_EVERY;
    let mut batch = Vec::with_capacity(WRITE_BATCH);
    for b in 0..INSERT_BATCHES {
        batch.clear();
        batch.extend((b * WRITE_BATCH..(b + 1) * WRITE_BATCH).map(key));
        let start = Instant::now();
        let id = report.tracer.begin("store.insert_batch");
        store.insert_batch(&batch);
        let ns = report.tracer.end(id);
        t.insert_s.push(start.elapsed().as_secs_f64());
        if let Some(layers) = &mut layers {
            if let Err(err) = layers.attribute(report, &store, &batch, ns) {
                return report.op_error("append to a side WAL segment", &err);
            }
        }
        report.op(true);
        writes += 1;
        if b % INSERTS_PER_DELETE == INSERTS_PER_DELETE - 1 {
            let victim = deleted_insert_batch(b / INSERTS_PER_DELETE);
            batch.clear();
            batch.extend((victim * WRITE_BATCH..(victim + 1) * WRITE_BATCH).map(key));
            let start = Instant::now();
            let id = report.tracer.begin("store.delete_batch");
            let removed = store.delete_batch(&batch);
            report.tracer.end(id);
            t.delete_s.push(start.elapsed().as_secs_f64());
            report.op(removed == WRITE_BATCH);
            writes += 1;
        }
        if writes >= next_maintain {
            next_maintain += MAINTAIN_EVERY;
            let start = Instant::now();
            let id = report.tracer.begin("store.maintain");
            store.maintain();
            report.tracer.end(id);
            t.maintain_s.push(start.elapsed().as_secs_f64());
        }
    }
    report.tracer.end(phase);
    assert_eq!(
        next_maintain,
        (MAINTAINS + 1) * MAINTAIN_EVERY,
        "maintain cadence"
    );
    if let Some(layers) = &layers {
        layers.report(report);
    }
    let _ = std::fs::remove_dir_all(&side_dir);

    let stats = store.stats();
    t.rebuilds = stats.total_rebuilds();
    t.modeled_fpr = stats.weighted_modeled_fpr();
    t.live_keys = store.key_count() as u64;
    t.bits_per_key = store.size_bits() as f64 / store.key_count().max(1) as f64;
    verify_store(report, &store, verify, t);
    t.disk_bytes = dir_bytes(dir, "");
    t.snapshot_bytes = dir_bytes(dir, ".snap");
    t.wal_bytes = dir_bytes(dir, ".wal");
    // Crash-equivalent: drop without a checkpoint; the WAL has every batch.
    drop(store);

    for _ in 0..REOPENS {
        if tracing {
            attribute_recovery(report, dir, t);
        }
        let phase = report.tracer.begin("phase.reopen");
        let start = Instant::now();
        let id = report.tracer.begin("store.open");
        let reopened = ShardedFilterStore::open_with(dir, options(), persist_options());
        let open_ns = report.tracer.end(id);
        let wall = start.elapsed().as_secs_f64();
        report.tracer.end(phase);
        let store = match reopened {
            Ok(store) => store,
            Err(err) => {
                report.op_error("reopen the durable store", &err);
                continue;
            }
        };
        t.open_s.push(wall);
        if let (true, Some(scan), Some(shards)) =
            (tracing, t.scan_ms.last(), t.recover_shard_ms.last())
        {
            t.replay_ms.push(open_ns as f64 / 1e6 - scan - shards);
        }
        report.op(true);
        verify_store(report, &store, verify, t);
    }
}

/// Every live key must test positive through both paths, absent keys feed
/// the false-positive count, and the key count must match the oracle.
fn verify_store(
    report: &mut Report,
    store: &ShardedFilterStore,
    verify: &mut VerifyKeys,
    t: &mut Tallies,
) {
    let live = verify.live.len();
    let phase = report.tracer.begin("phase.verify");
    let mut sel = SelectionVector::with_capacity(VERIFY_BATCH);
    let mut point_sel = SelectionVector::with_capacity(VERIFY_BATCH);
    let present = even_present(VERIFY_BATCH);
    let mut scratch = pof_store::ProbeScratch::new();
    for keys in verify.next().chunks(VERIFY_BATCH) {
        sel.clear();
        let start = Instant::now();
        let id = report.tracer.begin("store.probe");
        store
            .snapshot()
            .contains_batch_with(keys, &mut sel, &mut scratch);
        report.tracer.end(id);
        t.lookup_batch_s.push(start.elapsed().as_secs_f64());
        let tally = tally_probe(sel.as_slice(), keys.len(), &present);
        t.false_positives += tally.false_positives;
        t.absent += tally.absent;
        check_probe(report, tally);

        let contains = |k| store.contains(k);
        let wall = point_block(report, "store.contains", keys, &mut point_sel, contains);
        t.point_block_s.push(wall);
        check_probe(
            report,
            tally_probe(point_sel.as_slice(), keys.len(), &present),
        );
    }
    let count = store.key_count();
    if count != live {
        eprintln!("key_count() = {count}, oracle holds {live}");
    }
    report.op(count == live);
    report.tracer.end(phase);
}

/// Time recovery's public building blocks on the directory about to be
/// reopened: the directory scan and each shard's snapshot map plus WAL read.
fn attribute_recovery(report: &mut Report, dir: &Path, t: &mut Tallies) {
    let phase = report.tracer.begin("phase.recover_layers");
    let shards = options().shard_count;
    let id = report.tracer.begin("persist.scan_dir");
    let files = pof_persist::scan_dir(dir, shards);
    t.scan_ms.push(report.tracer.end(id) as f64 / 1e6);
    let files = match files {
        Ok(files) => files,
        Err(err) => {
            report.tracer.end(phase);
            return report.op_error("scan the store directory", &err);
        }
    };
    let mut records = 0u64;
    let id = report.tracer.begin("persist.recover_shard");
    for (shard, shard_files) in files.iter().enumerate() {
        match pof_persist::recover_shard(dir, shard, shard_files) {
            Ok(recovered) => records += recovered.replay.len() as u64,
            Err(err) => report.op_error("recover a shard", &err),
        }
    }
    t.recover_shard_ms.push(report.tracer.end(id) as f64 / 1e6);
    t.replay_records = records;
    report.tracer.end(phase);
}

/// Removes the run's directory tree when the workload ends, however it ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store the program cannot open is a failed operation, and the run
    /// that met it is incorrect: nothing it should have recovered was
    /// checked.
    #[test]
    fn an_open_error_makes_the_run_incorrect() {
        let out = std::env::temp_dir().join(format!("perfbench-open-error-{}", std::process::id()));
        let _cleanup = RemoveOnDrop(out.clone());
        std::fs::create_dir_all(&out).unwrap();
        // A regular file where the store directory should be.
        let dir = out.join("not-a-directory");
        std::fs::write(&dir, b"x").unwrap();
        let space = KeySpace::new(1);
        let mut report = Report::new(false);
        let mut t = Tallies::default();
        run_cycle(
            &mut report,
            &dir,
            space,
            &bootstrap_keys(space),
            &mut VerifyKeys::new(space),
            &mut t,
            false,
        );
        assert_eq!((report.attempted, report.failed), (1, 1));
        assert!(report.wrong);
        let result = report.result_json(true);
        assert_eq!(result.get("correct"), Some(&serde::Value::Bool(false)));
    }
}
