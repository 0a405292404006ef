//! The layers a replay of the workload's own operations cannot isolate,
//! driven directly through their public interfaces. They do not depend on
//! the workload, so every traced pass runs them: each workload's results
//! then carry the fixed costs it should be read against.

use crate::inputs::Rng;
use crate::workloads::{fastest_ms, timed, Metrics, ABS};
use pressio_bench_infra::queue::{run_tasks, PoolConfig, Task};
use pressio_bench_infra::CheckpointStore;
use pressio_core::Options;
use pressio_lossless::{BitReader, BitWriter};
use pressio_serve::pipeline::{Pipeline, WorkItem};
use pressio_serve::ShardedLru;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn run(dir: &Path, seed: u64, out: &mut Metrics) -> Result<(), String> {
    cache(out);
    out.insert("pipeline.handoff_us".into(), pipeline_handoff_us());
    queue(out)?;
    store(dir, out)?;
    zfp_blocks(seed, out)
}

/// `serve.cache`: `ShardedLru` with the daemon's geometry and 64-byte keys
/// (a content hash is 64 hex digits). Gets hit; inserts evict.
fn cache(out: &mut Metrics) {
    const ENTRIES: usize = 1024;
    let lru: ShardedLru<f64> = ShardedLru::new("bench", 16, ENTRIES);
    let keys: Vec<String> = (0..4 * ENTRIES).map(|i| format!("{i:064x}")).collect();
    for key in &keys[..ENTRIES] {
        lru.insert(key.as_str(), 1.0);
    }
    // a batch of 1 024 per timing: one call is shorter than the clock is fine
    let get_ms = fastest_ms(20, || {
        for key in &keys[..ENTRIES] {
            std::hint::black_box(lru.get(key));
        }
    });
    let mut fresh = keys[ENTRIES..].chunks(ENTRIES);
    let insert_ms = fastest_ms(3, || {
        for key in fresh.next().expect("three batches of fresh keys") {
            lru.insert(key.as_str(), 2.0);
        }
    });
    out.insert("cache.get_us".into(), get_ms * 1e3 / ENTRIES as f64);
    out.insert("cache.insert_us".into(), insert_ms * 1e3 / ENTRIES as f64);
}

/// `serve.pipeline`: `Pipeline::submit` → worker → reply, with a handler
/// that only echoes.
fn pipeline_handoff_us() -> f64 {
    let handler: Arc<dyn Fn(Vec<WorkItem>) + Send + Sync> = Arc::new(|batch| {
        for item in batch {
            item.respond(item.request.clone());
        }
    });
    let pipeline = Pipeline::start(64, 8, 2, handler);
    let request = Options::new().with("serve:op", "echo");
    let ms = fastest_ms(2000, || {
        let (reply, answer) = std::sync::mpsc::sync_channel(1);
        let item = WorkItem {
            batch_key: "echo".into(),
            request: request.clone(),
            deadline: Instant::now() + Duration::from_secs(10),
            reply,
        };
        pipeline
            .submit(item)
            .map_err(|_| "refused")
            .and_then(|()| answer.recv().map_err(|_| "no reply"))
    });
    pipeline.shutdown();
    ms * 1e3
}

/// `bench-infra::queue`: `run_tasks` with nothing to do.
fn queue(out: &mut Metrics) -> Result<(), String> {
    const NOOPS: u64 = 1000;
    let pool = PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    };
    let mut failed = false;
    let ms = fastest_ms(5, || {
        let tasks: Vec<Task> = (0..NOOPS)
            .map(|i| Task::new(format!("t{i}"), i, Options::new()))
            .collect();
        let (outcomes, _) = run_tasks(tasks, pool, Arc::new(|_, _| Ok(Options::new())));
        failed |= outcomes.iter().any(|o| o.result.is_err());
    });
    if failed {
        return Err("a no-op task failed".into());
    }
    out.insert("queue.task_overhead_us".into(), ms * 1e3 / NOOPS as f64);
    Ok(())
}

/// `bench-infra::store`: one truth-sized record per put, each durable.
fn store(dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let mut store = CheckpointStore::open(&dir.join("probe.ckpt")).map_err(|e| e.to_string())?;
    let record = Options::new()
        .with("ratio", 3.5)
        .with("compress_ms", 1.25)
        .with("decompress_ms", 0.5);
    let mut key = 0;
    let mut failed = false;
    let put_ms = fastest_ms(200, || {
        key += 1;
        failed |= store.put(format!("k{key}"), record.clone()).is_err();
    });
    let sync_ms = fastest_ms(20, || failed |= store.sync().is_err());
    if failed {
        return Err("the checkpoint store refused a put or a sync".into());
    }
    out.insert("store.put_us".into(), put_ms * 1e3);
    out.insert("store.sync_ms".into(), sync_ms);
    Ok(())
}

/// `zfp::block`: ns per 4³ block through `encode_block` / `decode_block`,
/// on the 4 096 blocks of a 64×64×64 pressure field of the seed's weather.
fn zfp_blocks(seed: u64, out: &mut Metrics) -> Result<(), String> {
    use pressio_zfp::block::{decode_block, encode_block};
    const N: usize = 64;
    let field = crate::inputs::hurricane(&mut Rng::new(seed), [N, N, N], 1).generate("P", 0);
    let values = field.as_f32().map_err(|e| e.to_string())?;
    let mode = pressio_zfp::Mode::Accuracy(ABS);
    let blocks: Vec<Vec<f64>> = (0..(N / 4).pow(3))
        .map(|b| {
            let (bx, by, bz) = (b % (N / 4), b / (N / 4) % (N / 4), b / (N / 4) / (N / 4));
            let mut block = Vec::with_capacity(64);
            for z in 0..4 {
                for y in 0..4 {
                    let row = (bz * 4 + z) * N * N + (by * 4 + y) * N + bx * 4;
                    block.extend(values[row..row + 4].iter().map(|&v| v as f64));
                }
            }
            block
        })
        .collect();
    let (mut encode_ms, mut decode_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut writer = BitWriter::new();
        let (_, ms) = timed(|| {
            for block in &blocks {
                encode_block(block, 3, mode, &mut writer);
            }
        });
        encode_ms.push(ms);
        let bytes = writer.into_bytes();
        let mut reader = BitReader::new(&bytes);
        let (decoded, ms) = timed(|| {
            blocks
                .iter()
                .map(|_| decode_block(&mut reader, 3, mode))
                .collect::<Result<Vec<_>, _>>()
        });
        decode_ms.push(ms);
        let decoded = decoded.map_err(|e| e.to_string())?;
        let close = blocks
            .iter()
            .zip(&decoded)
            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| (x - y).abs() <= ABS));
        if !close {
            return Err("a zfp block round trip broke the bound".into());
        }
    }
    let per_block = 1e6 / blocks.len() as f64;
    out.insert(
        "zfp.block_encode_ns".into(),
        crate::workloads::fastest(&encode_ms) * per_block,
    );
    out.insert(
        "zfp.block_decode_ns".into(),
        crate::workloads::fastest(&decode_ms) * per_block,
    );
    Ok(())
}
