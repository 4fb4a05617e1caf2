//! One pass of a served-path workload: the whole stream through
//! `ShardedIngest`, with periodic checkpoints and one restart from the
//! midpoint checkpoint.

use std::time::{Duration, Instant};

use crate::adapter::{Counts, Engine, Ledger};
use crate::flat::FlatStream;
use crate::host;

/// How the load generator offers the stream.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: item `i` is due `i / rate` seconds after the pass starts
    /// and is offered alone through `ingest`.
    Paced { rate: f64 },
    /// Closed loop: the next batch goes in through `ingest_batch` as soon
    /// as the previous one returns.
    Batches { size: usize },
}

/// A served-path workload's engine and load shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub shards: usize,
    pub load: Load,
}

/// Items between periodic checkpoints: four on a 1.29 M-item stream.
pub const CHECKPOINT_EVERY: usize = 1 << 18;

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub items: usize,
    /// Seconds inside `ingest` / `ingest_batch` / `finish`, input
    /// conversion included.
    pub busy_s: f64,
    /// The same per [`CHUNK`] items offered (`finish` in the last chunk).
    pub chunk_busy_s: Vec<f64>,
    /// CPU seconds of the set-up calls, stolen time left out (both run on
    /// this thread): `ShardedIngest::new`, and the restart's
    /// `read_checkpoint` from the bytes just written.
    pub new_s: f64,
    pub restore_s: f64,
    /// The periodic checkpoint writes.
    pub checkpoint_write_s: Vec<f64>,
    /// Size of the midpoint checkpoint the restart restores.
    pub checkpoint_bytes: usize,
    /// The same checkpoint without the alarm ledger (traced passes only).
    pub state_bytes: usize,
    /// Per item: offer time minus due time (open loop, traced passes only).
    pub lag_s: Vec<f64>,
    /// Restored ledger plus the alarms of the resumed run.
    pub served: Ledger,
    pub counts: Counts,
    pub shard_items: Vec<u64>,
    pub batch_calls: usize,
    /// Undrained provenance at the end (traced passes only).
    pub provenance_bytes: usize,
}

/// Items per busy-time chunk: a batch of `serve-dirty`.
pub const CHUNK: usize = 1 << 16;

/// Runs the stream through a fresh engine once. In the open loop it fills
/// `latency_s` with each alarm's latency: the return of the call that
/// produced it minus the due time of the item passed to it. The caller
/// sizes the buffer beforehand, so no measurement grows the heap during
/// the pass. `traced` adds the measurements that cost extra work (per-item
/// lag, state size, provenance size).
pub fn run(
    s: &FlatStream,
    spec: Spec,
    traced: bool,
    latency_s: &mut Vec<f64>,
) -> Result<Pass, String> {
    let n = s.len();
    let mid = match spec.load {
        Load::Paced { .. } => n / 2,
        Load::Batches { size } => (n / 2).div_ceil(size) * size,
    }
    .min(n);
    let mut p =
        Pass { items: n, chunk_busy_s: vec![0.0; n.div_ceil(CHUNK).max(1)], ..Pass::default() };
    let cpu = host::thread_cpu_s();
    let mut engine = Engine::new(spec.shards);
    p.new_s = host::thread_cpu_s() - cpu;
    let mut ledger = Ledger::default();
    let mut busy = Duration::ZERO;
    latency_s.clear();

    // Periodic checkpoints at the item cadence, then the restart at the
    // midpoint: checkpoint, drop the engine, restore from the bytes.
    let durability = |engine: &mut Engine,
                      ledger: &mut Ledger,
                      before: usize,
                      after: usize,
                      p: &mut Pass|
     -> Result<(), String> {
        if after / CHECKPOINT_EVERY > before / CHECKPOINT_EVERY {
            let t = Instant::now();
            let bytes = engine.checkpoint(after as u64, ledger);
            p.checkpoint_write_s.push(t.elapsed().as_secs_f64());
            drop(bytes);
        }
        if before < mid && mid <= after {
            let bytes = engine.checkpoint(after as u64, ledger);
            if traced {
                p.state_bytes = engine.state_bytes(after as u64);
            }
            p.checkpoint_bytes = bytes.len();
            // A restarted process no longer holds the old engine or ledger.
            *engine = Engine::new(1);
            *ledger = Ledger::default();
            let cpu = host::thread_cpu_s();
            let (restored, cursor, prior) = Engine::restore(spec.shards, &bytes)?;
            p.restore_s = host::thread_cpu_s() - cpu;
            if cursor != after as u64 {
                return Err(format!("restore returned cursor {cursor}, expected {after}"));
            }
            *engine = restored;
            *ledger = prior;
        }
        Ok(())
    };

    let mut last_due = Instant::now();
    match spec.load {
        Load::Paced { rate } => {
            if traced {
                p.lag_s.reserve(n);
            }
            let period_ns = 1e9 / rate;
            let origin = Instant::now();
            for i in 0..n {
                let due = origin + Duration::from_nanos((i as f64 * period_ns) as u64);
                let mut now = Instant::now();
                while now < due {
                    now = Instant::now();
                }
                if traced {
                    p.lag_s.push((now - due).as_secs_f64());
                }
                let out = engine.ingest_one(s, i);
                let end = Instant::now();
                busy += end - now;
                p.chunk_busy_s[i / CHUNK] += (end - now).as_secs_f64();
                latency_s.extend(std::iter::repeat_n((end - due).as_secs_f64(), out.len()));
                ledger.append(out);
                durability(&mut engine, &mut ledger, i, i + 1, &mut p)?;
                last_due = due;
            }
        }
        Load::Batches { size } => {
            let mut i = 0;
            while i < n {
                let end_i = (i + size).min(n);
                let start = Instant::now();
                let out = engine.ingest_batch(s, i..end_i);
                let end = Instant::now();
                busy += end - start;
                p.chunk_busy_s[i / CHUNK] += (end - start).as_secs_f64();
                p.batch_calls += 1;
                ledger.append(out);
                durability(&mut engine, &mut ledger, i, end_i, &mut p)?;
                i = end_i;
            }
        }
    }
    let start = Instant::now();
    let out = engine.finish();
    let end = Instant::now();
    busy += end - start;
    if let Some(last) = p.chunk_busy_s.last_mut() {
        *last += (end - start).as_secs_f64();
    }
    if matches!(spec.load, Load::Paced { .. }) {
        latency_s.extend(std::iter::repeat_n((end - last_due).as_secs_f64(), out.len()));
    }
    ledger.append(out);

    p.busy_s = busy.as_secs_f64();
    p.counts = engine.counts();
    p.shard_items = engine.shard_items();
    if traced {
        p.provenance_bytes = engine.take_provenance_bytes();
    }
    p.served = ledger;
    Ok(p)
}
