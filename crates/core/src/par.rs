//! Scoped fork-join parallelism for the fleet-scale loops.
//!
//! Every per-vehicle computation in the workspace — batch scoring, the
//! experiment grid, the ablations — is
//! embarrassingly parallel: vehicles never share mutable state. Before
//! this module each call site hand-rolled its own `std::thread::scope`
//! round-robin loop; [`par_map`] centralises that pattern (std-only, no
//! thread-pool dependency) so the partitioning, ordering and panic
//! propagation are written once.

/// Maps `f` over `items` in parallel and returns the results in input
/// order.
///
/// Work is partitioned round-robin over `min(available_parallelism,
/// items.len())` scoped threads — per-vehicle workloads vary smoothly
/// along the fleet (history length decides cost), so round-robin balances
/// within a few percent without a work-stealing queue. `f` receives
/// `(index, &item)`; a panic in any worker is resumed on the caller's
/// thread after the scope joins.
///
/// On a single-core host the scope degenerates to one worker thread, so
/// the overhead over a serial loop is one spawn/join per call.
/// Sampling mask for per-item task timing: coarse fan-outs (fleets of
/// vehicles) time every item so the `par_map.task_ns` histogram keeps its
/// one-entry-per-task semantics; fine-grained fan-outs over many cheap
/// items time 1 in 8 so the clock reads cannot dominate the work.
fn task_sample_mask(n: usize) -> usize {
    if n > 256 {
        7
    } else {
        0
    }
}

pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).clamp(1, n);

    // Task timing is resolved once per call, not per item; each worker
    // accumulates into a thread-local `BatchedRecorder` (plain locals, no
    // atomics) flushed once when the worker finishes. Coarse fan-outs
    // (fleets of vehicles) time every item; fine-grained fan-outs over
    // many cheap items sample 1 in 8 so the probe cannot dominate the
    // work. Disabled, `task_ns` is `None` and each item pays one branch.
    let span = navarchos_obs::span("par_map");
    // Workers inherit this id so their spans parent onto the `par_map`
    // frame: a traced evaluate folds into one tree, not a forest with one
    // root per worker thread (ROADMAP: per-thread span parenting).
    let parent_id = span.id();
    let task_ns =
        navarchos_obs::metrics_enabled().then(|| navarchos_obs::histogram("par_map.task_ns"));
    let item_mask = task_sample_mask(n);

    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let f = &f;
        let task_ns = &task_ns;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let _worker = navarchos_obs::span_child_of("par_map.worker", parent_id);
                    let mut recorder = task_ns
                        .as_ref()
                        .map(|h| navarchos_obs::BatchedRecorder::new(std::sync::Arc::clone(h)));
                    let mut out = Vec::new();
                    for (i, item) in items.iter().enumerate().skip(t).step_by(threads) {
                        match &mut recorder {
                            Some(rec) if i & item_mask == 0 => {
                                let t0 = std::time::Instant::now();
                                let r = f(i, item);
                                rec.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0));
                                out.push((i, r));
                            }
                            _ => out.push((i, f(i, item))),
                        }
                    }
                    // Recorder drop also flushes; explicit for clarity.
                    if let Some(mut rec) = recorder {
                        rec.flush();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    drop(span);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over `items` in parallel with exclusive (`&mut`) access to
/// each item, returning the results in input order.
///
/// The companion to [`par_map`] for fan-outs over *stateful* workers — the
/// ingest engine's shards each own per-vehicle pipelines that must be
/// mutated in place. Items are partitioned into contiguous chunks via
/// `split_at_mut`, one scoped thread per chunk, so the borrow checker can
/// prove the `&mut` slices are disjoint. `f` receives `(index, &mut item)`
/// with `index` relative to `items`; a panic in any worker is resumed on
/// the caller's thread after the scope joins. Worker spans parent onto the
/// `par_map_mut` span, same as [`par_map`].
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).clamp(1, n);
    let span = navarchos_obs::span("par_map_mut");
    let parent_id = span.id();

    // Contiguous chunking (ceil(n / threads) per chunk) instead of
    // round-robin: disjoint `&mut` sub-slices are free; an index shuffle
    // would need unsafe or per-item locks.
    let chunk_len = n.div_ceil(threads);
    let results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let f = &f;
        let mut rest = items;
        let mut offset = 0;
        let mut handles = Vec::with_capacity(threads);
        while !rest.is_empty() {
            let take = chunk_len.min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            rest = tail;
            let base = offset;
            offset += take;
            handles.push(scope.spawn(move || {
                let _worker = navarchos_obs::span_child_of("par_map.worker", parent_id);
                chunk.iter_mut().enumerate().map(|(i, item)| f(base + i, item)).collect()
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    drop(span);
    // Chunks are contiguous and collected in spawn order, so flattening
    // restores input order without an index sort.
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<usize> = (0..57).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..57).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        let out: Vec<u8> = par_map(&items, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline_shape() {
        let out = par_map(&[41], |_, &x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(&[1, 2, 3], |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err(), "panic must cross the scope");
    }

    #[test]
    fn sample_mask_spares_small_fanouts() {
        assert_eq!(task_sample_mask(1), 0);
        assert_eq!(task_sample_mask(40), 0);
        assert_eq!(task_sample_mask(256), 0);
        assert_eq!(task_sample_mask(257), 7);
        assert_eq!(task_sample_mask(100_000), 7);
    }

    #[test]
    fn small_fanouts_record_one_timing_per_task() {
        navarchos_obs::set_metrics_enabled(true);
        let h = navarchos_obs::histogram("par_map.task_ns");
        let before = h.snapshot().count;
        let items: Vec<usize> = (0..40).collect();
        let _ = par_map(&items, |_, &x| x);
        let after = h.snapshot().count;
        // >= because other tests in this binary may also record; the
        // batched recorders must have flushed all 40 samples by return.
        assert!(after >= before + 40, "{before} -> {after}");
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_preserves_order() {
        let mut items: Vec<u64> = (0..137).collect();
        let out = par_map_mut(&mut items, |i, x| {
            assert_eq!(i as u64, *x);
            *x += 1;
            *x * 10
        });
        assert_eq!(items, (1..138).collect::<Vec<u64>>());
        assert_eq!(out, (1..138).map(|x| x * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_mut_empty_and_single() {
        let mut empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = par_map_mut(&mut empty, |_, &mut x| x);
        assert!(out.is_empty());
        let mut one = vec![41u8];
        assert_eq!(par_map_mut(&mut one, |_, x| *x + 1), vec![42]);
    }

    #[test]
    fn par_map_mut_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut items = vec![1, 2, 3];
            par_map_mut(&mut items, |_, x| {
                assert!(*x != 2, "boom");
                *x
            })
        });
        assert!(result.is_err(), "panic must cross the scope");
    }

    #[test]
    fn results_match_serial_map() {
        let items: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        let par = par_map(&items, |_, &x| x.sin() + x.sqrt());
        let ser: Vec<f64> = items.iter().map(|&x| x.sin() + x.sqrt()).collect();
        assert_eq!(par, ser, "bit-identical to the serial loop");
    }
}
