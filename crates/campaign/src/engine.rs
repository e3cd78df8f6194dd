//! The work-stealing parallel map at the heart of the campaign engine.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — the value computed for item `i` must depend only on
//!    item `i` (the caller guarantees this; trials carry their own derived
//!    seeds), and results are returned in item order. Thread count and
//!    stealing pattern can change *when* an item runs, never *what* it
//!    computes, so campaign output is byte-identical for any `--threads`.
//! 2. **Load balance** — dispersion trials vary by orders of magnitude in
//!    cost (k=16 line vs k=512 async complete graph), so static sharding
//!    leaves workers idle. Each worker owns a deque, pops locally from the
//!    front, and steals the *back half* of a victim's deque when it runs
//!    dry — the classic work-stealing discipline, here with simple mutexed
//!    deques (trials are milliseconds-to-seconds; lock traffic is noise).
//! 3. **No dependencies** — built on `std::thread::scope` only.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Counters describing how a [`parallel_map`] call executed (for logs and
/// the PR-facing speedup reports; they never influence results).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Items processed per worker.
    pub per_worker: Vec<usize>,
    /// Number of successful steal operations.
    pub steals: usize,
}

/// Map `f` over `items` on `threads` workers with work stealing.
///
/// `f(i, &items[i])` is called exactly once per item, on the worker thread
/// that owns the item at that moment (one thread — the caller's — when
/// `threads` is 1). Results are returned in item order.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> (Vec<R>, EngineStats)
where
    T: Send,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        let count = items.len();
        let results = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        return (
            results,
            EngineStats {
                per_worker: vec![count],
                steals: 0,
            },
        );
    }

    let n = items.len();
    // Shard round-robin so every worker starts with a cross-section of the
    // grid (adjacent trials tend to have similar cost).
    let deques: Vec<Mutex<VecDeque<(usize, T)>>> = {
        let mut shards: Vec<VecDeque<(usize, T)>> = (0..threads).map(|_| VecDeque::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            shards[i % threads].push_back((i, item));
        }
        shards.into_iter().map(Mutex::new).collect()
    };
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let steals = AtomicUsize::new(0);
    let per_worker: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();

    thread::scope(|scope| {
        for worker in 0..threads {
            let deques = &deques;
            let results = &results;
            let steals = &steals;
            let per_worker = &per_worker;
            let f = &f;
            scope.spawn(move || {
                loop {
                    // Local work first.
                    let local = deques[worker].lock().unwrap().pop_front();
                    let (i, item) = match local {
                        Some(job) => job,
                        None => {
                            // Steal the back half of the first non-empty
                            // victim; give up when everyone is dry (no new
                            // work is ever produced, so that is terminal).
                            let mut stolen = None;
                            for offset in 1..threads {
                                let victim = (worker + offset) % threads;
                                let mut q = deques[victim].lock().unwrap();
                                let len = q.len();
                                if len == 0 {
                                    continue;
                                }
                                let take = len.div_ceil(2);
                                let mut batch = q.split_off(len - take);
                                drop(q);
                                let first = batch.pop_front();
                                if !batch.is_empty() {
                                    deques[worker].lock().unwrap().extend(batch);
                                }
                                stolen = first;
                                steals.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            match stolen {
                                Some(job) => job,
                                None => return,
                            }
                        }
                    };
                    let r = f(i, &item);
                    *results[i].lock().unwrap() = Some(r);
                    per_worker[worker].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let results = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("work-stealing pool dropped an item")
        })
        .collect();
    (
        results,
        EngineStats {
            per_worker: per_worker
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_every_item_exactly_once_in_order() {
        for threads in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..257).collect();
            let calls = AtomicUsize::new(0);
            let (out, stats) = parallel_map(items, threads, |i, &x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x * 2 + i as u64
            });
            assert_eq!(calls.load(Ordering::Relaxed), 257, "threads={threads}");
            assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<u64>>());
            assert_eq!(stats.per_worker.iter().sum::<usize>(), 257);
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let work = |i: usize, x: &u64| -> u64 {
            // Uneven cost to provoke stealing.
            let mut acc = *x;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let items: Vec<u64> = (0..100).collect();
        let (seq, _) = parallel_map(items.clone(), 1, work);
        let (par, _) = parallel_map(items, 8, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let (out, _) = parallel_map(Vec::<u8>::new(), 4, |_, &x| x);
        assert!(out.is_empty());
        let (out, stats) = parallel_map(vec![9u8], 4, |_, &x| x + 1);
        assert_eq!(out, vec![10]);
        assert_eq!(stats.steals, 0);
    }
}
