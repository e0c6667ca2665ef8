//! The host worker pool: independent items on scoped threads, results
//! handed back in item order.
//!
//! Both host-parallel layers of the harness run on it — the figure grid
//! (one item per cell) and the crash-sweep fork dispatcher (one item per
//! chunk of crash points). Simulated state never crosses an item, so the
//! pool can only change the wall clock, never a result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Runs `f(&mut state, i)` for every `i` in `0..n` and returns the results
/// in index order, whatever order they finished in.
///
/// Each element of `workers` is one worker's private state (a worker id, a
/// scratch machine). Every worker gets one scoped thread and claims items
/// off a shared atomic index, so a slow item never idles a worker that
/// could take the next one. With one worker — or at most one item — the
/// items run inline on the calling thread; workers beyond `n` are dropped
/// unused.
///
/// Every item runs under `catch_unwind`, on both paths: an item that panics
/// yields `Err` with the panic payload at its own index, and its worker
/// carries on with the next item. A worker's state may be left mid-update
/// by such a panic, so `f` must not rely on it being clean.
///
/// # Example
///
/// ```
/// let squares = asap_sim::pool::ordered(vec![(); 3], 5, |_, i| i * i);
/// let squares: Vec<usize> = squares.into_iter().map(Result::unwrap).collect();
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Panics if `workers` is empty.
pub fn ordered<S, T, F>(mut workers: Vec<S>, n: usize, f: F) -> Vec<thread::Result<T>>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    assert!(!workers.is_empty(), "the pool needs at least one worker");
    workers.truncate(n.max(1));
    let run = |s: &mut S, i: usize| catch_unwind(AssertUnwindSafe(|| f(s, i)));
    if workers.len() == 1 {
        let mut s = workers.pop().expect("one worker");
        return (0..n).map(|i| run(&mut s, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<thread::Result<T>>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut s| {
                let (next, run) = (&next, &run);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the index publishes no data; results
                        // travel back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, run(&mut s, i)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("item panics are caught inside the worker") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item was claimed by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::ordered;
    use std::time::Duration;

    /// Items of uneven cost finish out of order on several workers; the
    /// results must still come back by index.
    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1usize, 2, 4, 8] {
            let out = ordered(vec![(); workers], 24, |_, i| {
                std::thread::sleep(Duration::from_micros(((i * 7) % 5) as u64 * 300));
                i * 10
            });
            let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            let want: Vec<usize> = (0..24).map(|i| i * 10).collect();
            assert_eq!(got, want, "order broken at {workers} workers");
        }
    }

    #[test]
    fn more_workers_than_items() {
        let out = ordered(vec![(); 8], 3, |_, i| i + 1);
        let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, [1, 2, 3]);
    }

    #[test]
    fn zero_items() {
        for workers in [1usize, 4] {
            let out = ordered(vec![(); workers], 0, |_, i| i);
            assert!(out.is_empty());
        }
    }

    /// A panicking item is an `Err` at its own index; every other item,
    /// including later ones on the same worker, still reports `Ok`.
    #[test]
    fn a_panicking_item_fails_alone() {
        for workers in [1usize, 4] {
            let out = ordered(vec![(); workers], 10, |_, i| {
                assert_ne!(i, 4, "item four fails");
                i
            });
            let failed: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_err()).collect();
            assert_eq!(failed, [4], "at {workers} workers");
            for (i, r) in out.into_iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(v, i),
                    Err(e) => {
                        let msg = e.downcast_ref::<String>().expect("formatted panic");
                        assert!(msg.contains("item four fails"), "{msg}");
                    }
                }
            }
        }
    }
}
