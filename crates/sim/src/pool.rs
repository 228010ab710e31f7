//! Deterministic parallel map over a hand-rolled worker pool.
//!
//! Scoped threads + a shared work deque + an mpsc results channel — no
//! external crates. Workers pull the next item off the deque, run it, and
//! send the result back tagged with its submission index; the caller's
//! `on_done` streams completions strictly in submission order (a
//! completion for item 3 is buffered until items 0..3 have been
//! delivered), and the returned vector is in submission order too.
//! Parallelism changes only the wall-clock, never the output — the
//! guarantee its one consumer, the experiment runner (`crates/expts`),
//! rests on. The module stays in `sim` until ROADMAP item 2 moves it to
//! `expts`.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

/// Run every item of `items` through `f` on `jobs` worker threads,
/// invoking `on_done` in *submission order* as results become available.
/// Returns all results in submission order.
///
/// `jobs = 1` still routes through the pool — one worker draining the
/// deque in order — so the serial and parallel paths are the same code.
pub fn pool_map<T, R, F, C>(items: Vec<T>, jobs: usize, f: F, on_done: C) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T, usize) -> R + Sync,
    C: FnMut(usize, &R),
{
    pool_map_prioritized(items, jobs, |_| 0, f, on_done)
}

/// [`pool_map`] with an execution-priority hint: higher-priority items
/// are *started* first (classic longest-processing-time-first packing —
/// launching the most expensive item last would leave one worker
/// grinding it alone while the rest idle). Delivery to `on_done` and the
/// returned vector stay in submission order regardless; priorities
/// change wall-clock only, never output.
pub fn pool_map_prioritized<T, R, P, F, C>(
    items: Vec<T>,
    jobs: usize,
    priority: P,
    f: F,
    mut on_done: C,
) -> Vec<R>
where
    T: Send,
    R: Send,
    P: Fn(&T) -> u64,
    F: Fn(T, usize) -> R + Sync,
    C: FnMut(usize, &R),
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.clamp(1, n);
    let mut ordered: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    // Stable sort: equal priorities keep submission order.
    ordered.sort_by_key(|(_, item)| std::cmp::Reverse(priority(item)));
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(ordered.into_iter().collect());
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            s.spawn(move || loop {
                // Take the lock only to pop; the (expensive) call to `f`
                // runs outside it.
                let next = queue.lock().expect("pool queue poisoned").pop_front();
                let Some((idx, item)) = next else { break };
                let result = f(item, idx);
                if tx.send((idx, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx); // rx ends when the last worker finishes

        let mut next_out = 0;
        for (idx, result) in rx {
            slots[idx] = Some(result);
            while next_out < n {
                match slots[next_out].as_ref() {
                    Some(r) => on_done(next_out, r),
                    None => break,
                }
                next_out += 1;
            }
        }
        // If a worker panicked, the scope re-raises that panic here —
        // after the channel drained — so partial results still stream.
    });
    slots
        .into_iter()
        .map(|r| r.expect("worker exited without delivering a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_map_preserves_order_and_streams_in_order() {
        // Items deliberately finish out of order (larger index = shorter
        // sleep); the callback must still see 0,1,2,...
        let items: Vec<u64> = (0..12).collect();
        let mut seen = Vec::new();
        let out = pool_map(
            items,
            4,
            |x, _| {
                std::thread::sleep(std::time::Duration::from_millis(12 - x));
                x * 10
            },
            |idx, r| seen.push((idx, *r)),
        );
        assert_eq!(out, (0..12).map(|x| x * 10).collect::<Vec<_>>());
        assert_eq!(
            seen,
            (0..12).map(|x| (x as usize, x * 10)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn priority_controls_start_order_not_output_order() {
        // One worker executes strictly in queue order, which makes the
        // start order observable; results must still come back 1,2,3.
        let started = Mutex::new(Vec::new());
        let out = pool_map_prioritized(
            vec![1u64, 2, 3],
            1,
            |x| *x,
            |x, _| {
                started.lock().unwrap().push(x);
                x
            },
            |_, _| {},
        );
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(*started.lock().unwrap(), vec![3, 2, 1]);
    }

    #[test]
    fn pool_map_jobs_one_equals_many() {
        let f = |x: u64, _| x * x + 1;
        let a = pool_map((0..40).collect(), 1, f, |_, _| {});
        let b = pool_map((0..40).collect(), 8, f, |_, _| {});
        assert_eq!(a, b);
    }

    #[test]
    fn pool_map_empty_and_oversubscribed() {
        let empty: Vec<u64> = Vec::new();
        assert!(pool_map(empty, 4, |x, _| x, |_, _| {}).is_empty());
        // More workers than items: clamped, still correct.
        assert_eq!(pool_map(vec![7u64], 16, |x, _| x, |_, _| {}), vec![7]);
    }
}
