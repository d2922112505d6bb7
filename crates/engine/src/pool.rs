//! Fan-out: the engine's whole concurrency layer, sized to the one
//! customer it has.
//!
//! [`fan_out`] applies a closure to every item of a borrowed slice on up
//! to `width` threads and returns the results in item order.  Its only
//! caller is `Database::run_batch` (one item per query); a single run, a
//! view refresh and a Datalog evaluation are serial at every width — see
//! ARCHITECTURE.md, "Fan-out", for the measurements behind each "no".
//! There is no scheduler and nothing persistent: `std::thread::scope`
//! spawns the helpers for one call and joins them before it returns, which
//! is what lets the closure borrow freely in safe code.  A helper costs
//! 0.1–0.2 ms end to end (spawn, cold allocator caches, join — see
//! EXPERIMENTS.md), which a batch of millisecond queries repays and which
//! is why nothing finer-grained is fanned out.

use sac_telemetry::{bus, Event};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Applies `f` to every item and returns the results in item order.
///
/// `min(width, items.len()) - 1` scoped helper threads plus the calling
/// thread claim item indices from one shared cursor until it runs off the
/// slice, so an expensive item never holds up the ones behind it.  With
/// fewer than two items, or `width <= 1`, everything runs inline and
/// nothing is spawned.  If an item panics, the remaining items still run,
/// every helper is joined, and the first panic payload (the caller's own,
/// else the lowest-numbered helper's) is re-raised on the calling thread.
pub(crate) fn fan_out<T, R, F>(width: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let helpers = width.min(items.len()).saturating_sub(1);
    if helpers == 0 {
        return items.iter().map(f).collect();
    }
    bus::emit(|| Event::ParallelRegion {
        tasks: items.len(),
        threads: helpers,
    });
    // Relaxed: the cursor only hands out distinct indices; the results are
    // published to the caller by `join`.
    let cursor = AtomicUsize::new(0);
    let claim_until_empty = || {
        let mut mine = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return mine;
            };
            mine.push((index, f(item)));
        }
    };
    let mut indexed: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| scope.spawn(claim_until_empty))
            .collect();
        // A panic from here on unwinds into `scope`, which joins whatever
        // is still running and only then lets it continue.
        let mut all = claim_until_empty();
        for handle in handles {
            match handle.join() {
                Ok(part) => all.extend(part),
                Err(payload) => resume_unwind(payload),
            }
        }
        all
    });
    indexed.sort_unstable_by_key(|&(index, _)| index);
    indexed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = fan_out(4, &items, |n| n * 2);
        assert_eq!(doubled, (0..1000).map(|n| n * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_and_empty_regions_run_inline() {
        // Inline means on the calling thread: nothing is spawned for fewer
        // than two items, or at width 1 however many items there are.
        let caller = thread::current().id();
        let here = |n: &i32| (thread::current().id(), n + 1);
        assert_eq!(fan_out(4, &[7], here), vec![(caller, 8)]);
        assert_eq!(fan_out(4, &[], here), Vec::new());
        assert_eq!(fan_out(1, &[1, 2], here), vec![(caller, 2), (caller, 3)]);
    }

    #[test]
    fn workers_share_borrowed_state() {
        let base: Vec<String> = (0..200).map(|i| format!("v{i}")).collect();
        let items: Vec<usize> = (0..200).collect();
        let lens = fan_out(3, &items, |i| base[*i].len());
        assert_eq!(
            lens.iter().sum::<usize>(),
            base.iter().map(|s| s.len()).sum::<usize>()
        );
    }

    #[test]
    fn a_panicking_morsel_propagates_without_poisoning_the_pool() {
        let items: Vec<usize> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out(2, &items, |n| {
                if *n == 33 {
                    panic!("morsel 33 exploded");
                }
                *n
            })
        }));
        let payload = caught.expect_err("the item's panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload is the original panic message");
        assert_eq!(message, "morsel 33 exploded");
        // Nothing outlives a call, so the next one starts clean.
        let ok = fan_out(2, &items, |n| n * 3);
        assert_eq!(ok, (0..64).map(|n| n * 3).collect::<Vec<_>>());
    }

    #[test]
    fn non_copy_results_and_drops_are_balanced() {
        // Every result holds one reference to `token`: a leaked result
        // would keep the count up, a double drop would underflow it.
        let token = Arc::new(());
        let items: Vec<usize> = (0..128).collect();
        let results = fan_out(4, &items, |n| (format!("row-{n}"), Arc::clone(&token)));
        assert_eq!(results.len(), 128);
        assert_eq!(results[127].0, "row-127");
        assert_eq!(Arc::strong_count(&token), 129);
        drop(results);
        assert_eq!(Arc::strong_count(&token), 1);
        // On the panic path the results that did land are dropped too.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out(4, &items, |n| {
                assert_ne!(*n, 100, "item 100 exploded");
                Arc::clone(&token)
            })
        }));
        assert!(caught.is_err());
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        // Callers share nothing but the machine: each call has its own
        // cursor and its own helpers.
        thread::scope(|scope| {
            for offset in 0..4usize {
                scope.spawn(move || {
                    let items: Vec<usize> = (0..256).collect();
                    let out = fan_out(4, &items, |n| n + offset);
                    assert_eq!(out, (offset..256 + offset).collect::<Vec<_>>());
                });
            }
        });
    }
}
