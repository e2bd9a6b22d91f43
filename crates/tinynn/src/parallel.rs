//! Deterministic work splitting across OS threads.
//!
//! The one compute fan-out of the workspace: the training convolutions
//! split a batch with it, and the locator's sliding classifier splits a
//! trace's windows. Scoring kernels never fan out on their own;
//! parallelism belongs to the entry point, so nothing nests.
//!
//! The offline build has no `rayon`, so [`for_each_run`] hands contiguous
//! runs of whole items to [`std::thread::scope`] workers, each with its
//! scratch a local of the run. Splits are purely a function of the item
//! count and thread count — never of timing — so results are reproducible
//! run to run.
//!
//! The thread count defaults to [`std::thread::available_parallelism`] and
//! can be pinned with the `TINYNN_THREADS` environment variable (`1` forces
//! the sequential path everywhere).

use std::sync::OnceLock;

/// Parses a `TINYNN_THREADS` value: a positive thread count, or a reason
/// the override cannot be honoured.
fn parse_thread_override(value: &str) -> Result<usize, &'static str> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("zero threads is impossible; use 1 to force sequential"),
        Ok(n) => Ok(n),
        Err(_) => Err("not an unsigned integer"),
    }
}

/// Maximum threads the library will ever use.
pub fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| {
        if let Ok(v) = std::env::var("TINYNN_THREADS") {
            match parse_thread_override(&v) {
                Ok(n) => return n,
                Err(why) => {
                    // An operator who set the variable expects it to act;
                    // ignoring it silently would hide a deployment typo.
                    eprintln!(
                        "tinynn: ignoring TINYNN_THREADS={v:?} ({why}); \
                         falling back to available parallelism"
                    );
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// Picks a thread count for a loop of `items` units costing `flops` total:
/// `1` (sequential) unless the work exceeds `min_flops` and there is more
/// than one item and one core.
pub fn thread_count_for(items: usize, flops: usize, min_flops: usize) -> usize {
    if flops < min_flops {
        return 1;
    }
    max_threads().min(items).max(1)
}

/// Splits `items` into items of `item_len` elements and hands contiguous
/// runs of whole items to up to `threads` threads.
///
/// `f` is called as `f(first_item, run, scratch)` once per run, where `run`
/// holds the items `first_item..` in order. The first run executes on the
/// calling thread with the caller's `scratch`; every other run executes on
/// a scoped thread with a fresh `S::default()` as its scratch. With
/// `threads <= 1` (or at most one item) the whole slice is one run on the
/// calling thread. The assignment of items to runs is deterministic.
///
/// # Panics
///
/// Panics if `item_len` is zero or `items.len()` is not a multiple of it.
pub fn for_each_run<T, S, F>(
    items: &mut [T],
    item_len: usize,
    threads: usize,
    scratch: &mut S,
    f: F,
) where
    T: Send,
    S: Default,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(item_len > 0, "item_len must be non-zero");
    assert_eq!(items.len() % item_len, 0, "output not a multiple of item_len");
    let count = items.len() / item_len;
    if threads <= 1 || count <= 1 {
        f(0, items, scratch);
        return;
    }
    let per_run = count.div_ceil(threads.min(count));
    std::thread::scope(|scope| {
        let mut runs = items.chunks_mut(per_run * item_len);
        let first = runs.next().expect("at least two items");
        for (r, run) in runs.enumerate() {
            let f = &f;
            scope.spawn(move || f((r + 1) * per_run, run, &mut S::default()));
        }
        f(0, first, scratch);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        // Items of a non-`f32` type: 23 items of 7 `u64`s.
        let (item_len, items) = (7, 23);
        let fill = |first: usize, run: &mut [u64], _: &mut ()| {
            for (i, item) in run.chunks_exact_mut(item_len).enumerate() {
                for (j, v) in item.iter_mut().enumerate() {
                    *v = ((first + i) * 100 + j) as u64;
                }
            }
        };
        let run = |threads: usize| {
            let mut out = vec![0u64; item_len * items];
            for_each_run(&mut out, item_len, threads, &mut (), fill);
            out
        };
        let seq = run(1);
        for threads in [2, 4, 23, 64] {
            assert_eq!(run(threads), seq, "threads = {threads}");
        }
    }

    #[test]
    fn covers_every_item_exactly_once() {
        for threads in [1, 3, 5] {
            let mut out = vec![0u8; 12];
            let mut caller_items = 0usize;
            for_each_run(&mut out, 3, threads, &mut caller_items, |_, run, seen| {
                *seen += run.len() / 3;
                for v in run.iter_mut() {
                    *v += 1;
                }
            });
            assert!(out.iter().all(|&v| v == 1), "threads = {threads}");
            // The calling thread runs the first run on its own scratch.
            assert_eq!(caller_items, 4usize.div_ceil(threads.min(4)), "threads = {threads}");
        }
    }

    #[test]
    fn thread_count_gates_on_flops() {
        assert_eq!(thread_count_for(8, 10, 1000), 1);
        assert!(thread_count_for(8, 10_000, 1000) >= 1);
    }

    #[test]
    #[should_panic(expected = "multiple of item_len")]
    fn misaligned_output_panics() {
        let mut out = vec![0.0f32; 10];
        for_each_run(&mut out, 3, 1, &mut (), |_, _, _| {});
    }

    #[test]
    fn thread_override_parse_paths() {
        // Valid counts pass through, whitespace-tolerantly.
        assert_eq!(parse_thread_override("1"), Ok(1));
        assert_eq!(parse_thread_override(" 8\n"), Ok(8));
        // Zero and malformed values are rejected (and `max_threads` then
        // warns and falls back to available parallelism rather than
        // silently pinning to one thread).
        assert!(parse_thread_override("0").is_err());
        assert!(parse_thread_override("").is_err());
        assert!(parse_thread_override("four").is_err());
        assert!(parse_thread_override("-2").is_err());
        assert!(parse_thread_override("3.5").is_err());
    }
}
