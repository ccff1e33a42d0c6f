//! Fork-join for the bulk loads: the STR pack and FLAT's neighbourhood
//! pass split their independent work over scoped threads.
//!
//! Every part is a disjoint slice the caller owns, so joining the parts in
//! order gives exactly what one thread doing them in turn gives, and one
//! thread *is* that: a single part runs on the caller and spawns nothing.
//! Helpers allocate nothing either: a helper thread's first allocation
//! opens a glibc arena of its own, and what lands there outlives the build
//! in the process's resident set.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// How many threads `work` units should run on: one per available core,
/// but no more than leave every thread `min_per_thread` units. A thread
/// costs a spawn and a join (about 60 µs at the median, near 1 ms at the
/// 99th percentile on a 2-core Xeon), so a small load runs on the caller.
pub(crate) fn width(work: usize, min_per_thread: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    cores.min(work / min_per_thread).max(1)
}

/// `len` cut into at most `parts` contiguous ranges of equal length give or
/// take one, in order; none is empty unless `len` is 0.
pub(crate) fn ranges(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let (base, extra) = (len / parts, len % parts);
    (0..parts).scan(0, move |start, i| {
        let range = *start..*start + base + usize::from(i < extra);
        *start = range.end;
        Some(range)
    })
}

/// Runs `work` on every part, the first on the caller and each other on a
/// scoped helper thread, and returns the results in part order.
///
/// Every helper is joined before the first panic payload (the caller's own
/// first) is re-raised, so a panic in any part reaches the caller as it
/// was raised: `thread::scope` would replace a helper's message with its
/// own.
pub(crate) fn join_parts<P: Send, R: Send>(
    parts: impl IntoIterator<Item = P>,
    work: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    let mut parts = parts.into_iter();
    let Some(own) = parts.next() else {
        return Vec::new();
    };
    let work = &work;
    let outcome = std::thread::scope(|scope| {
        let helpers: Vec<_> = parts.map(|part| scope.spawn(move || work(part))).collect();
        let mut results = Vec::with_capacity(helpers.len() + 1);
        let mut first = catch_unwind(AssertUnwindSafe(|| results.push(work(own))));
        for helper in helpers {
            match helper.join() {
                Ok(result) => results.push(result),
                Err(payload) => first = first.and(Err(payload)),
            }
        }
        first.map(|()| results)
    });
    outcome.unwrap_or_else(|payload| resume_unwind(payload))
}

/// Cuts `slice` into consecutive pieces of the given lengths.
///
/// # Panics
/// Panics when the lengths add up to more than `slice.len()`.
pub(crate) fn split_lengths<T>(
    mut slice: &mut [T],
    lengths: impl IntoIterator<Item = usize>,
) -> impl Iterator<Item = &mut [T]> {
    lengths.into_iter().map(move |len| {
        let (head, tail) = std::mem::take(&mut slice).split_at_mut(len);
        slice = tail;
        head
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_in_order() {
        for (len, parts) in [(0, 3), (1, 8), (7, 3), (9, 3), (10, 1), (5, 0)] {
            let got: Vec<_> = ranges(len, parts).collect();
            assert!(got.len() <= parts.max(1));
            assert_eq!(got.first().map_or(0, |r| r.start), 0);
            assert_eq!(got.last().map_or(0, |r| r.end), len);
            for pair in got.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert!(pair[0].len() >= pair[1].len() && pair[0].len() <= pair[1].len() + 1);
            }
        }
    }

    #[test]
    fn parts_join_in_order() {
        let mut data: Vec<u32> = (0..100).collect();
        let lens: Vec<usize> = ranges(data.len(), 4).map(|r| r.len()).collect();
        let sums = join_parts(split_lengths(&mut data, lens), |part: &mut [u32]| {
            part.iter_mut().for_each(|v| *v *= 2);
            part.iter().sum::<u32>()
        });
        assert_eq!(sums, [600, 1850, 3100, 4350]);
        assert!(data.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));
    }

    #[test]
    #[should_panic(expected = "the helper's own message")]
    fn a_helper_panic_reaches_the_caller_unchanged() {
        join_parts([0, 1, 2], |part| assert!(part != 2, "the helper's own message"));
    }
}
