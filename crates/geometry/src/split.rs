//! Fork-join over scoped threads: the one way the workspace splits work
//! across cores.
//!
//! Three kinds of work use it: the bed's bulk loads (the STR pack and
//! FLAT's neighbourhood pass), the neuron generator, and the session
//! scheduler's pure passes. Each cuts its work with [`ranges`] into
//! contiguous parts over disjoint slices the caller owns
//! ([`split_lengths`]) and runs them with [`join_parts`]. Joining the parts
//! in order gives exactly what one thread doing them in turn gives, and one
//! thread *is* that: a single part runs on the caller and spawns nothing.
//! [`width`] picks how many, from the core count it reads once, at the
//! process's first split.
//!
//! A part never splits again: while a thread runs a part of a fork (the
//! caller around its own part, a helper for its whole life), [`width`]
//! reads 1 on it. So a large SCOUT query served inside the fleet's pure
//! pass runs on its part's thread alone, and no fork nests in another.
//!
//! Helpers should allocate nothing: a helper thread's first allocation
//! opens a glibc arena of its own, and what lands there outlives the work
//! in the process's resident set. So the caller allocates every buffer a
//! part needs, reserved to its bound, before the parts start.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

thread_local! {
    // Constant and without a destructor: a helper that sets it registers
    // nothing, so it allocates nothing.
    static IN_PART: Cell<bool> = const { Cell::new(false) };
}

/// The cores this process may run on, read once, at the first split, and
/// kept for the life of the process. They are the process's CPU affinity
/// at that moment: under `taskset -c 0` every split runs on one thread.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// How many threads `work` units should run on: one per core, but no more
/// than leave every thread `min_per_thread` units. A thread costs a spawn
/// and a join (DESIGN.md §6, "The host"), so a small load runs on the
/// caller. `width(usize::MAX, 1)` is the core count, and 1 on a thread
/// that runs a part of a fork (module docs).
pub fn width(work: usize, min_per_thread: usize) -> usize {
    if IN_PART.with(Cell::get) {
        return 1;
    }
    cores().min(work / min_per_thread).max(1)
}

/// Runs `f` with this thread marked as running a part, and restores the
/// mark it had, also when `f` panics.
fn in_part<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PART.with(|mark| mark.set(self.0));
        }
    }
    let _restore = Restore(IN_PART.with(|mark| mark.replace(true)));
    f()
}

/// `len` cut into `min(parts, len)` contiguous ranges (at least one part),
/// in order, covering `0..len`, none empty, their lengths at most one
/// apart; the longer ones come first. A `len` of 0 gives no range.
pub fn ranges(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let (base, extra) = (len / parts, len % parts);
    let cuts = (0..parts).scan(0, move |start, i| {
        let range = *start..*start + base + usize::from(i < extra);
        *start = range.end;
        Some(range)
    });
    cuts.filter(|range| !range.is_empty())
}

/// Runs `work` on every part, the first on the caller and each other on a
/// scoped helper thread, and returns the results in part order. A single
/// part runs on the caller without entering a thread scope, and without
/// the part mark: it is no fork, so what it runs may still split.
///
/// Every helper is joined before the first panic payload (the caller's own
/// first) is re-raised, so a panic in any part reaches the caller as it
/// was raised: `thread::scope` would replace a helper's message with its
/// own.
///
/// # Panics
/// Re-raises the first panic of a part, and panics when the OS refuses a
/// helper thread.
pub fn join_parts<P: Send, R: Send>(
    parts: impl IntoIterator<Item = P>,
    work: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    let mut parts = parts.into_iter().peekable();
    let Some(own) = parts.next() else {
        return Vec::new();
    };
    if parts.peek().is_none() {
        return vec![work(own)];
    }
    let work = &work;
    let outcome = std::thread::scope(|scope| {
        let helpers: Vec<_> =
            parts.map(|part| scope.spawn(move || in_part(|| work(part)))).collect();
        let mut results = Vec::with_capacity(helpers.len() + 1);
        let mut first = catch_unwind(AssertUnwindSafe(|| results.push(in_part(|| work(own)))));
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
pub fn split_lengths<T>(
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
        // Pure arithmetic: no thread starts here, whatever the width.
        for len in [0usize, 1, 2, 3, 7, 9, 10, 255, 256, 1_000] {
            for parts in [0usize, 1, 2, 3, 4, 8, 300, usize::MAX] {
                let got: Vec<Range<usize>> = ranges(len, parts).collect();
                let at = format!("len {len}, parts {parts}: {got:?}");
                assert_eq!(got.len(), parts.max(1).min(len), "{at}");
                assert!(got.iter().all(|r| !r.is_empty()), "{at}");
                let mut next = 0;
                for range in &got {
                    assert_eq!(range.start, next, "{at}");
                    next = range.end;
                }
                assert_eq!(next, len, "{at}");
                for pair in got.windows(2) {
                    assert!(pair[0].len() >= pair[1].len(), "{at}");
                    assert!(pair[0].len() <= pair[1].len() + 1, "{at}");
                }
                // Non-increasing, so the first is the longest and the last
                // the shortest: every two lengths are at most one apart.
                let (longest, shortest) =
                    (got.first().map_or(0, Range::len), got.last().map_or(0, Range::len));
                assert!(longest - shortest <= 1, "{at}");
            }
        }
    }

    #[test]
    fn width_clamps_the_core_count() {
        // Pure arithmetic over the cached core count: no thread starts.
        let cores = width(usize::MAX, 1);
        assert!(cores >= 1);
        assert_eq!(width(usize::MAX, 1), cores);
        for work in [0usize, 1, 2, 3, 7, 100, 16_383, 16_384, 32_768, 1 << 20, usize::MAX] {
            for min in [1usize, 2, 512, 16_384] {
                let w = width(work, min);
                assert!((1..=cores).contains(&w), "width({work}, {min}) = {w}");
                if work < 2 * min {
                    assert_eq!(w, 1, "width({work}, {min})");
                }
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
        // One part runs on the caller.
        let caller = std::thread::current().id();
        assert_eq!(join_parts([7], |part| (part, std::thread::current().id())), [(7, caller)]);
        assert!(join_parts(std::iter::empty::<u32>(), |part| part).is_empty());
    }

    #[test]
    fn a_part_never_splits_again() {
        // Three parts: the caller and two helpers, the only threads this
        // test starts.
        let cores = width(usize::MAX, 1);
        let inside = join_parts([0, 1, 2], |_| width(usize::MAX, 1));
        assert_eq!(inside, [1, 1, 1]);
        assert_eq!(width(usize::MAX, 1), cores, "the caller's mark outlived its part");
        // A single part is no fork: it runs unmarked.
        assert_eq!(join_parts([0], |_| width(usize::MAX, 1)), [cores]);
    }

    #[test]
    fn a_panicking_part_unmarks_the_caller() {
        let cores = width(usize::MAX, 1);
        let unwound = catch_unwind(|| join_parts([0, 1], |part| assert!(part != 0, "boom")));
        assert!(unwound.is_err());
        assert_eq!(width(usize::MAX, 1), cores, "a panicking part left the caller marked");
    }

    #[test]
    #[should_panic(expected = "the helper's own message")]
    fn a_helper_panic_reaches_the_caller_unchanged() {
        join_parts([0, 1, 2], |part| assert!(part != 2, "the helper's own message"));
    }
}
