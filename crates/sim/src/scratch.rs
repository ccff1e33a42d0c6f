//! The query scratch arena.
//!
//! Every query in a guided sequence rebuilds the same transient
//! structures — SCOUT's approximate graph and the buffers its prediction
//! stages, the history model's extraction frontier. Allocating them afresh
//! per query puts the allocator on the hot path the paper measures
//! (Figures 15/16); instead one [`QueryScratch`] per stepping thread is
//! threaded through
//! [`Prefetcher::observe_with_scratch`](crate::prefetcher::Prefetcher::observe_with_scratch),
//! so steady-state queries reuse warmed capacity and perform no heap
//! allocation in the graph-build phase (see DESIGN.md §6).
//!
//! The arena is a typed slot map: each crate defines the buffers it needs
//! as one `Default` type beside the code that uses them and fetches it
//! with [`QueryScratch::part`], so this crate names none of them.
//!
//! Contents never carry meaning across calls, only capacity does, so the
//! arena belongs to the thread that steps a query, not to a session: any
//! session that thread steps next reuses the same warmed buffers. Every
//! consumer clears what it uses on entry and never releases capacity.

use std::any::Any;

/// Reusable buffers for the query hot path, one part per type.
#[derive(Default)]
pub struct QueryScratch {
    parts: Vec<Box<dyn Any + Send>>,
}

impl QueryScratch {
    /// A fresh arena with no parts (they are made and warm up over the
    /// first queries a thread steps).
    pub const fn new() -> QueryScratch {
        QueryScratch { parts: Vec::new() }
    }

    /// The arena's `T`, made with `T::default()` on first use. One arena
    /// holds at most one `T`, and parts of different types never alias.
    pub fn part<T: Any + Send + Default>(&mut self) -> &mut T {
        let at = self.parts.iter().position(|p| p.is::<T>()).unwrap_or_else(|| {
            self.parts.push(Box::new(T::default()));
            self.parts.len() - 1
        });
        self.parts[at].downcast_mut().expect("the part at `at` is a `T`")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_part_per_type_keeps_capacity_and_never_aliases() {
        let mut s = QueryScratch::new();
        s.part::<Vec<u32>>().extend(0..100);
        s.part::<Vec<u64>>().push(7);
        let cap = s.part::<Vec<u32>>().capacity();
        s.part::<Vec<u32>>().clear();
        assert_eq!(s.part::<Vec<u32>>().capacity(), cap, "clearing a part keeps its capacity");
        assert_eq!(s.part::<Vec<u64>>(), &[7], "another type's part is untouched");
        assert_eq!(s.parts.len(), 2, "one part per type");
    }

    #[test]
    fn scratch_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryScratch>();
    }
}
