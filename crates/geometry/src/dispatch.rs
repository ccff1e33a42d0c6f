//! The one CPU-specific hint the geometry substrate offers.

/// Asks the CPU to start loading `value`'s first cache line — and, for a
/// type wider than one line, the next one — without waiting for it. A
/// pure latency hint for loops that know which record they will read a
/// few iterations from now (the range scan walks page id lists into the
/// dataset array); results never depend on it, and off x86-64 it compiles
/// to nothing.
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch_read<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let first = (value as *const T).cast::<i8>();
        // SAFETY: `_mm_prefetch` (SSE, part of the x86-64 baseline) is a
        // hint: it performs no architectural access, never faults and
        // has no alignment requirement, so any address is acceptable.
        // `first` points into a live `T`; the second address is formed
        // with `wrapping_add`, so computing it is defined even when it
        // lands past the end of `value`'s allocation, and it is never
        // dereferenced.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(first);
            if std::mem::size_of::<T>() > LINE {
                _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(LINE));
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_no_op_on_values() {
        // One-line and multi-line types, the last element of a slice (the
        // second line then lies past the allocation) and a zero-sized type.
        let wide = [[7u64; 11]; 3];
        prefetch_read(&wide[2]);
        prefetch_read(&wide[0][0]);
        prefetch_read(&());
        assert_eq!(wide[2], [7u64; 11]);
    }
}
