//! Runtime CPU-capability dispatch for the slice kernels.
//!
//! The bulk geometry kernels (Morton/Hilbert slice encoding, SoA AABB
//! overlap) ship in two compiled versions: a portable scalar build and a
//! wide build compiled with `#[target_feature(enable = "avx2")]` so LLVM
//! may auto-vectorize with 256-bit registers. Which one runs is decided
//! once per process from the CPU's actual capabilities — the binary stays
//! portable (no `-C target-cpu=native` required) while hot loops get the
//! wide code paths on machines that have them.
//!
//! The compile-time side lives in `build.rs`: the `scout_dispatch_x86_64`
//! cfg marks targets where the wide paths exist at all. On every other
//! architecture [`cpu_tier`] is always [`CpuTier::Scalar`] and the
//! explicit-tier kernel entry points silently fall back to scalar, so
//! callers and tests never need per-arch cfgs.
//!
//! Every kernel's tiers are property-tested to agree element-for-element —
//! the tier is a pure performance choice and must never change results
//! (the determinism contract of DESIGN.md §9 depends on it).

use std::sync::OnceLock;

/// A compiled kernel version the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuTier {
    /// Portable baseline; compiled for the target's default features.
    Scalar,
    /// x86-64 AVX2 (256-bit) build. Requesting it on hardware without
    /// AVX2 (or on non-x86-64 targets) runs the scalar build instead —
    /// the tier is a hint, never an unsafe promise.
    Avx2,
}

impl CpuTier {
    /// Stable lower-case name for reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            CpuTier::Scalar => "scalar",
            CpuTier::Avx2 => "avx2",
        }
    }
}

/// The best tier this machine supports, detected once per process.
pub fn cpu_tier() -> CpuTier {
    static TIER: OnceLock<CpuTier> = OnceLock::new();
    *TIER.get_or_init(detect)
}

fn detect() -> CpuTier {
    #[cfg(scout_dispatch_x86_64)]
    if std::arch::is_x86_feature_detected!("avx2") {
        return CpuTier::Avx2;
    }
    CpuTier::Scalar
}

/// True when `tier`'s compiled path may actually run on this machine;
/// the kernels use this to fall back to scalar safely.
#[inline]
pub(crate) fn tier_available(tier: CpuTier) -> bool {
    match tier {
        CpuTier::Scalar => true,
        #[cfg(scout_dispatch_x86_64)]
        CpuTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(not(scout_dispatch_x86_64))]
        CpuTier::Avx2 => false,
    }
}

/// Asks the CPU to start loading `value`'s first cache line — and, for a
/// type wider than one line, the next one — without waiting for it. A
/// pure latency hint for loops that know which record they will read a
/// few iterations from now (the range scan walks page id lists into the
/// dataset array); results never depend on it, and on targets without
/// the wide dispatch paths it compiles to nothing.
#[inline(always)]
pub fn prefetch_read<T>(value: &T) {
    #[cfg(scout_dispatch_x86_64)]
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
    #[cfg(not(scout_dispatch_x86_64))]
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

    #[test]
    fn detected_tier_is_available() {
        assert!(tier_available(cpu_tier()));
        assert!(tier_available(CpuTier::Scalar));
    }

    #[test]
    fn tier_names() {
        assert_eq!(CpuTier::Scalar.name(), "scalar");
        assert_eq!(CpuTier::Avx2.name(), "avx2");
    }
}
