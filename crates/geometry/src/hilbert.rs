//! Hilbert space-filling curves in 2-D and 3-D.
//!
//! The Hilbert-Prefetch baseline \[22\] assigns each grid cell a Hilbert value
//! and prefetches cells whose values neighbor the current cell's value.
//! Encoding/decoding uses Skilling's transpose algorithm ("Programming the
//! Hilbert curve", AIP 2004), which works for any dimension and bit depth.

/// Maximum bits per axis for a 3-D curve so the index fits in `u64`.
pub const MAX_ORDER_3D: u32 = 21;
/// Maximum bits per axis for a 2-D curve so the index fits in `u64`.
pub const MAX_ORDER_2D: u32 = 32;

#[inline]
fn axes_to_transpose<const N: usize>(x: &mut [u32; N], bits: u32) {
    // Inverse undo.
    let mut q: u32 = 1 << (bits - 1);
    while q > 1 {
        let p = q - 1;
        for i in 0..N {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..N {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    q = 1 << (bits - 1);
    while q > 1 {
        if x[N - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for v in x.iter_mut() {
        *v ^= t;
    }
}

#[inline]
fn transpose_to_axes<const N: usize>(x: &mut [u32; N], bits: u32) {
    // Gray decode by H ^ (H/2).
    let t = x[N - 1] >> 1;
    for i in (1..N).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q: u32 = 2;
    while q != (1u32 << bits) {
        let p = q - 1;
        for i in (0..N).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Packs the transposed representation into a single index, MSB-first.
#[inline]
fn pack<const N: usize>(x: &[u32; N], bits: u32) -> u64 {
    let mut out: u64 = 0;
    for b in (0..bits).rev() {
        for v in x.iter() {
            out = (out << 1) | u64::from((v >> b) & 1);
        }
    }
    out
}

/// Unpacks an index into the transposed representation.
#[inline]
fn unpack<const N: usize>(index: u64, bits: u32) -> [u32; N] {
    let mut x = [0u32; N];
    let total = bits * N as u32;
    for pos in 0..total {
        let bit = (index >> (total - 1 - pos)) & 1;
        let axis = (pos as usize) % N;
        let level = bits - 1 - pos / N as u32;
        x[axis] |= (bit as u32) << level;
    }
    x
}

/// Hilbert index of 3-D cell coordinates with `order` bits per axis.
///
/// Coordinates must be `< 2^order`; `order ≤ `[`MAX_ORDER_3D`].
pub fn hilbert_index_3d(coords: [u32; 3], order: u32) -> u64 {
    assert!((1..=MAX_ORDER_3D).contains(&order), "order out of range: {order}");
    debug_assert!(coords.iter().all(|&c| c < (1u32 << order)));
    let mut x = coords;
    axes_to_transpose(&mut x, order);
    pack(&x, order)
}

/// Inverse of [`hilbert_index_3d`].
pub fn hilbert_coords_3d(index: u64, order: u32) -> [u32; 3] {
    assert!((1..=MAX_ORDER_3D).contains(&order), "order out of range: {order}");
    let mut x = unpack::<3>(index, order);
    transpose_to_axes(&mut x, order);
    x
}

/// Hilbert index of 2-D cell coordinates with `order` bits per axis.
pub fn hilbert_index_2d(coords: [u32; 2], order: u32) -> u64 {
    assert!((1..=MAX_ORDER_2D).contains(&order), "order out of range: {order}");
    debug_assert!(order == 32 || coords.iter().all(|&c| (c as u64) < (1u64 << order)));
    let mut x = coords;
    axes_to_transpose(&mut x, order);
    pack(&x, order)
}

/// Inverse of [`hilbert_index_2d`].
pub fn hilbert_coords_2d(index: u64, order: u32) -> [u32; 2] {
    assert!((1..=MAX_ORDER_2D).contains(&order), "order out of range: {order}");
    let mut x = unpack::<2>(index, order);
    transpose_to_axes(&mut x, order);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order1_3d_visits_all_cells_once() {
        let mut seen = [false; 8];
        for x in 0..2u32 {
            for y in 0..2u32 {
                for z in 0..2u32 {
                    let h = hilbert_index_3d([x, y, z], 1) as usize;
                    assert!(h < 8);
                    assert!(!seen[h], "duplicate index {h}");
                    seen[h] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn round_trip_3d() {
        for order in [1u32, 2, 3, 5] {
            let n = 1u32 << order;
            for x in (0..n).step_by(3) {
                for y in (0..n).step_by(2) {
                    for z in 0..n.min(4) {
                        let c = [x, y, z];
                        let h = hilbert_index_3d(c, order);
                        assert_eq!(hilbert_coords_3d(h, order), c, "order {order}");
                    }
                }
            }
        }
    }

    #[test]
    fn round_trip_2d() {
        for order in [1u32, 2, 4, 8] {
            let n: u32 = 1 << order;
            for x in (0..n).step_by(5) {
                for y in (0..n).step_by(7) {
                    let c = [x, y];
                    assert_eq!(hilbert_coords_2d(hilbert_index_2d(c, order), order), c);
                }
            }
        }
    }

    #[test]
    fn consecutive_indices_are_adjacent_cells_3d() {
        // The defining Hilbert property: cells with consecutive indices are
        // neighbors (Manhattan distance exactly 1).
        let order = 3;
        let total = 1u64 << (3 * order);
        for i in 0..total - 1 {
            let a = hilbert_coords_3d(i, order);
            let b = hilbert_coords_3d(i + 1, order);
            let dist: u32 = a.iter().zip(b.iter()).map(|(&p, &q)| p.abs_diff(q)).sum();
            assert_eq!(dist, 1, "indices {i},{} map to {a:?},{b:?}", i + 1);
        }
    }

    #[test]
    fn consecutive_indices_are_adjacent_cells_2d() {
        let order = 4;
        let total = 1u64 << (2 * order);
        for i in 0..total - 1 {
            let a = hilbert_coords_2d(i, order);
            let b = hilbert_coords_2d(i + 1, order);
            let dist: u32 = a.iter().zip(b.iter()).map(|(&p, &q)| p.abs_diff(q)).sum();
            assert_eq!(dist, 1);
        }
    }

    #[test]
    fn indices_cover_full_range() {
        let order = 2;
        let total = 1u64 << (3 * order);
        let mut seen = vec![false; total as usize];
        let n = 1u32 << order;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    seen[hilbert_index_3d([x, y, z], order) as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn order_zero_rejected() {
        let _ = hilbert_index_3d([0, 0, 0], 0);
    }
}
