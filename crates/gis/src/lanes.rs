//! Lane-shaped kernels: fixed-width SoA arithmetic for the hot loops.
//!
//! The evaluator's per-`(step, group)` irradiance work bottoms out in two
//! loop shapes — a masked popcount census over shadow words and a
//! shadow-gated beam accumulation over per-cell normals — plus the
//! elementwise string folds.  This module owns them in a form the
//! autovectorizer can chew on: structure-of-arrays inputs, no
//! data-dependent branches, and accumulation split across [`LANES`]
//! fixed accumulators folded in one canonical tree order.  The
//! per-module operating-point sweep is PV physics, not GIS: it lives
//! with its model, as `pv_model::EmpiricalModule::operating_points`.
//!
//! # The bit-identity contract
//!
//! Floating-point addition is not associative, so "vectorize the sum"
//! normally changes the bits.  The kernels here pin one summation order
//! and make every implementation — branchy scalar reference and
//! chunked lane loop — reproduce it exactly:
//!
//! * term `i` of a reduction is added into accumulator `i % LANES`;
//! * the accumulators are folded by [`sum_lanes`], a fixed tree
//!   `(acc[0] + acc[2]) + (acc[1] + acc[3])`, never sequentially;
//! * the scalar tail reuses the same `i % LANES` striding, so the result
//!   is independent of how the body is chunked;
//! * shadowed cells contribute an explicit `+0.0` in the branch-free
//!   paths.  That is bit-identical to the reference's "skip" because
//!   every beam term is `max(·, 0.0) ≥ +0.0` and the accumulators start
//!   at `+0.0` — no `-0.0` can ever appear on either side;
//! * no FMA contraction anywhere: every path performs the same discrete
//!   multiply and add steps, which is why the lane results equal the
//!   scalar ones bit-for-bit.
//!
//! The `*_scalar` twins are not dead code: they are the proptest oracle
//! (`lane_kernel_is_bit_identical_to_scalar`) and the shape a reviewer
//! should diff against the lane loops.

/// Number of parallel f64 accumulator lanes (one 256-bit vector register).
///
/// This constant is part of the numeric contract: changing it changes
/// the canonical summation order and therefore the bits.
pub const LANES: usize = 4;

/// Folds the four lane accumulators in the one canonical tree order:
/// `(acc[0] + acc[2]) + (acc[1] + acc[3])`.
///
/// Every reduction in this module — scalar reference and lane loop —
/// ends in exactly this fold, which is what makes the result independent
/// of chunking.
#[inline]
#[must_use]
pub fn sum_lanes(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// Lane-chunked sum of a slice in the canonical order.
///
/// Bit-identical to [`sum_scalar`] on every input; the loop body is
/// shaped so LLVM lowers it to packed adds.
#[must_use]
pub fn sum(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a += x;
        }
    }
    for (a, &x) in acc.iter_mut().zip(chunks.remainder()) {
        *a += x;
    }
    sum_lanes(acc)
}

/// Scalar reference for [`sum`]: one element at a time, striding the
/// same `i % LANES` accumulators, folded by the same tree.
#[must_use]
pub fn sum_scalar(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (i, &x) in xs.iter().enumerate() {
        acc[i % LANES] += x;
    }
    sum_lanes(acc)
}

/// Branch-free census of lit cells: ANDs each group mask against the
/// step's shadow words and popcounts word-at-a-time.  There is no
/// per-cell bit test — a 64-cell word costs one `AND` + `count_ones`.
#[inline]
#[must_use]
pub fn masked_popcount(words: &[u64], masks: &[(u32, u64)]) -> u32 {
    masks
        .iter()
        .map(|&(w, m)| (words[w as usize] & m).count_ones())
        .sum()
}

/// Shadow-gated beam sum over a group's cells (undulating roofs).
///
/// `nx`/`ny`/`nz` are the group's unit normals in SoA layout, `cells`
/// the matching linear cell indices, and `shadow` the step's shadow
/// bitset (absent means nothing is shadowed).  Returns
/// `Σ keep_i · max(s · n_i, 0)` in the canonical lane order, where
/// `keep_i ∈ {0.0, 1.0}` comes from the shadow bit — a multiply, not a
/// branch, so the loop pipeline never stalls on shadow patterns.
///
/// Bit-identical to [`shadowed_beam_sum_scalar`] on every input.
#[must_use]
pub fn shadowed_beam_sum(
    sun: &[f64; 3],
    nx: &[f64],
    ny: &[f64],
    nz: &[f64],
    cells: &[u32],
    shadow: Option<&[u64]>,
) -> f64 {
    debug_assert!(nx.len() == ny.len() && ny.len() == nz.len() && nz.len() == cells.len());
    let mut acc = [0.0f64; LANES];
    match shadow {
        // Nothing shadowed: plain SoA dot products, packed adds.
        None => {
            let whole = nx.len() - nx.len() % LANES;
            let (xs, x_tail) = nx.split_at(whole);
            let (ys, y_tail) = ny.split_at(whole);
            let (zs, z_tail) = nz.split_at(whole);
            for ((x, y), z) in xs
                .chunks_exact(LANES)
                .zip(ys.chunks_exact(LANES))
                .zip(zs.chunks_exact(LANES))
            {
                for (a, ((&x, &y), &z)) in acc.iter_mut().zip(x.iter().zip(y).zip(z)) {
                    let dot = sun[0] * x + sun[1] * y + sun[2] * z;
                    *a += dot.max(0.0);
                }
            }
            for (a, ((&x, &y), &z)) in acc.iter_mut().zip(x_tail.iter().zip(y_tail).zip(z_tail)) {
                let dot = sun[0] * x + sun[1] * y + sun[2] * z;
                *a += dot.max(0.0);
            }
        }
        // The shadow bit becomes a `{0.0, 1.0}` multiplier on the clamped
        // dot product.
        Some(words) => {
            let whole = cells.len() - cells.len() % LANES;
            for base in (0..whole).step_by(LANES) {
                for (j, a) in acc.iter_mut().enumerate() {
                    let i = base + j;
                    let dot = sun[0] * nx[i] + sun[1] * ny[i] + sun[2] * nz[i];
                    *a += keep_factor(words, cells[i]) * dot.max(0.0);
                }
            }
            for i in whole..cells.len() {
                let dot = sun[0] * nx[i] + sun[1] * ny[i] + sun[2] * nz[i];
                acc[i % LANES] += keep_factor(words, cells[i]) * dot.max(0.0);
            }
        }
    }
    sum_lanes(acc)
}

/// Scalar reference for [`shadowed_beam_sum`]: per-cell bit test and a
/// data-dependent branch, but the same strided accumulators and the
/// same tree fold.  Skipping a shadowed cell here equals adding `+0.0`
/// in the lane paths because the terms are non-negative.
#[must_use]
pub fn shadowed_beam_sum_scalar(
    sun: &[f64; 3],
    nx: &[f64],
    ny: &[f64],
    nz: &[f64],
    cells: &[u32],
    shadow: Option<&[u64]>,
) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (i, &cell) in cells.iter().enumerate() {
        let shadowed = match shadow {
            None => false,
            Some(words) => words[cell as usize / 64] & (1u64 << (cell % 64)) != 0,
        };
        if !shadowed {
            let dot = sun[0] * nx[i] + sun[1] * ny[i] + sun[2] * nz[i];
            acc[i % LANES] += dot.max(0.0);
        }
    }
    sum_lanes(acc)
}

/// `1.0` when `cell`'s shadow bit is clear, else `0.0` — pure integer
/// arithmetic, no branch.
#[inline]
pub(crate) fn keep_factor(words: &[u64], cell: u32) -> f64 {
    (1 ^ ((words[cell as usize / 64] >> (cell % 64)) & 1)) as f64
}

/// Elementwise `dst[i] += src[i]` — the string-voltage fold, one member
/// at a time over the whole step range (member-outer, lane-friendly).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_assign(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "lane add: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Elementwise `dst[i] = min(dst[i], src[i])` — the string-current fold.
/// Uses `f64::min`, matching the per-step fold it replaces bit-for-bit
/// (per-element fold order over members is unchanged).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn min_assign(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "lane min: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = d.min(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_lanes_is_the_pinned_tree_order() {
        // Hand-computed 5-element case.  The values are chosen so that
        // the canonical strided tree and a naive sequential sum round
        // differently — the test fails if anyone "simplifies" the fold.
        let xs = [1e16, 1.0, -1e16, 2.0, 3.0];
        // Strided accumulators: acc[0] = 1e16 + 3.0, acc[1] = 1.0,
        // acc[2] = -1e16, acc[3] = 2.0; tree = (acc0 + acc2) + (acc1 + acc3).
        let expected: f64 = ((1e16 + 3.0) + (-1e16)) + (1.0 + 2.0);
        assert_eq!(sum(&xs).to_bits(), expected.to_bits());
        assert_eq!(sum_scalar(&xs).to_bits(), expected.to_bits());
        // 1e16 + 3.0 rounds to 1e16 + 4.0 (ulp at 1e16 is 2), so the
        // tree yields 7.0 while the sequential left fold yields 5.0.
        assert_eq!(sum(&xs), 7.0);
        let sequential: f64 = xs.iter().sum();
        assert_eq!(sequential, 5.0);
    }

    #[test]
    fn chunked_sum_matches_scalar_reference_on_all_lengths() {
        // Awkward magnitudes so any reassociation shows up in the bits.
        let xs: Vec<f64> = (0..37)
            .map(|i| {
                (1.0 + f64::from(i) * 0.7).powi(i % 13 - 6) * if i % 3 == 0 { -1.0 } else { 1.0 }
            })
            .collect();
        for len in 0..xs.len() {
            let lane = sum(&xs[..len]);
            let scalar = sum_scalar(&xs[..len]);
            assert_eq!(lane.to_bits(), scalar.to_bits(), "len {len}");
        }
    }

    #[test]
    fn beam_sum_matches_scalar_on_mixed_shadow_patterns() {
        let n = 23;
        let cells: Vec<u32> = (0..n).map(|i| (i * 7 + 3) as u32 % 128).collect();
        let nx: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin() * 0.4).collect();
        let ny: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos() * 0.4).collect();
        let nz: Vec<f64> = nx
            .iter()
            .zip(&ny)
            .map(|(&x, &y)| (1.0 - x * x - y * y).sqrt())
            .collect();
        let sun = [0.3, -0.5, 0.812_403_840_463_596];
        let words: Vec<u64> = vec![0xDEAD_BEEF_0246_8ACE, 0x1357_9BDF_F00D_5AA5];
        for shadow in [None, Some(words.as_slice())] {
            let lane = shadowed_beam_sum(&sun, &nx, &ny, &nz, &cells, shadow);
            let scalar = shadowed_beam_sum_scalar(&sun, &nx, &ny, &nz, &cells, shadow);
            assert_eq!(lane.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn elementwise_folds_match_the_loop_shapes_they_replace() {
        let mut v_sum = vec![0.0f64; 5];
        let mut i_min = vec![f64::INFINITY; 5];
        let volts = [24.1, 0.0, 18.5, 3.25, 7.0];
        let amps = [5.5, 0.0, 6.25, f64::INFINITY, 1.0];
        add_assign(&mut v_sum, &volts);
        min_assign(&mut i_min, &amps);
        assert_eq!(v_sum, volts);
        assert_eq!(i_min, amps);
        add_assign(&mut v_sum, &volts);
        assert_eq!(v_sum[0], 48.2);
    }
}
