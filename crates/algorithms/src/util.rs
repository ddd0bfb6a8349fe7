//! Shared helpers: deterministic hashing for synthetic model parameters
//! and a small dense linear solver for Collaborative Filtering.

/// SplitMix64 — deterministic stateless hash used to derive synthetic
/// model parameters (BP potentials, CF initial factors) from vertex/edge
/// ids, so runs are reproducible without storing parameter tables.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform value in `[lo, hi)` derived from a hash input.
#[inline]
pub fn hash_unit(x: u64, lo: f64, hi: f64) -> f64 {
    let h = splitmix64(x);
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// Solves the dense system `A x = b` for small `d × d` matrices (CF's
/// normal equations) via Gaussian elimination with partial pivoting.
/// `a` is row-major and is consumed; returns `None` when the matrix is
/// numerically singular.
pub fn solve_dense(mut a: Vec<f64>, mut b: Vec<f64>, d: usize) -> Option<Vec<f64>> {
    debug_assert_eq!(a.len(), d * d);
    debug_assert_eq!(b.len(), d);
    for col in 0..d {
        // Partial pivot.
        let mut pivot = col;
        let mut best = a[col * d + col].abs();
        for row in col + 1..d {
            let cand = a[row * d + col].abs();
            if cand > best {
                best = cand;
                pivot = row;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if pivot != col {
            for k in 0..d {
                a.swap(col * d + k, pivot * d + k);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * d + col];
        for row in col + 1..d {
            let factor = a[row * d + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..d {
                a[row * d + k] -= factor * a[col * d + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; d];
    for col in (0..d).rev() {
        let mut acc = b[col];
        for k in col + 1..d {
            acc -= a[col * d + k] * x[k];
        }
        x[col] = acc / a[col * d + col];
    }
    Some(x)
}

/// Max-norm distance between two equally sized vectors.
#[inline]
pub fn linf(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }

    #[test]
    fn hash_unit_stays_in_range() {
        for i in 0..1000 {
            let v = hash_unit(i, 0.5, 1.5);
            assert!((0.5..1.5).contains(&v));
        }
    }

    #[test]
    fn solve_dense_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![3.0, -2.0];
        let x = solve_dense(a, b, 2).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_dense_general_case() {
        // A = [[2, 1], [1, 3]], b = [5, 10] → x = [1, 3].
        let a = vec![2.0, 1.0, 1.0, 3.0];
        let b = vec![5.0, 10.0];
        let x = solve_dense(a, b, 2).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_dense_needs_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let b = vec![7.0, 9.0];
        let x = solve_dense(a, b, 2).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn solve_dense_detects_singularity() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        let b = vec![1.0, 2.0];
        assert!(solve_dense(a, b, 2).is_none());
    }

    #[test]
    fn linf_measures_max_gap() {
        assert_eq!(linf(&[1.0, 5.0], &[1.5, 5.1]), 0.5);
        assert_eq!(linf(&[], &[]), 0.0);
    }
}
