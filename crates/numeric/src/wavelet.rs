//! Haar wavelet multiresolution analysis (MRA).
//!
//! The paper's wavelet detector (Barford et al. \[12\], Table 3) separates a
//! trailing window of the signal into *low*, *mid* and *high* frequency
//! bands and scores how unusual the current point's band content is. The
//! substrate here is a Haar MRA: a perfect-reconstruction additive split
//!
//! `x = approx_L + detail_L + detail_{L-1} + … + detail_1`
//!
//! where `detail_1` holds the finest (highest-frequency) structure.
//! Arbitrary input lengths are handled by edge-replication padding to the
//! next power of two; outputs are truncated back, preserving additivity
//! pointwise.

/// The additive multiresolution analysis of a signal.
#[derive(Debug, Clone)]
pub struct Mra {
    /// `details[l]` is the reconstructed detail at level `l + 1`
    /// (level 1 = finest/highest frequency). Same length as the input.
    pub details: Vec<Vec<f64>>,
    /// Reconstructed approximation at the coarsest level (lowest frequency).
    pub approx: Vec<f64>,
}

impl Mra {
    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.details.len()
    }

    /// Sum of the detail bands for levels in `range` (1-based, inclusive),
    /// optionally adding the approximation — a frequency-band extraction.
    pub fn band(&self, first_level: usize, last_level: usize, include_approx: bool) -> Vec<f64> {
        let n = self.approx.len();
        let mut out = vec![0.0; n];
        for l in first_level..=last_level.min(self.details.len()) {
            for (o, d) in out.iter_mut().zip(&self.details[l - 1]) {
                *o += d;
            }
        }
        if include_approx {
            for (o, a) in out.iter_mut().zip(&self.approx) {
                *o += a;
            }
        }
        out
    }
}

fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// One forward Haar step: pairs -> (averages, differences), orthonormal.
fn haar_step(xs: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let half = xs.len() / 2;
    let mut a = Vec::with_capacity(half);
    let mut d = Vec::with_capacity(half);
    let s = std::f64::consts::FRAC_1_SQRT_2;
    for i in 0..half {
        a.push((xs[2 * i] + xs[2 * i + 1]) * s);
        d.push((xs[2 * i] - xs[2 * i + 1]) * s);
    }
    (a, d)
}

/// Inverse of [`haar_step`].
fn haar_unstep(a: &[f64], d: &[f64]) -> Vec<f64> {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let mut out = Vec::with_capacity(a.len() * 2);
    for i in 0..a.len() {
        out.push((a[i] + d[i]) * s);
        out.push((a[i] - d[i]) * s);
    }
    out
}

/// Computes the Haar MRA of `xs` down to `levels` levels (capped by the
/// signal length). Returns bands each as long as `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty or `levels == 0`.
pub fn mra_haar(xs: &[f64], levels: usize) -> Mra {
    assert!(!xs.is_empty(), "empty signal");
    assert!(levels > 0, "need at least one level");
    let n = xs.len();
    let padded_len = next_pow2(n);
    let max_levels = padded_len.trailing_zeros() as usize;
    let levels = levels.min(max_levels.max(1));

    // Edge-replication pad.
    let mut padded = xs.to_vec();
    padded.resize(padded_len, *xs.last().expect("non-empty"));

    // Forward transform, keeping each level's detail coefficients.
    let mut approx = padded;
    let mut detail_coeffs: Vec<Vec<f64>> = Vec::with_capacity(levels);
    for _ in 0..levels {
        let (a, d) = haar_step(&approx);
        detail_coeffs.push(d);
        approx = a;
    }

    // Reconstruct each band independently (zero all other coefficients).
    let reconstruct = |level_idx: Option<usize>, approx_in: &[f64]| -> Vec<f64> {
        // Walk back up from the coarsest level.
        let mut cur: Vec<f64> = match level_idx {
            None => approx_in.to_vec(),
            Some(_) => vec![0.0; approx_in.len()],
        };
        for l in (0..levels).rev() {
            let d: Vec<f64> = if level_idx == Some(l) {
                detail_coeffs[l].clone()
            } else {
                vec![0.0; detail_coeffs[l].len()]
            };
            cur = haar_unstep(&cur, &d);
        }
        cur.truncate(n);
        cur
    };

    let details: Vec<Vec<f64>> = (0..levels).map(|l| reconstruct(Some(l), &approx)).collect();
    let approx_band = reconstruct(None, &approx);
    Mra {
        details,
        approx: approx_band,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn perfect_reconstruction_pow2() {
        let xs: Vec<f64> = (0..16).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mra = mra_haar(&xs, 3);
        let sum = mra.band(1, mra.levels(), true);
        assert_vec_close(&sum, &xs, 1e-10);
    }

    #[test]
    fn perfect_reconstruction_odd_length() {
        let xs: Vec<f64> = (0..13).map(|i| (i as f64).sin() * 3.0 + i as f64).collect();
        let mra = mra_haar(&xs, 4);
        let sum = mra.band(1, mra.levels(), true);
        assert_vec_close(&sum, &xs, 1e-10);
    }

    #[test]
    fn constant_signal_is_pure_approximation() {
        let xs = vec![5.0; 32];
        let mra = mra_haar(&xs, 4);
        for d in &mra.details {
            for &v in d {
                assert!(v.abs() < 1e-10);
            }
        }
        assert_vec_close(&mra.approx, &xs, 1e-10);
    }

    #[test]
    fn alternating_signal_lives_in_finest_detail() {
        let xs: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mra = mra_haar(&xs, 4);
        // Mean is zero; everything is in detail level 1.
        assert_vec_close(&mra.details[0], &xs, 1e-10);
        for d in &mra.details[1..] {
            for &v in d {
                assert!(v.abs() < 1e-10);
            }
        }
    }

    #[test]
    fn levels_capped_by_length() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let mra = mra_haar(&xs, 10);
        assert_eq!(mra.levels(), 2);
    }

    #[test]
    fn slow_trend_lives_in_low_band() {
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mra = mra_haar(&xs, 5);
        let high = mra.band(1, 1, false);
        let low = mra.band(mra.levels(), mra.levels(), true);
        let energy = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        assert!(energy(&low) > 100.0 * energy(&high));
    }

    #[test]
    #[should_panic(expected = "empty signal")]
    fn empty_signal_panics() {
        let _ = mra_haar(&[], 1);
    }
}
