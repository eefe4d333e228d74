//! Verdict rendering: `p=<.4> cthld=<.3> anomaly=<0|1>`, written straight
//! into a connection's reply buffer.
//!
//! Every served point gets one verdict, so its rendering is on the hot
//! path. `std`'s `{:.4}` runs a general exact-decimal conversion; the two
//! numbers here are small (a vote fraction and a threshold), so
//! [`push_fixed`] renders them with one integer multiply and shift
//! instead, producing byte-identical text (DESIGN.md §12).

use opprentice::Detection;
use std::io::Write as _;

/// `10^d` for the supported precisions.
const POW10: [u64; 5] = [1, 10, 100, 1_000, 10_000];

/// Magnitudes at or above this take the `std` path. Below it the rounded
/// fixed-point integer fits a `u64` with room to spare, and the binary
/// exponent is negative (`2^32 < 2^52`), so the value is always a
/// mantissa over a power of two.
const FAST_LIMIT: f64 = 4_294_967_296.0; // 2^32

/// Appends `x` exactly as `format!("{x:.prec$}")` renders it, for
/// `prec ≤ 4`.
///
/// A finite `|x| < 2^32` is `mant / 2^shift` exactly (`mant < 2^53`,
/// `shift ≥ 21`), so `x · 10^prec` is `mant · 10^prec / 2^shift`: the
/// product is exact in a `u128` (below `2^67`), the shift gives the
/// integer part and the masked-off bits the exact remainder, and ties
/// round to even — `std`'s rule for exact decimal rounding. The result is
/// printed as `n / 10^prec`, `.`, and `n % 10^prec` zero-padded to `prec`
/// digits, after a `-` for any negative sign (`-0.0` included, as `std`
/// does). Non-finite and huge inputs are handed to `std`.
pub(crate) fn push_fixed(out: &mut Vec<u8>, x: f64, prec: usize) {
    let abs = x.abs();
    if !x.is_finite() || abs >= FAST_LIMIT {
        let _ = write!(out, "{x:.prec$}");
        return;
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    let bits = abs.to_bits();
    let biased = (bits >> 52) as u32;
    let frac = bits & ((1 << 52) - 1);
    // Subnormals have no implicit leading bit and the minimum exponent.
    let (mant, shift) = if biased == 0 {
        (frac, 1074)
    } else {
        (frac | 1 << 52, 1075 - biased)
    };
    let scaled = u128::from(mant) * u128::from(POW10[prec]);
    // Past 127 bits of shift the product (< 2^67) is far below one half.
    let n = if shift >= 128 {
        0
    } else {
        let q = (scaled >> shift) as u64;
        let rem = scaled & ((1 << shift) - 1);
        let half = 1u128 << (shift - 1);
        if rem > half || (rem == half && q & 1 == 1) {
            q + 1
        } else {
            q
        }
    };
    let pow = POW10[prec];
    push_u64(out, n / pow);
    if prec > 0 {
        out.push(b'.');
        let mut digits = [b'0'; 4];
        let mut f = n % pow;
        for d in digits[..prec].iter_mut().rev() {
            *d = b'0' + (f % 10) as u8;
            f /= 10;
        }
        out.extend_from_slice(&digits[..prec]);
    }
}

/// Appends `n` in decimal.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Renders one observation's verdict exactly as an `OBS` reply carries it
/// after the `OK ` — shared by the single and batched paths so `OBSB`
/// replies are guaranteed byte-identical to the equivalent `OBS` sequence.
pub(crate) fn push_verdict(out: &mut Vec<u8>, d: Option<Detection>) {
    match d {
        Some(d) => {
            out.extend_from_slice(b"p=");
            push_fixed(out, d.probability, 4);
            out.extend_from_slice(b" cthld=");
            push_fixed(out, d.cthld, 3);
            out.extend_from_slice(if d.is_anomaly {
                b" anomaly=1"
            } else {
                b" anomaly=0"
            });
        }
        None => out.extend_from_slice(b"pending"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fixed(x: f64, prec: usize) -> String {
        let mut out = Vec::new();
        push_fixed(&mut out, x, prec);
        String::from_utf8(out).expect("ASCII")
    }

    /// The writer against `std` at the two precisions verdicts use.
    fn assert_matches_std(x: f64) {
        assert_eq!(
            fixed(x, 4),
            format!("{x:.4}"),
            "{x:e} ({:#x}) at .4",
            x.to_bits()
        );
        assert_eq!(
            fixed(x, 3),
            format!("{x:.3}"),
            "{x:e} ({:#x}) at .3",
            x.to_bits()
        );
    }

    #[test]
    fn named_cases_match_std() {
        let mut cases = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),             // smallest subnormal
            f64::from_bits((1 << 52) - 1), // largest subnormal
            -f64::from_bits(1),
            0.03125, // 2^-5: an exact binary tie at .4 (0.0312|5)
            0.0625,  // exact tie at .3 (0.062|5)
            0.00005, // not exactly representable: near a tie at .4
            0.0005,
            0.5,
            0.99995,
            0.9995,
            1.0,
            1.5,
            2.5,
            9.99995,
            123.456_75,
            4_294_967_295.999_9,
            FAST_LIMIT,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Neighbours of the rounding boundaries, a few ulps either side.
        for x in [0.99995f64, 0.9995, 0.00005, 0.03125, 0.5, 1.0] {
            let mut lo = x;
            let mut hi = x;
            for _ in 0..4 {
                lo = f64::from_bits(lo.to_bits() - 1);
                hi = f64::from_bits(hi.to_bits() + 1);
                cases.push(lo);
                cases.push(hi);
            }
        }
        // Every exact binary tie at .4 and .3 below 2: k/2^5 and k/2^4
        // fall on a half of the last printed digit.
        for k in 0..64 {
            cases.push(f64::from(k) / 32.0);
            cases.push(f64::from(k) / 16.0);
        }
        for x in cases {
            assert_matches_std(x);
        }
    }

    #[test]
    fn vote_fractions_match_std() {
        // What the forest actually emits: k/n vote fractions.
        for n in 1..=256u32 {
            for k in 0..=n {
                assert_matches_std(f64::from(k) / f64::from(n));
            }
        }
    }

    #[test]
    fn verdict_layout() {
        let mut out = Vec::new();
        push_verdict(
            &mut out,
            Some(Detection {
                probability: 0.03125,
                cthld: 0.0625,
                is_anomaly: false,
            }),
        );
        out.push(b'|');
        push_verdict(&mut out, None);
        out.push(b'|');
        push_verdict(
            &mut out,
            Some(Detection {
                probability: 1.0,
                cthld: 0.401,
                is_anomaly: true,
            }),
        );
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "p=0.0312 cthld=0.062 anomaly=0|pending|p=1.0000 cthld=0.401 anomaly=1"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Any bit pattern: sign, exponent and mantissa all arbitrary.
        #[test]
        fn arbitrary_bit_patterns_match_std(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(fixed(x, 4), format!("{x:.4}"));
            prop_assert_eq!(fixed(x, 3), format!("{x:.3}"));
        }

        /// Bit patterns restricted to the magnitudes verdicts take
        /// (about 2^-40 to 2^10), where the fast path does the work.
        #[test]
        fn verdict_range_bit_patterns_match_std(
            exp in 983u64..1033,
            mant in any::<u64>(),
            neg in any::<bool>(),
        ) {
            let bits = u64::from(neg) << 63 | exp << 52 | (mant & ((1 << 52) - 1));
            let x = f64::from_bits(bits);
            prop_assert_eq!(fixed(x, 4), format!("{x:.4}"));
            prop_assert_eq!(fixed(x, 3), format!("{x:.3}"));
        }
    }
}
