//! Special mathematical functions (gamma, erf, incomplete beta/gamma).
//!
//! These are the numerical building blocks for the probability distributions
//! in [`crate::distributions`]. Implementations follow standard references
//! (Lanczos approximation for `ln Γ`, Abramowitz & Stegun 7.1.26 for `erf`,
//! continued fractions for the regularized incomplete beta and gamma
//! functions) and are accurate to roughly 1e-10 over the ranges the detection
//! pipeline uses.

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with g = 7 and 9 coefficients.
///
/// # Examples
///
/// ```
/// let v = fbd_stats::special::ln_gamma(5.0);
/// assert!((v - (24.0f64).ln()).abs() < 1e-10); // Γ(5) = 4! = 24.
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, n = 9.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1-x) = π / sin(πx).
        std::f64::consts::PI.ln() - (std::f64::consts::PI * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// The error function `erf(x)`.
///
/// Maximum absolute error about 1.2e-7 (Abramowitz & Stegun 7.1.26),
/// which is ample for p-value thresholding at the 0.01 level.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Returns values in `[0, 1]`. For `x < a + 1` a series expansion is used;
/// otherwise the continued-fraction form of the upper function is evaluated
/// and complemented.
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    if x <= 0.0 || a <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut sum = 1.0 / a;
        let mut term = sum;
        let mut n = a;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        1.0 - regularized_gamma_q_cf(a, x)
    }
}

/// Continued-fraction evaluation of the regularized upper incomplete gamma
/// function `Q(a, x)`, valid for `x >= a + 1`.
fn regularized_gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Used by the Student's t CDF. Returns values in `[0, 1]`.
pub fn regularized_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    // Use the continued fraction in its rapidly-converging region.
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Lentz's continued fraction for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u32..10 {
            let fact: f64 = (1..n).map(|k| k as f64).product();
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-9,
                "Γ({n}) mismatch"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < 1e-9);
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-8);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-6);
    }

    #[test]
    fn regularized_gamma_p_is_chi2_cdf() {
        // P(k/2, x/2) is the chi-squared CDF with k dof.
        // Chi-squared with 1 dof at x=3.841 should be ~0.95.
        let p = regularized_gamma_p(0.5, 3.841 / 2.0);
        assert!((p - 0.95).abs() < 1e-3, "got {p}");
        // 2 dof at x=5.991 -> 0.95.
        let p = regularized_gamma_p(1.0, 5.991 / 2.0);
        assert!((p - 0.95).abs() < 1e-3, "got {p}");
    }

    #[test]
    fn regularized_beta_boundaries() {
        assert!(regularized_beta(2.0, 3.0, 0.0) == 0.0);
        assert_eq!(regularized_beta(2.0, 3.0, 1.0).to_bits(), 1.0f64.to_bits());
        // I_x(1, 1) = x (uniform distribution).
        for x in [0.1, 0.5, 0.9] {
            assert!((regularized_beta(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }

    #[test]
    fn regularized_beta_symmetry() {
        // I_x(a, b) = 1 - I_{1-x}(b, a).
        let lhs = regularized_beta(2.5, 4.0, 0.3);
        let rhs = 1.0 - regularized_beta(4.0, 2.5, 0.7);
        assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn gamma_p_monotonic_in_x() {
        let mut prev = 0.0;
        for i in 1..100 {
            let x = i as f64 * 0.2;
            let p = regularized_gamma_p(3.0, x);
            assert!(p >= prev - 1e-12);
            prev = p;
        }
        assert!(prev > 0.999);
    }
}
