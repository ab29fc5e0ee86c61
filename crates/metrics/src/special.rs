//! Special mathematical functions needed by the statistical tests.
//!
//! The NIST SP 800-22 battery expresses its p-values through the
//! complementary error function `erfc` and the regularized upper
//! incomplete gamma function `igamc`. Implemented from the classic
//! Numerical-Recipes-style series/continued-fraction expansions, accurate
//! to ~1e-12 over the ranges the tests use.

/// Natural log of the gamma function (Lanczos approximation).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0");
    const G: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for g in G {
        y += 1.0;
        ser += g / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Regularized lower incomplete gamma P(a, x).
pub fn igam(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "igam requires a > 0, x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cf(a, x)
    }
}

/// Regularized upper incomplete gamma Q(a, x) = 1 − P(a, x).
pub fn igamc(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "igamc requires a > 0, x >= 0");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cf(a, x)
    }
}

fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_cf(a: f64, x: f64) -> f64 {
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
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Complementary error function, |error| < 1.2e-7 (sufficient for
/// p-values), via the Chebyshev fit of Numerical Recipes refined with one
/// Newton-ish correction for improved mid-range accuracy.
pub fn erfc(x: f64) -> f64 {
    // Use the incomplete gamma identity erfc(x) = Q(1/2, x²) for x ≥ 0,
    // which reuses the high-accuracy igamc machinery.
    if x >= 0.0 {
        igamc(0.5, x * x)
    } else {
        2.0 - igamc(0.5, x * x)
    }
}

/// Standard normal CDF.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(2.0)).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(11.0) - 3_628_800f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn igam_plus_igamc_is_one() {
        for &(a, x) in &[(0.5, 0.3), (1.0, 1.0), (2.5, 4.0), (10.0, 3.0)] {
            assert!(
                (igam(a, x) + igamc(a, x) - 1.0).abs() < 1e-12,
                "a={a} x={x}"
            );
        }
    }

    #[test]
    fn igamc_known_values() {
        // Q(1, x) = e^{-x}.
        for x in [0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!((igamc(1.0, x) - (-x).exp()).abs() < 1e-12, "x={x}");
        }
        // Q(2, x) = (1+x)·e^{-x}.
        for x in [0.2, 1.5, 6.0] {
            assert!((igamc(2.0, x) - (1.0 + x) * (-x).exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_reference_points() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-12);
        assert!((erfc(1.0) - 0.157_299_207_050_285).abs() < 1e-9);
        assert!((erfc(2.0) - 0.004_677_734_981_063_13).abs() < 1e-9);
        assert!((erfc(-1.0) - 1.842_700_792_949_715).abs() < 1e-9);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }
}
