//! Log–log least-squares fits for scaling-shape checks.

/// Result of fitting `y ≈ c · x^exponent` by least squares in log–log space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogLogFit {
    /// Estimated exponent (slope in log–log space).
    pub exponent: f64,
    /// Estimated multiplicative constant.
    pub constant: f64,
    /// Coefficient of determination of the log–log regression.
    pub r_squared: f64,
}

/// Fit `y ≈ c·x^e` from `(x, y)` samples with positive coordinates.
///
/// Returns `None` for fewer than two distinct x values or non-positive data.
pub fn loglog_fit(points: &[(f64, f64)]) -> Option<LogLogFit> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = logs.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = logs
        .iter()
        .map(|(x, y)| (y - (slope * x + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot < 1e-12 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LogLogFit {
        exponent: slope,
        constant: intercept.exp(),
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_linear_scaling() {
        let pts: Vec<(f64, f64)> = (1..=20).map(|i| (i as f64, 3.0 * i as f64)).collect();
        let fit = loglog_fit(&pts).unwrap();
        assert!((fit.exponent - 1.0).abs() < 1e-9);
        assert!((fit.constant - 3.0).abs() < 1e-6);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn recovers_quadratic_scaling() {
        let pts: Vec<(f64, f64)> = (1..=20).map(|i| (i as f64, 0.5 * (i * i) as f64)).collect();
        let fit = loglog_fit(&pts).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(loglog_fit(&[]).is_none());
        assert!(loglog_fit(&[(1.0, 2.0)]).is_none());
        assert!(loglog_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
        assert!(loglog_fit(&[(0.0, 2.0), (-1.0, 3.0)]).is_none());
    }
}
