//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) by nearest rank; `samples` must be sorted.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

pub fn mean_f(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn median_f(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median_f(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(mean_f(&[3.0, 1.0, 2.0, 10.0]), 4.0);
    }
}
