//! Derived figure series.

/// Downsample a `(x, y)` series to at most `n` evenly spaced points
/// (keeps first and last). Figures don't need every 5 µs sample.
pub fn thin<T: Copy>(series: &[T], n: usize) -> Vec<T> {
    if series.len() <= n || n < 2 {
        return series.to_vec();
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let idx = i * (series.len() - 1) / (n - 1);
        out.push(series[idx]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thin_keeps_endpoints() {
        let s: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 0.0)).collect();
        let t = thin(&s, 10);
        assert_eq!(t.len(), 10);
        assert_eq!(t[0].0, 0.0);
        assert_eq!(t[9].0, 99.0);
    }

    #[test]
    fn thin_short_series_untouched() {
        let s = vec![1, 2, 3];
        assert_eq!(thin(&s, 10), s);
    }
}
