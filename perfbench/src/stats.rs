//! Order statistics and process memory readings.

/// The `q`-quantile (0..=1) of `values` by nearest rank; sorts in place.
/// `None` when `values` is empty.
pub fn quantile<T: Copy + PartialOrd>(values: &mut [T], q: f64) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

/// The median of `values`; sorts in place.
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The mean of the middle half of `values` (from the first to the third
/// quartile); sorts in place. Unlike the median it moves smoothly when
/// calls shift between two separate modes that each hold about half of
/// them. 0 when `values` is empty.
pub fn interquartile_mean(values: &mut [u32]) -> f64 {
    values.sort_unstable();
    let middle = &values[values.len() / 4..values.len() - values.len() / 4];
    middle.iter().map(|&v| f64::from(v)).sum::<f64>() / middle.len().max(1) as f64
}

/// A field of `/proc/self/status` in kB (`VmRSS`, `VmHWM`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix(field)?
            .strip_prefix(':')?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_interquartile_mean_averages_the_middle_half() {
        assert_eq!(interquartile_mean(&mut [100, 1, 3, 2]), 2.5);
        assert_eq!(interquartile_mean(&mut [7]), 7.0);
        assert_eq!(interquartile_mean(&mut []), 0.0);
    }
}
