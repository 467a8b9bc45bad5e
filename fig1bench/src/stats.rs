//! Order statistics. Every timed metric is a median (or a median of
//! per-window percentiles) so one slow host window cannot set it.

/// `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics. Sorts `v` in place. NaN for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of each window of `(window id, value)` samples
/// holding at least `min_samples` values.
pub fn window_quantiles(samples: &[(usize, f64)], q: f64, min_samples: usize) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(w, v) in samples {
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(v);
    }
    windows
        .iter_mut()
        .filter(|w| w.len() >= min_samples)
        .map(|w| quantile(w, q))
        .collect()
}

/// The `q`-quantile of each whole block of `block` consecutive values
/// (a trailing partial block is left out); of all values if they fill
/// no block.
pub fn block_quantiles(values: &[f64], block: usize, q: f64) -> Vec<f64> {
    if values.len() < block {
        return vec![quantile(&mut values.to_vec(), q)];
    }
    values
        .chunks_exact(block)
        .map(|c| quantile(&mut c.to_vec(), q))
        .collect()
}
