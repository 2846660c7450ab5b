//! Terminal CDF plots.
//!
//! Experiments print ASCII renditions of the paper's figures so that a
//! run's qualitative shape (where the steps are, who is left of whom)
//! can be eyeballed without leaving the terminal; exact data goes to
//! CSV via [`crate::CsvWriter`].

use crate::ecdf::Ecdf;

/// Renders several ECDFs on shared axes; each series gets a glyph.
pub fn ascii_cdf_multi(series: &[(&str, &Ecdf)], width: usize, height: usize) -> String {
    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let width = width.max(16);
    let height = height.max(4);
    let non_empty: Vec<&(&str, &Ecdf)> = series.iter().filter(|(_, e)| !e.is_empty()).collect();
    if non_empty.is_empty() {
        return "(no data)\n".to_owned();
    }
    let xmin = non_empty
        .iter()
        .map(|(_, e)| e.min())
        .fold(f64::MAX, f64::min);
    let xmax = non_empty
        .iter()
        .map(|(_, e)| e.max())
        .fold(f64::MIN, f64::max);
    let span = if xmax > xmin { xmax - xmin } else { 1.0 };

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, ecdf)) in non_empty.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        #[allow(clippy::needless_range_loop)] // writes grid[row][col], row varies per col
        for col in 0..width {
            let x = xmin + span * col as f64 / (width - 1) as f64;
            let y = ecdf.fraction_leq(x);
            let row = ((1.0 - y) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col] = glyph;
        }
    }

    let mut out = String::new();
    for (si, (name, _)) in non_empty.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], name));
    }
    for (i, row) in grid.iter().enumerate() {
        let y = 1.0 - i as f64 / (height - 1) as f64;
        out.push_str(&format!("{:>4.0}% |", y * 100.0));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "      +{}\n       {:<width$.1}{:>10.1}\n",
        "-".repeat(width),
        xmin,
        xmax,
        width = width - 9
    ));
    out
}

/// Renders several ECDFs on shared axes with a **log-scale x axis** —
/// the natural view for TTLs, which span seconds to days (the paper's
/// Figures 1, 2 and 9 are all log-x).
///
/// Non-positive samples are clamped to the smallest positive sample
/// for display purposes.
pub fn ascii_cdf_log(series: &[(&str, &Ecdf)], width: usize, height: usize) -> String {
    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let width = width.max(16);
    let height = height.max(4);
    let non_empty: Vec<&(&str, &Ecdf)> = series.iter().filter(|(_, e)| !e.is_empty()).collect();
    if non_empty.is_empty() {
        return "(no data)\n".to_owned();
    }
    let min_positive = non_empty
        .iter()
        .flat_map(|(_, e)| e.samples().iter())
        .copied()
        .filter(|&x| x > 0.0)
        .fold(f64::MAX, f64::min);
    if min_positive == f64::MAX {
        // All-zero data has no log scale; fall back to linear.
        return ascii_cdf_multi(series, width, height);
    }
    let xmin = min_positive;
    let xmax = non_empty
        .iter()
        .map(|(_, e)| e.max())
        .fold(f64::MIN, f64::max)
        .max(xmin * 1.0001);
    let (lmin, lmax) = (xmin.ln(), xmax.ln());

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, ecdf)) in non_empty.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        #[allow(clippy::needless_range_loop)] // writes grid[row][col], row varies per col
        for col in 0..width {
            let lx = lmin + (lmax - lmin) * col as f64 / (width - 1) as f64;
            let y = ecdf.fraction_leq(lx.exp());
            let row = ((1.0 - y) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col] = glyph;
        }
    }

    let mut out = String::new();
    for (si, (name, _)) in non_empty.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], name));
    }
    for (i, row) in grid.iter().enumerate() {
        let y = 1.0 - i as f64 / (height - 1) as f64;
        out.push_str(&format!("{:>4.0}% |", y * 100.0));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "      +{}\n       {:<width$.0}(log x){:>10.0}\n",
        "-".repeat(width),
        xmin,
        xmax,
        width = width - 15
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_legend_and_axes() {
        let e = Ecdf::from_u64([10, 20, 30, 40]);
        let s = ascii_cdf_multi(&[("latency", &e)], 40, 10);
        assert!(s.contains("latency"));
        assert!(s.contains("100%"));
        assert!(s.contains('*'));
    }

    #[test]
    fn multi_series_uses_distinct_glyphs() {
        let a = Ecdf::from_u64([1, 2, 3]);
        let b = Ecdf::from_u64([100, 200, 300]);
        let s = ascii_cdf_multi(&[("short", &a), ("long", &b)], 40, 8);
        assert!(s.contains('*') && s.contains('o'));
    }

    #[test]
    fn log_scale_spreads_decades() {
        // Samples at 60, 3600, 86400: on a log axis each sits roughly a
        // third of the way along; on a linear axis the first two crowd
        // the left edge.
        let e = Ecdf::from_u64([60, 3_600, 86_400]);
        let log = ascii_cdf_log(&[("ttl", &e)], 60, 8);
        assert!(log.contains("(log x)"));
        // The 33% step (after 60) must appear well inside the chart —
        // find the column where the curve first rises above 0%.
        let linear = ascii_cdf_multi(&[("ttl", &e)], 60, 8);
        assert_ne!(log, linear);
    }

    #[test]
    fn log_scale_handles_all_zero_data() {
        let e = Ecdf::from_u64([0, 0, 0]);
        let s = ascii_cdf_log(&[("zeros", &e)], 40, 8);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_series_yield_placeholder() {
        let e = Ecdf::new(vec![]);
        assert_eq!(ascii_cdf_multi(&[("x", &e)], 40, 8), "(no data)\n");
    }

    #[test]
    fn single_value_does_not_panic() {
        let e = Ecdf::from_u64([42]);
        let s = ascii_cdf_multi(&[("answer", &e)], 30, 6);
        assert!(s.contains('*'));
    }
}
