//! Plain-text rendering: tables and ASCII CDF/scatter plots.
//!
//! Every table and figure in this crate renders through these helpers so
//! the whole report shares one visual language (and the benches can
//! regression-diff rendered output byte-for-byte).

use airstat_stats::Ecdf;
use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub(crate) fn new<I: IntoIterator<Item = S>, S: Into<String>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Shorter rows are padded with empty cells.
    pub(crate) fn row<I: IntoIterator<Item = S>, S: Into<String>>(
        &mut self,
        cells: I,
    ) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders with column alignment.
    pub(crate) fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = width - cell.chars().count();
                // Right-align numeric-looking cells, left-align text.
                let numeric = cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+');
                if numeric && i > 0 {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(cell);
                } else {
                    out.push_str(cell);
                    out.push_str(&" ".repeat(pad));
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        if !self.header.is_empty() {
            write_row(&mut out, &self.header);
            let rule: usize = widths.iter().sum::<usize>() + 2 * (columns - 1);
            out.push_str(&"-".repeat(rule));
            out.push('\n');
        }
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Renders one or more CDFs as an ASCII chart.
///
/// `series` pairs a label with an ECDF; the chart is `width x height`
/// characters with the x-axis spanning `[x_lo, x_hi]`.
pub(crate) fn render_cdfs(
    series: &[(&str, &Ecdf)],
    x_lo: f64,
    x_hi: f64,
    width: usize,
    height: usize,
) -> String {
    assert!(
        x_hi > x_lo && width >= 10 && height >= 4,
        "degenerate chart"
    );
    const MARKS: &[char] = &['*', 'o', '+', 'x', '#', '@'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, ecdf)) in series.iter().enumerate() {
        if ecdf.is_empty() {
            continue;
        }
        let mark = MARKS[si % MARKS.len()];
        for (col, cell) in (0..width).zip(0..width) {
            let x = x_lo + (x_hi - x_lo) * col as f64 / (width - 1) as f64;
            let f = ecdf.fraction_at_or_below(x);
            let row = ((1.0 - f) * (height - 1) as f64).round() as usize;
            let row = row.min(height - 1);
            grid[row][cell] = mark;
        }
    }
    let mut out = String::new();
    for (r, line) in grid.iter().enumerate() {
        let frac = 1.0 - r as f64 / (height - 1) as f64;
        let _ = write!(out, "{frac:4.2} |");
        out.extend(line.iter());
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    let _ = writeln!(out, "     +{}", "-".repeat(width));
    let _ = writeln!(
        out,
        "      {:<.3}{}{:>.3}",
        x_lo,
        " ".repeat(width.saturating_sub(12)),
        x_hi
    );
    for (si, (label, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "      {} {}", MARKS[si % MARKS.len()], label);
    }
    out
}

/// Renders a horizontal bar chart of labelled counts (Figure 2 style).
pub(crate) fn render_bars<L: std::fmt::Display>(bars: &[(L, u64)], width: usize) -> String {
    let max = bars.iter().map(|b| b.1).max().unwrap_or(0).max(1);
    let mut out = String::new();
    for (label, count) in bars {
        let len = (count * width as u64 / max) as usize;
        let _ = writeln!(out, "{label:>8} |{} {count}", "#".repeat(len));
    }
    out
}

/// Renders a sparse y-vs-x scatter as an ASCII plot.
pub(crate) fn render_scatter(
    points: &[(f64, f64)],
    width: usize,
    height: usize,
    x_hi: f64,
    y_hi: f64,
) -> String {
    let mut grid = vec![vec![' '; width]; height];
    for &(x, y) in points {
        if !(x.is_finite() && y.is_finite()) {
            continue;
        }
        let col = ((x / x_hi) * (width - 1) as f64).round() as isize;
        let row = ((1.0 - (y / y_hi).min(1.0)) * (height - 1) as f64).round() as isize;
        if (0..width as isize).contains(&col) && (0..height as isize).contains(&row) {
            grid[row as usize][col as usize] = '.';
        }
    }
    let mut out = String::new();
    for line in &grid {
        let mut l: String = line.iter().collect();
        while l.ends_with(' ') {
            l.pop();
        }
        out.push('|');
        out.push_str(&l);
        out.push('\n');
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(["OS", "TB", "% increase"]);
        t.row(["Windows", "589", "43%"]);
        t.row(["Apple iOS", "545", "92%"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("OS"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("Windows"));
        // Numeric columns right-aligned: both TB values end at same col.
        let pos_589 = lines[2].find("589").unwrap();
        let pos_545 = lines[3].find("545").unwrap();
        assert_eq!(pos_589, pos_545);
    }

    #[test]
    fn empty_table() {
        let t = TextTable::new(["a"]);
        assert!(t.rows.is_empty());
        let s = t.render();
        assert!(s.contains('a'));
    }

    #[test]
    fn cdf_chart_dimensions() {
        let e = Ecdf::new((0..100).map(f64::from));
        let s = render_cdfs(&[("test", &e)], 0.0, 100.0, 40, 10);
        let data_lines = s.lines().filter(|l| l.contains('|')).count();
        assert_eq!(data_lines, 10);
        assert!(s.contains("* test"));
    }

    #[test]
    fn cdf_chart_multiple_series_markers() {
        let a = Ecdf::new([1.0, 2.0, 3.0]);
        let b = Ecdf::new([4.0, 5.0, 6.0]);
        let s = render_cdfs(&[("a", &a), ("b", &b)], 0.0, 10.0, 30, 8);
        assert!(s.contains('*') && s.contains('o'));
    }

    #[test]
    #[should_panic(expected = "degenerate chart")]
    fn cdf_chart_rejects_bad_range() {
        let e = Ecdf::new([1.0]);
        let _ = render_cdfs(&[("x", &e)], 5.0, 5.0, 40, 10);
    }

    #[test]
    fn bars_scale_to_max() {
        let s = render_bars(&[("ch1", 100u64), ("ch6", 50), ("ch11", 0)], 20);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].matches('#').count(), 20);
        assert_eq!(lines[1].matches('#').count(), 10);
        assert_eq!(lines[2].matches('#').count(), 0);
    }

    #[test]
    fn scatter_plots_points() {
        let s = render_scatter(&[(0.5, 0.5), (1.0, 1.0)], 20, 10, 1.0, 1.0);
        assert!(s.matches('.').count() >= 2);
    }
}
