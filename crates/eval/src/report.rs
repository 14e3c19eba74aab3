//! Plain-text table rendering for experiment reports.
//!
//! Every experiment's result type implements `Display` through this small
//! helper, so the `repro` harness prints tables directly comparable to the
//! paper's.

use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub(crate) struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub(crate) fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; must match the header width.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let line_len: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let _ = writeln!(out, "{}", "-".repeat(line_len));
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(&widths) {
                let _ = write!(s, " {cell:>w$} |", w = w);
            }
            s
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let _ = writeln!(out, "{}", "-".repeat(line_len));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        let _ = writeln!(out, "{}", "-".repeat(line_len));
        out
    }
}

/// A horizontal ASCII bar chart — used to render the paper's figures
/// (3 and 4) as figures, not just tables.
#[derive(Debug, Clone)]
pub(crate) struct BarChart {
    title: String,
    bars: Vec<(String, f64)>,
    width: usize,
}

impl BarChart {
    /// Creates a chart; `width` is the maximum bar length in characters.
    pub(crate) fn new(title: impl Into<String>, width: usize) -> Self {
        assert!(width > 0);
        Self {
            title: title.into(),
            bars: Vec::new(),
            width,
        }
    }

    /// Appends one labelled bar. Negative values are clamped to zero.
    pub(crate) fn bar(&mut self, label: impl Into<String>, value: f64) -> &mut Self {
        self.bars.push((label.into(), value.max(0.0)));
        self
    }

    /// Renders the chart; bars are scaled to the maximum value.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let max = self
            .bars
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let label_w = self.bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (label, value) in &self.bars {
            let n = ((value / max) * self.width as f64).round() as usize;
            let _ = writeln!(
                out,
                "  {label:<label_w$} |{} {value:.3}",
                "█".repeat(n),
                label_w = label_w
            );
        }
        out
    }
}

/// Formats a fraction as a percentage with two decimals.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a float with three decimals.
pub(crate) fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new("Demo", &["Method", "Score"]);
        t.row(vec!["Breadth".into(), "0.981".into()]);
        t.row(vec!["CF".into(), "0.1".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("| Breadth | 0.981 |"));
        assert!(s.contains("|      CF |   0.1 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_mismatched_rows() {
        TextTable::new("t", &["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.0213), "2.13%");
        assert_eq!(f3(0.12345), "0.123");
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let mut c = BarChart::new("Fig", 10);
        c.bar("a", 1.0).bar("bb", 0.5).bar("c", 0.0);
        let s = c.render();
        assert!(s.contains("Fig"));
        // The max bar is exactly `width` blocks; half value → half blocks.
        assert!(s.contains(&format!("a  |{} 1.000", "█".repeat(10))), "{s}");
        assert!(s.contains(&format!("bb |{} 0.500", "█".repeat(5))), "{s}");
        assert!(s.contains("c  | 0.000"), "{s}");
    }

    #[test]
    fn bar_chart_clamps_negative_and_handles_all_zero() {
        let mut c = BarChart::new("t", 4);
        c.bar("neg", -3.0).bar("zero", 0.0);
        let s = c.render();
        assert!(s.contains("neg  | 0.000"));
        assert!(s.contains("zero | 0.000"));
    }

    #[test]
    #[should_panic]
    fn bar_chart_zero_width_rejected() {
        BarChart::new("t", 0);
    }
}
