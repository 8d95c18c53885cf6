//! Plain-text rendering for the figure harness.
//!
//! The `repro` binary prints each figure as an aligned text table (the
//! "same rows/series the paper reports"); machine-readable output is
//! JSON ([`crate::export`]).

use std::fmt::Write as _;

/// An aligned text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}", c, width = widths[i]);
                if i + 1 < ncols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Format a byte count the way the paper's axes do (KB/MB).
pub fn fmt_size(bytes: u64) -> String {
    if bytes >= 1_000_000 {
        format!("{:.1}MB", bytes as f64 / 1e6)
    } else if bytes >= 1_000 {
        format!("{:.0}KB", bytes as f64 / 1e3)
    } else {
        format!("{bytes}B")
    }
}

/// Format a float with three significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["t(us)", "jain"]);
        t.row(vec!["5", "0.500"]);
        t.row(vec!["100", "1.000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("t(us)"));
        assert!(lines[1].starts_with('-'));
        // Right-aligned numbers line up at the column edge.
        assert!(lines[2].ends_with("0.500"));
        assert!(lines[3].ends_with("1.000"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(512), "512B");
        assert_eq!(fmt_size(50_000), "50KB");
        assert_eq!(fmt_size(2_500_000), "2.5MB");
    }
}
