//! Minimal table rendering for the experiment harness.

use std::fmt;

/// A rectangular table of strings with a title, rendered as GitHub-flavoured
/// markdown (so the harness output can be pasted into a document verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (printed above the table).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and columns.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the number of columns.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Formats a float with a sensible number of significant digits for
    /// table cells.
    pub fn fmt_f64(value: f64) -> String {
        if !value.is_finite() {
            return format!("{value}");
        }
        if value == 0.0 {
            return "0".to_string();
        }
        let magnitude = value.abs();
        if magnitude >= 100.0 {
            format!("{value:.1}")
        } else if magnitude >= 1.0 {
            format!("{value:.2}")
        } else {
            format!("{value:.4}")
        }
    }
}

// The vendored `serde` has no derive (see vendor/README.md).  Tables are
// rendered for `--json` but never journaled, so this encoder is written by
// hand rather than through `schema!`, which would add an unused decoder.
impl serde::Serialize for Table {
    fn to_json_value(&self) -> serde::json::Value {
        serde::json::Value::Object(vec![
            ("title".to_string(), self.title.to_json_value()),
            ("columns".to_string(), self.columns.to_json_value()),
            ("rows".to_string(), self.rows.to_json_value()),
        ])
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {}", self.title)?;
        writeln!(f)?;
        writeln!(f, "| {} |", self.columns.join(" | "))?;
        let separator: Vec<String> = self.columns.iter().map(|_| "---".to_string()).collect();
        writeln!(f, "| {} |", separator.join(" | "))?;
        for row in &self.rows {
            writeln!(f, "| {} |", row.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_markdown() {
        let mut t = Table::new("E0: smoke", &["n", "value"]);
        t.push_row(vec!["4".into(), "1.25".into()]);
        t.push_row(vec!["8".into(), "2.50".into()]);
        assert_eq!(t.row_count(), 2);
        let rendered = t.to_string();
        assert!(rendered.contains("### E0: smoke"));
        assert!(rendered.contains("| n | value |"));
        assert!(rendered.contains("| --- | --- |"));
        assert!(rendered.contains("| 8 | 2.50 |"));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(Table::fmt_f64(0.0), "0");
        assert_eq!(Table::fmt_f64(1234.567), "1234.6");
        assert_eq!(Table::fmt_f64(12.345), "12.35");
        assert_eq!(Table::fmt_f64(0.01234), "0.0123");
        assert_eq!(Table::fmt_f64(f64::INFINITY), "inf");
    }
}
