//! Minimal table rendering for the experiment harness.

use std::fmt;

/// A rectangular table of strings with a title, rendered as GitHub-flavoured
/// markdown (so the harness output can be pasted into a document verbatim).
///
/// A table is built whole, by [`Table::from_rows`] or [`Table::new`], and
/// both give every row exactly one cell per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// One column of a table built from typed rows: its header and the function
/// that renders its cell from a row.
pub type Column<R> = (&'static str, fn(&R) -> String);

impl Table {
    /// Builds a table with one row per element of `rows` and one column per
    /// entry of `columns`, each cell rendered by its column's function.
    pub fn from_rows<R>(title: impl Into<String>, rows: &[R], columns: &[Column<R>]) -> Self {
        Table {
            title: title.into(),
            columns: columns
                .iter()
                .map(|(header, _)| header.to_string())
                .collect(),
            rows: rows
                .iter()
                .map(|row| columns.iter().map(|(_, cell)| cell(row)).collect())
                .collect(),
        }
    }

    /// Builds a table from rows whose cells are already rendered, each as
    /// wide as `columns`.
    pub fn new<const N: usize>(
        title: impl Into<String>,
        columns: [&str; N],
        rows: impl IntoIterator<Item = [String; N]>,
    ) -> Self {
        Table {
            title: title.into(),
            columns: columns.map(str::to_string).into(),
            rows: rows.into_iter().map(Vec::from).collect(),
        }
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
        let t = Table::new(
            "E0: smoke",
            ["n", "value"],
            [
                ["4".to_string(), "1.25".to_string()],
                ["8".to_string(), "2.50".to_string()],
            ],
        );
        assert_eq!(t.row_count(), 2);
        let rendered = t.to_string();
        assert!(rendered.contains("### E0: smoke"));
        assert!(rendered.contains("| n | value |"));
        assert!(rendered.contains("| --- | --- |"));
        assert!(rendered.contains("| 8 | 2.50 |"));
    }

    #[test]
    fn typed_rows_render_one_cell_per_column() {
        let rows = [(4usize, 1.25), (8, 2.5)];
        let t = Table::from_rows(
            "E0: smoke",
            &rows,
            &[
                ("n", |r| r.0.to_string()),
                ("value", |r| Table::fmt_f64(r.1)),
                ("n·value", |r| Table::fmt_f64(r.0 as f64 * r.1)),
            ],
        );
        assert_eq!(t.row_count(), 2);
        let rendered = t.to_string();
        assert!(rendered.contains("| n | value | n·value |"));
        assert!(rendered.contains("| --- | --- | --- |"));
        assert!(rendered.contains("| 4 | 1.25 | 5.00 |"));
        assert!(rendered.contains("| 8 | 2.50 | 20.00 |"));
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
