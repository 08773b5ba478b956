//! Table emitters for the experiment binaries.
//!
//! Every experiment prints its series as an aligned plain-text table and a
//! CSV block (for plotting), so the regenerated rows can be compared directly
//! against the paper's tables and figure series.

use std::fmt::Write as _;

/// A simple table: header plus rows of strings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the column count does not match the header.
    pub fn add_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    // sphlint::allow(dead-pub, pending deletion)
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    #[cfg_attr(not(test), expect(dead_code, reason = "the table tests read the title back"))]
    pub(crate) fn title(&self) -> &str {
        &self.title
    }

    /// Render as an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  ")
        );
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("Demo", &["system", "energy_mj"]);
        t.add_row(&["LUMI-G".to_string(), "24.4".to_string()]);
        t.add_row(&["CSCS-A100".to_string(), "12.5".to_string()]);
        t
    }

    #[test]
    fn text_rendering_contains_all_cells() {
        let text = table().to_text();
        assert!(text.contains("Demo"));
        assert!(text.contains("LUMI-G"));
        assert!(text.contains("12.5"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn csv_rendering() {
        let csv = table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "system,energy_mj");
        assert_eq!(lines[1], "LUMI-G,24.4");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    #[should_panic]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(&["only-one".to_string()]);
    }

    #[test]
    fn row_count_and_title() {
        let t = table();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.title(), "Demo");
    }
}
