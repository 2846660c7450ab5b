//! Minimal CSV export.
//!
//! Experiments write their raw series under `target/experiments/` so
//! that external tooling can reproduce the paper's figures graphically.
//! Quoting follows RFC 4180 for the small subset we emit.

/// Builds the text of a CSV file row by row; the caller writes it.
pub struct CsvWriter {
    buf: String,
    columns: usize,
}

impl CsvWriter {
    /// Starts a CSV text with a header row.
    pub fn new(headers: &[&str]) -> CsvWriter {
        let mut w = CsvWriter {
            buf: String::new(),
            columns: headers.len(),
        };
        w.push_row_raw(headers.iter().map(|s| s.to_string()));
        w
    }

    fn quote(field: &str) -> String {
        if field.contains([',', '"', '\n']) {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_owned()
        }
    }

    fn push_row_raw(&mut self, cells: impl Iterator<Item = String>) {
        let row: Vec<String> = cells.map(|c| Self::quote(&c)).collect();
        self.buf.push_str(&row.join(","));
        self.buf.push('\n');
    }

    /// Appends a data row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count — a
    /// malformed dataset is a bug in the experiment, not a runtime
    /// condition.
    pub fn row(&mut self, cells: &[String]) -> &mut CsvWriter {
        assert_eq!(cells.len(), self.columns, "CSV row width mismatch");
        self.push_row_raw(cells.iter().cloned());
        self
    }

    /// Convenience: a row of displayable values.
    pub fn row_display<T: std::fmt::Display>(&mut self, cells: &[T]) -> &mut CsvWriter {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// The finished text.
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row_display(&[1, 2]);
        w.row(&["x".into(), "y".into()]);
        assert_eq!(w.finish(), "a,b\n1,2\nx,y\n");
    }

    #[test]
    fn quotes_fields_with_commas_and_quotes() {
        let mut w = CsvWriter::new(&["v"]);
        w.row(&["hello, \"world\"".into()]);
        assert_eq!(w.finish(), "v\n\"hello, \"\"world\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(&["only-one".into()]);
    }
}
