//! Experiment output capture: one [`Reporter`] per run.
//!
//! Experiments write their output through a `Reporter` instead of
//! printing, so one run yields both the text `experiments <id>` prints and
//! the machine-readable JSON document the golden snapshots compare.

use tacc_json::{obj, Json};
use tacc_metrics::{Cell, Table};

/// What an experiment returns besides its reported output.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// One-line summary (workload size, key configuration) for indexes.
    pub headline: String,
}

/// Captures experiment output as text plus a deterministic JSON document.
///
/// `line` carries prose and commentary (a trailing `\n` inside the string
/// leaves a blank separator line); `table` carries structured figure/table
/// data.
#[derive(Debug, Default)]
pub struct Reporter {
    text: String,
    lines: Vec<String>,
    tables: Vec<Json>,
}

impl Reporter {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated human-readable text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Consumes the recorder into the experiment's golden JSON payload:
    /// `{"lines": [...], "tables": [...]}`.
    pub fn into_json(self) -> Json {
        obj(vec![
            (
                "lines",
                Json::Arr(self.lines.into_iter().map(Json::Str).collect()),
            ),
            ("tables", Json::Arr(self.tables)),
        ])
    }

    /// Reports one line of prose (without its terminating newline).
    pub fn line(&mut self, text: &str) {
        self.text.push_str(text);
        self.text.push('\n');
        self.lines.push(text.to_owned());
    }

    /// Reports a rendered table.
    pub fn table(&mut self, table: &Table) {
        self.text.push_str(&table.to_string());
        self.text.push('\n');
        self.tables.push(table_json(table));
    }
}

/// Converts a rendered table into its JSON form. Numeric cells are parsed
/// back from their fixed-precision rendering so the JSON value carries
/// exactly the digits the text table shows — no more, no less — which is
/// what golden byte-equality should gate on.
pub fn table_json(table: &Table) -> Json {
    let header = table.header().iter().cloned().map(Json::Str).collect();
    let rows = table
        .rows()
        .iter()
        .map(|row| Json::Arr(row.iter().map(cell_json).collect()))
        .collect();
    obj(vec![
        ("title", table.title().into()),
        ("header", Json::Arr(header)),
        ("rows", Json::Arr(rows)),
    ])
}

fn cell_json(cell: &Cell) -> Json {
    let rendered = cell.render();
    match cell {
        Cell::Text(_) => Json::Str(rendered),
        Cell::Num(..) => match rendered.parse::<f64>() {
            Ok(v) => Json::num(v),
            Err(_) => Json::Str(rendered),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_matches_print_format() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec![Cell::Num(1.25, 1)]);
        let mut r = Reporter::new();
        r.line("hello\n");
        r.table(&t);
        // println!("hello\n") emits "hello\n\n"; println!("{t}") appends a
        // blank line after the table's own trailing newline.
        assert_eq!(r.text(), format!("hello\n\n{t}\n"));
        let json = r.into_json().to_string();
        assert!(json.contains(r#""lines":["hello\n"]"#));
        // 1.25 renders as "1.2" at precision 1 (banker's-free Rust rounding),
        // and the JSON carries the rendered value, not the raw one.
        assert!(json.contains(r#""rows":[[1.2]]"#), "{json}");
    }
}
