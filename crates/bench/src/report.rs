//! Plain-text table formatting for the experiment binaries — the output
//! mirrors the rows the paper's tables report so EXPERIMENTS.md can place
//! them side by side.

use crate::workloads::ParmaRun;

/// A simple column-aligned table.
#[derive(Debug, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Header row.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with a title and header.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncol {
                line.push_str(&format!("{:>w$}  ", cells[i], w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * ncol));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Print a table to stdout.
pub fn print_table(t: &Table) {
    print!("{}", t.render());
}

/// Per-stage rows of ParMA runs — what `improve` did for each entity type
/// of the priority list: imbalance in and out, diffusion iterations and the
/// stop reason.
pub fn stage_table(title: &str, runs: &[(&str, &ParmaRun)]) -> Table {
    let mut t = Table::new(
        title,
        &["run", "stage", "imb% in", "imb% out", "iters", "stop"],
    );
    for (name, run) in runs {
        for ty in &run.report.types {
            t.row(vec![
                name.to_string(),
                ty.dim.to_string(),
                f(ty.initial_pct, 2),
                f(ty.final_pct, 2),
                ty.iters.len().to_string(),
                ty.stop.name().to_string(),
            ]);
        }
    }
    t
}

/// Format a float with `prec` decimals.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22.5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Right-aligned: "a" ends at the same column as "long-name".
        assert!(lines[2].ends_with('-'));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
    }
}
