//! Measurement harness: throughput timing and figure-style output.

use std::time::Instant;

/// Run `op` for `count` iterations and return throughput in thousands of
/// operations per second (the paper's y-axis unit, "x10^3 Ops/s").
pub fn measure_throughput<F: FnMut(usize)>(count: usize, mut op: F) -> f64 {
    let start = Instant::now();
    for i in 0..count {
        op(i);
    }
    let elapsed = start.elapsed().as_secs_f64();
    if elapsed == 0.0 {
        return f64::INFINITY;
    }
    (count as f64 / elapsed) / 1_000.0
}

/// [`measure_throughput`] for a pass that leaves its data as it found it (a
/// read): one untimed warm-up pass, then the median of five timed passes, so
/// that one short pass's scheduling noise does not decide the figure.
pub fn median_throughput<F: FnMut(usize)>(count: usize, mut op: F) -> f64 {
    (0..count).for_each(&mut op);
    let mut passes: Vec<f64> = (0..5).map(|_| measure_throughput(count, &mut op)).collect();
    passes.sort_by(f64::total_cmp);
    passes[2]
}

/// A table of results printed in the same layout as a paper figure: one row
/// per x-axis point, one column per plotted series.
#[derive(Debug, Clone)]
pub struct FigureTable {
    title: String,
    x_label: String,
    series: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl FigureTable {
    /// Create a table for a figure.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, series: Vec<&str>) -> Self {
        FigureTable {
            title: title.into(),
            x_label: x_label.into(),
            series: series.into_iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one x-axis point with its per-series values.
    pub fn add_row(&mut self, x: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len(), "one value per series");
        self.rows.push((x.into(), values));
    }

    /// The collected rows (x label and series values).
    pub fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }

    /// Render the table as a Markdown heading and pipe table (the form
    /// BASELINES.md keeps; `ci/paper-figures.sh` regenerates that file from
    /// the binaries' output).
    pub fn render(&self) -> String {
        let mut out = format!("### {}\n\n| {} |", self.title, self.x_label);
        for series in &self.series {
            out.push_str(&format!(" {series} |"));
        }
        out.push_str("\n|---|");
        out.push_str(&"---:|".repeat(self.series.len()));
        out.push('\n');
        for (x, values) in &self.rows {
            out.push_str(&format!("| {x} |"));
            for value in values {
                out.push_str(&format!(" {value:.2} |"));
            }
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_positive_and_scales() {
        let fast = measure_throughput(10_000, |_| {});
        let slow = measure_throughput(1_000, |_| {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(fast > 0.0);
        assert!(slow > 0.0);
        assert!(fast > slow);
    }

    #[test]
    fn median_throughput_warms_up_then_times_five_passes() {
        let mut calls = 0;
        assert!(median_throughput(100, |_| calls += 1) > 0.0);
        assert_eq!(calls, 600);
    }

    #[test]
    fn figure_table_renders_all_rows_and_columns() {
        let mut table = FigureTable::new("Figure X", "#Records", vec!["Spitz", "Baseline"]);
        table.add_row("10000", vec![120.5, 80.25]);
        table.add_row("20000", vec![110.0, 70.0]);
        let text = table.render();
        assert_eq!(
            text,
            "### Figure X\n\n\
             | #Records | Spitz | Baseline |\n\
             |---|---:|---:|\n\
             | 10000 | 120.50 | 80.25 |\n\
             | 20000 | 110.00 | 70.00 |\n"
        );
        assert_eq!(table.rows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "one value per series")]
    fn mismatched_row_width_panics() {
        let mut table = FigureTable::new("F", "x", vec!["a", "b"]);
        table.add_row("1", vec![1.0]);
    }
}
