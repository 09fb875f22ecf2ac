//! Plain-text table rendering for the `resoftmax-bench` subcommands.

use crate::experiments::BenchRow;

/// Renders rows as a fixed-width text table with a header and rule.
///
/// # Example
///
/// ```
/// use resoftmax_core::format::render_table;
/// let t = render_table(
///     &["model", "speedup"],
///     &[vec!["BERT".into(), "1.25x".into()]],
/// );
/// assert!(t.contains("BERT"));
/// assert!(t.lines().count() >= 3);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_owned()
    };
    out.push_str(&fmt_row(
        &headers.iter().map(ToString::to_string).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// A value with at most four decimals and no trailing zeros: the one format
/// of the claim tables and of every [`bin_tables`] table.
pub fn num(x: f64) -> String {
    let s = format!("{x:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_owned()
}

/// One bin's rows as a table: a line per `config`, in row order, with
/// `config` and then each row's value, in [`num`]'s format, under its
/// `metric`. Every record that
/// [`rows_of`](crate::experiments::rows_of) flattens into a bin has the
/// same metrics in the same order, so the first line's metrics head every
/// line.
pub fn pivot(bin: &[BenchRow]) -> (Vec<&str>, Vec<Vec<String>>) {
    let lines: Vec<&[BenchRow]> = bin.chunk_by(|a, b| a.config == b.config).collect();
    let mut headers = vec!["config"];
    headers.extend(lines[0].iter().map(|r| r.metric.as_str()));
    let table = lines
        .iter()
        .map(|line| {
            std::iter::once(line[0].config.clone())
                .chain(line.iter().map(|r| num(r.value)))
                .collect()
        })
        .collect();
    (headers, table)
}

/// `rows` as one [`pivot`]ed table per `bin`, in row order, each under its
/// bin's name.
pub fn bin_tables(rows: &[BenchRow]) -> String {
    let mut out = String::new();
    for bin in rows.chunk_by(|a, b| a.bin == b.bin) {
        let (headers, table) = pivot(bin);
        out.push('\n');
        out.push_str(&bin[0].bin);
        out.push_str("\n\n");
        out.push_str(&render_table(&headers, &table));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer-cell".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with('a'));
        assert!(lines[1].starts_with("---"));
        // columns align: the "1" and "2" start at the same offset
        let c1 = lines[2].find('1').unwrap();
        let c2 = lines[3].find('2').unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        let _ = render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(num(140.068_138_756), "140.0681");
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(2.0), "2");
    }
}
