//! Plain-text table rendering for the `resoftmax-bench` subcommands.

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

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup factor.
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats milliseconds.
pub fn ms(x: f64) -> String {
    format!("{x:.2} ms")
}

/// Formats bytes as GB with two decimals.
pub fn gb(bytes: f64) -> String {
    format!("{:.2} GB", bytes / 1e9)
}

/// Renders rows as RFC-4180-ish CSV (quoting cells containing commas or
/// quotes), for piping experiment output into plotting scripts.
///
/// # Example
///
/// ```
/// use resoftmax_core::format::render_csv;
/// let csv = render_csv(&["a", "b"], &[vec!["1".into(), "x,y".into()]]);
/// assert_eq!(csv, "a,b\n1,\"x,y\"\n");
/// ```
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn cell(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| cell(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
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
    fn csv_quoting() {
        let csv = render_csv(
            &["x", "y"],
            &[
                vec!["1".into(), "plain".into()],
                vec!["2".into(), "a,b".into()],
                vec!["3".into(), "q\"q".into()],
            ],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,y");
        assert_eq!(lines[2], "2,\"a,b\"");
        assert_eq!(lines[3], "3,\"q\"\"q\"");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn csv_ragged_panics() {
        let _ = render_csv(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.361), "36.1%");
        assert_eq!(speedup(1.254), "1.25x");
        assert_eq!(ms(12.345), "12.35 ms");
        assert_eq!(gb(2.5e9), "2.50 GB");
    }
}
