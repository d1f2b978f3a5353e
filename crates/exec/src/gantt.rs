//! Gantt-chart rendering of execution traces (paper Figures 4 and 7).

use varuna_obs::ProfileSpan;

/// Renders an ASCII Gantt chart of one replica's trace.
///
/// Each row is a pipeline stage (top row = last stage, matching the paper's
/// figures); time is quantized into cells of `cell` seconds. Cells show the
/// op code and micro-batch (`F0`, `R2`, `B1` rendered as `F`, `r`, `B`
/// shading: forwards `F`, recomputes `r`, backwards `B`), idle cells are
/// `.`.
pub fn ascii_gantt(trace: &[ProfileSpan], p: usize, replica: usize, cell: f64) -> String {
    assert!(cell > 0.0, "cell width must be positive");
    let spans: Vec<&ProfileSpan> = trace.iter().filter(|t| t.replica == replica).collect();
    let end = spans.iter().map(|t| t.end).fold(0.0f64, f64::max);
    let cols = (end / cell).ceil() as usize;
    let mut out = String::new();
    for stage in (0..p).rev() {
        out.push_str(&format!("S{stage:<3}|"));
        for c in 0..cols {
            let mid = (c as f64 + 0.5) * cell;
            let ch = spans
                .iter()
                .find(|t| t.stage == stage && t.start <= mid && mid < t.end)
                .map(|t| if t.op == 'R' { 'r' } else { t.op })
                .unwrap_or('.');
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Serializes spans as CSV (`stage,replica,op,micro,start,end`) for
/// plotting the paper's Figure 7 timeline.
pub fn spans_csv(trace: &[ProfileSpan]) -> String {
    let mut out = String::from("stage,replica,op,micro,start,end\n");
    for t in trace {
        out.push_str(&format!(
            "{},{},{},{},{:.6},{:.6}\n",
            t.stage, t.replica, t.op, t.micro, t.start, t.end
        ));
    }
    out
}

/// Fraction of cells that are idle in an ASCII chart row set — a cheap
/// whitespace metric for schedule comparisons (Figure 4 discussion).
pub fn idle_fraction(chart: &str) -> f64 {
    let cells: Vec<char> = chart
        .lines()
        .flat_map(|l| l.chars().skip_while(|&c| c != '|').skip(1))
        .collect();
    if cells.is_empty() {
        return 0.0;
    }
    cells.iter().filter(|&&c| c == '.').count() as f64 / cells.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: usize, op: char, micro: usize, start: f64, end: f64) -> ProfileSpan {
        ProfileSpan {
            stage,
            replica: 0,
            op,
            micro,
            start,
            end,
        }
    }

    #[test]
    fn chart_rows_are_top_down_stages() {
        let trace = vec![span(0, 'F', 0, 0.0, 1.0), span(1, 'F', 0, 1.0, 2.0)];
        let chart = ascii_gantt(&trace, 2, 0, 1.0);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].starts_with("S1"));
        assert!(lines[1].starts_with("S0"));
        assert_eq!(lines[0], "S1  |.F");
        assert_eq!(lines[1], "S0  |F.");
    }

    #[test]
    fn idle_fraction_counts_dots() {
        let trace = vec![span(0, 'F', 0, 0.0, 1.0), span(1, 'B', 0, 1.0, 2.0)];
        let chart = ascii_gantt(&trace, 2, 0, 1.0);
        assert!((idle_fraction(&chart) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn csv_contains_all_spans() {
        let trace = vec![span(0, 'F', 0, 0.0, 1.0), span(0, 'R', 0, 1.0, 2.0)];
        let csv = spans_csv(&trace);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("0,0,F,0,"));
        assert!(csv.contains("0,0,R,0,"));
    }
}
