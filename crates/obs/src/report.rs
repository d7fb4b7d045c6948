//! The human-facing pipeline report: a stage tree with wall times, work
//! metrics, and degradations.
//!
//! Unlike the event stream — which exists only while a [`crate::Recorder`]
//! is armed — the report is built *deterministically* by the pipeline from
//! its own stage timings and outcome counters, so library users always get
//! one from a fit, recorder or not. The CLI's `--report` flag prints it.

use std::fmt;

/// One pipeline stage: a name, its wall time, display-ready metrics, and
/// sub-stages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageReport {
    /// Stage name (matches the span name the stage emits when tracing).
    pub name: String,
    /// Wall-clock time spent in the stage, in nanoseconds.
    pub wall_ns: u64,
    /// `(key, rendered value)` pairs, in display order.
    pub metrics: Vec<(String, String)>,
    /// Nested sub-stages, in pipeline order.
    pub children: Vec<StageReport>,
}

impl StageReport {
    /// A stage named `name` with no time or metrics yet.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    /// Sets the stage's wall time.
    pub fn wall_ns(mut self, ns: u64) -> Self {
        self.wall_ns = ns;
        self
    }

    /// Appends a rendered metric.
    pub fn metric(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.metrics.push((key.into(), value.to_string()));
        self
    }

    /// Appends a sub-stage.
    pub fn child(mut self, child: StageReport) -> Self {
        self.children.push(child);
        self
    }
}

/// The whole run: top-level stages plus any degradations the governor
/// recorded. [`fmt::Display`] renders the tree the CLI prints under
/// `--report`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineReport {
    /// Top-level stages in pipeline order.
    pub stages: Vec<StageReport>,
    /// Rendered governor degradations (empty = every stage completed).
    pub degradations: Vec<String>,
}

impl PipelineReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a top-level stage.
    pub fn stage(mut self, stage: StageReport) -> Self {
        self.stages.push(stage);
        self
    }

    /// Whether no stage degraded.
    pub fn is_complete(&self) -> bool {
        self.degradations.is_empty()
    }
}

/// Renders nanoseconds as a right-aligned human duration.
fn fmt_wall(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn render(stage: &StageReport, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", stage.name);
    write!(f, "{label:<32} {:>10}", fmt_wall(stage.wall_ns))?;
    if !stage.metrics.is_empty() {
        let rendered: Vec<String> = stage.metrics.iter().map(|(k, v)| format!("{k}={v}")).collect();
        write!(f, "  {}", rendered.join(" "))?;
    }
    writeln!(f)?;
    for child in &stage.children {
        render(child, depth + 1, f)?;
    }
    Ok(())
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pipeline report")?;
        for stage in &self.stages {
            render(stage, 1, f)?;
        }
        if self.degradations.is_empty() {
            writeln!(f, "  degradations: none")
        } else {
            writeln!(f, "  degradations:")?;
            for d in &self.degradations {
                writeln!(f, "    {d}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineReport {
        PipelineReport::new()
            .stage(
                StageReport::new("synthesis")
                    .wall_ns(12_345_678)
                    .metric("work_units", 9000)
                    .child(
                        StageReport::new("structure_learning")
                            .wall_ns(8_000_000)
                            .metric("ci_cache_hit_rate", "63.2%"),
                    )
                    .child(StageReport::new("mec_enumeration").wall_ns(900).metric("dags", 2)),
            )
            .stage(StageReport::new("detect").wall_ns(2_500))
    }

    #[test]
    fn display_renders_tree_with_metrics_and_times() {
        let text = sample().to_string();
        assert!(text.starts_with("pipeline report\n"), "{text}");
        assert!(text.contains("synthesis"), "{text}");
        assert!(text.contains("12.35 ms"), "{text}");
        assert!(text.contains("ci_cache_hit_rate=63.2%"), "{text}");
        assert!(text.contains("dags=2"), "{text}");
        assert!(text.contains("900 ns"), "{text}");
        assert!(text.contains("2.5 µs"), "{text}");
        assert!(text.contains("degradations: none"), "{text}");
        // Children indent one level deeper than their parent.
        let synth_line = text.lines().find(|l| l.contains("synthesis")).unwrap();
        let child_line = text.lines().find(|l| l.contains("mec_enumeration")).unwrap();
        let lead = |s: &str| s.len() - s.trim_start().len();
        assert_eq!(lead(child_line), lead(synth_line) + 2);
    }

    #[test]
    fn degradations_render_and_flip_completeness() {
        let mut report = sample();
        assert!(report.is_complete());
        report.degradations.push("pc_skeleton: deadline expired after 120 work units".into());
        assert!(!report.is_complete());
        let text = report.to_string();
        assert!(text.contains("degradations:\n    pc_skeleton: deadline expired"), "{text}");
    }
}
