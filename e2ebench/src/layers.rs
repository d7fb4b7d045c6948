//! The traced run's layer replays.
//!
//! After an operation has gone through the real entry point (a CLI
//! command or a daemon round trip), the traced run repeats its work
//! in-process, one public call per layer, each inside a span whose parent
//! is the operation's span. The replay times give the per-layer metrics;
//! the attributed time over the operation's wall time gives its
//! `coverage.<op>`.

use crate::spans::Spans;
use guardrail::core::{Guardrail, GuardrailConfig};
use guardrail::dsl::{CompiledProgram, IncrementalDetector};
use guardrail::governor::Budget;
use guardrail::obs::json;
use guardrail::server::handlers::{self, Ctx};
use guardrail::server::{parse_request, proto, Request};
use guardrail::sqlexec::{Catalog, Executor};
use guardrail::table::{Table, TableSource, TableStore};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer samples, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The samples of `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// The op span for an operation measured at its entry point.
fn op_span(spans: &mut Spans, name: &str, start: Instant, wall: Duration) -> (u64, usize) {
    let op = spans.new_op();
    let root = spans.record(op, None, name, start, wall);
    (op, root)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// Replays `guardrail synth`: CSV decode, structure learning, sketch
/// fill, and the whole fit. Returns the in-process program text.
pub fn synth(
    spans: &mut Spans,
    layers: &mut Layers,
    train_csv: &Path,
    start: Instant,
    wall: Duration,
) -> Result<String, String> {
    let (op, root) = op_span(spans, "op.synth", start, wall);
    let (table, decode) =
        spans.time(op, Some(root), "table.csv_decode", || Table::from_csv_path(train_csv));
    let table = table.map_err(|e| e.to_string())?;
    let config = GuardrailConfig::default();
    let (learned, learn) = spans.time(op, Some(root), "pgm.learn", || {
        guardrail::pgm::learn_cpdag_governed(&table, &config.learn, &Budget::unlimited())
    });
    let (outcome, fill) = spans.time(op, Some(root), "synth.fill", || {
        guardrail::synth::synthesize_from_cpdag(&table, &learned.cpdag, &config)
    });
    let (guard, fit) =
        spans.time(op, Some(root), "core.fit", || Guardrail::builder().config(config).fit(&table));
    let guard = guard.map_err(|e| e.to_string())?;
    let cs = learned.cache_stats;
    layers.add("pgm.learn_ms", learn);
    layers.add("pgm.ci_cache_misses", cs.result_misses as f64);
    layers.add("pgm.ci_cache_hit_rate", ratio(cs.result_hits as f64, cs.result_misses as f64));
    layers.add("synth.fill_ms", fill);
    layers.add("synth.stmt_cache_hit_rate", outcome.cache_stats.hit_rate());
    layers.add("graph.mec_size", outcome.mec_size as f64);
    layers.add("core.fit_ms", fit);
    layers.add("core.fit_self_ms", fit - learn - fill);
    layers.add("coverage.synth", (decode + fit) / ms(wall));
    Ok(guard.program().to_string())
}

/// Replays `guardrail ingest` into `replay_dir`.
pub fn ingest(
    spans: &mut Spans,
    layers: &mut Layers,
    dirty_csv: &Path,
    replay_dir: &Path,
    start: Instant,
    wall: Duration,
) -> Result<(), String> {
    let (op, root) = op_span(spans, "op.ingest", start, wall);
    let (report, t) = spans.time(op, Some(root), "datasets.ingest", || {
        guardrail::datasets::ingest_csv(dirty_csv, replay_dir, 8192)
    });
    report.map_err(|e| e.to_string())?;
    layers.add("datasets.ingest_ms", t);
    layers.add("coverage.ingest", t / ms(wall));
    Ok(())
}

/// Replays `guardrail check --store`: store open (WAL replay), detect,
/// and the DSL compile and engine check on their own.
pub fn check_store(
    spans: &mut Spans,
    layers: &mut Layers,
    guard: &Guardrail,
    constraints: &str,
    store_dir: &Path,
    start: Instant,
    wall: Duration,
) -> Result<(), String> {
    let (op, root) = op_span(spans, "op.check_store", start, wall);
    let (program, parse) = spans
        .time(op, Some(root), "dsl.parse_program", || guardrail::dsl::parse_program(constraints));
    program.map_err(|e| e.to_string())?;
    let (store, open) =
        spans.time(op, Some(root), "table.store_open", || TableStore::open(store_dir));
    let store = store.map_err(|e| e.to_string())?;
    let (_, detect) = spans.time(op, Some(root), "core.detect", || guard.detect(&store));
    layers.add("table.store_open_ms", open);
    layers.add("table.wal_batches_replayed", store.wal_batches().len() as f64);
    layers.add("coverage.check_store", (parse + open + detect) / ms(wall));

    let (compiled, compile) = spans.time(op, Some(root), "dsl.compile", || {
        CompiledProgram::compile(guard.program(), store.table())
    });
    let compiled = compiled.map_err(|e| e.to_string())?;
    let (_, check) = spans.time(op, Some(root), "dsl.check", || compiled.check_table(&store));
    layers.add("dsl.compile_ms", compile);
    layers.add("dsl.check_ns_per_row", check * 1e6 / store.num_rows().max(1) as f64);
    layers.add("dsl.engine_fallback_statements", compiled.legacy_statement_count() as f64);
    Ok(())
}

/// Replays `guardrail check <csv>`: CSV decode and detect.
pub fn check_csv(
    spans: &mut Spans,
    layers: &mut Layers,
    guard: &Guardrail,
    constraints: &str,
    dirty_csv: &Path,
    start: Instant,
    wall: Duration,
) -> Result<(), String> {
    let (op, root) = op_span(spans, "op.check_csv", start, wall);
    let (program, parse) = spans
        .time(op, Some(root), "dsl.parse_program", || guardrail::dsl::parse_program(constraints));
    program.map_err(|e| e.to_string())?;
    let (table, decode) =
        spans.time(op, Some(root), "table.csv_decode", || Table::from_csv_path(dirty_csv));
    let table = table.map_err(|e| e.to_string())?;
    let (_, detect) = spans.time(op, Some(root), "core.detect", || guard.detect(&table));
    layers.add("table.csv_decode_ms", decode);
    layers.add("table.csv_decode_ns_per_row", decode * 1e6 / table.num_rows().max(1) as f64);
    layers.add("core.detect_ms", detect);
    layers.add("coverage.check_csv", (parse + decode + detect) / ms(wall));
    Ok(())
}

/// Replays `guardrail query`: CSV decode and SQL execution.
pub fn query(
    spans: &mut Spans,
    layers: &mut Layers,
    dirty_csv: &Path,
    sql: &str,
    start: Instant,
    wall: Duration,
) -> Result<(), String> {
    let (op, root) = op_span(spans, "op.query", start, wall);
    let (table, decode) =
        spans.time(op, Some(root), "table.csv_decode", || Table::from_csv_path(dirty_csv));
    let table = table.map_err(|e| e.to_string())?;
    let stem = dirty_csv.file_stem().and_then(|s| s.to_str()).unwrap_or("t").to_string();
    let mut catalog = Catalog::new();
    catalog.add_table(stem, table);
    let exec = Executor::new(&catalog);
    let (out, run) = spans.time(op, Some(root), "sqlexec.run", || exec.run(sql));
    let out = out.map_err(|e| e.to_string())?;
    layers.add("sqlexec.run_ms", run);
    layers.add(
        "sqlexec.rows_after_pushdown_per_row_returned",
        out.stats.rows_after_pushdown as f64 / out.table.num_rows().max(1) as f64,
    );
    layers.add("coverage.query", (decode + run) / ms(wall));
    Ok(())
}

/// Parses and handles one frame on the in-process server; returns the
/// parse and handle times in milliseconds and the response line.
fn serve_frame(
    spans: &mut Spans,
    op: u64,
    root: usize,
    ctx: &Ctx,
    frame: &str,
    handle_span: &str,
) -> Result<(f64, f64, String), String> {
    let (req, parse) = spans.time(op, Some(root), "server.parse_request", || parse_request(frame));
    let req: Request = req.map_err(|e| e.message)?;
    let ((line, _), handle) =
        spans.time(op, Some(root), handle_span, || handlers::handle(ctx, &req));
    Ok((parse, handle, line))
}

/// Replays a daemon `fit` on the in-process server.
pub fn fit(
    spans: &mut Spans,
    layers: &mut Layers,
    ctx: &Ctx,
    frame: &str,
    start: Instant,
    rt: Duration,
) -> Result<(), String> {
    let (op, root) = op_span(spans, "op.fit", start, rt);
    let (parse, handle, _) = serve_frame(spans, op, root, ctx, frame, "server.handle_fit")?;
    layers.add("server.parse_request_ms", parse);
    layers.add("server.handle_fit_ms", handle);
    layers.add("server.unattributed_ms", ms(rt) - parse - handle);
    layers.add("coverage.fit", (parse + handle) / ms(rt));
    Ok(())
}

/// Replays a daemon `detect`: the JSON parse on its own, request parse,
/// the handler, and the violation rendering.
#[allow(clippy::too_many_arguments)]
pub fn detect(
    spans: &mut Spans,
    layers: &mut Layers,
    ctx: &Ctx,
    guard: &Guardrail,
    frame: &str,
    table: &Table,
    start: Instant,
    rt: Duration,
) -> Result<(), String> {
    let (op, root) = op_span(spans, "op.detect", start, rt);
    let (doc, parse_json) = spans.time(op, Some(root), "obs.json_parse", || json::parse(frame));
    doc?;
    layers.add("obs.json_parse_ns_per_byte.large", parse_json * 1e6 / frame.len() as f64);
    let (parse, handle, _) = serve_frame(spans, op, root, ctx, frame, "server.handle_detect")?;
    layers.add("server.parse_request_ms", parse);
    layers.add("server.handle_detect_ms", handle);
    layers.add("server.unattributed_ms", ms(rt) - parse - handle);
    layers.add("coverage.detect", (parse + handle) / ms(rt));
    let report = guard.detect(table);
    let (body, render) = spans.time(op, Some(root), "server.render", || {
        proto::violations_jval(&report.violations).to_json()
    });
    layers.add("server.render_ms", render);
    layers.add("server.response_bytes", body.len() as f64);
    Ok(())
}

/// Times `obs::json::parse` on the small frame.
pub fn small_json(spans: &mut Spans, layers: &mut Layers, frame: &str) -> Result<(), String> {
    let op = spans.new_op();
    let (doc, t) = spans.time(op, None, "obs.json_parse", || json::parse(frame));
    doc?;
    layers.add("obs.json_parse_ns_per_byte.small", t * 1e6 / frame.len() as f64);
    Ok(())
}

/// A store and incremental detector mirroring the daemon's, for the
/// `table.store_append_ms` and `dsl.incremental_detect_ms` layers.
#[derive(Debug)]
pub struct Mirror {
    store: TableStore,
    detector: Option<IncrementalDetector>,
}

impl Mirror {
    /// Creates the mirror store at `dir` from the first batch.
    pub fn create(dir: &Path, first_csv: &str, guard: &Guardrail) -> Result<Mirror, String> {
        let first = Table::from_csv_str(first_csv).map_err(|e| e.to_string())?;
        let store = TableStore::create(dir, &first).map_err(|e| e.to_string())?;
        let detector = guard.incremental(&store);
        Ok(Mirror { store, detector })
    }
}

/// Replays one append + `detect_batch` pair: both frames on the
/// in-process server, and the store append and incremental detect on the
/// mirror.
#[allow(clippy::too_many_arguments)]
pub fn pair(
    spans: &mut Spans,
    layers: &mut Layers,
    ctx: &Ctx,
    mirror: &mut Mirror,
    append_frame: &str,
    batch_frame: &str,
    batch_csv: &str,
    start: Instant,
    rt: Duration,
) -> Result<(), String> {
    let (op, root) = op_span(spans, "op.pair", start, rt);
    let (p1, h1, _) = serve_frame(spans, op, root, ctx, append_frame, "server.handle_append")?;
    let (p2, h2, _) = serve_frame(spans, op, root, ctx, batch_frame, "server.handle_detect_batch")?;
    layers.add("server.parse_request_ms", p1);
    layers.add("server.parse_request_ms", p2);
    layers.add("server.handle_append_ms", h1);
    layers.add("server.handle_detect_batch_ms", h2);
    layers.add("server.unattributed_ms", (ms(rt) - p1 - h1 - p2 - h2) / 2.0);
    layers.add("coverage.pair", (p1 + h1 + p2 + h2) / ms(rt));

    let batch = Table::from_csv_str(batch_csv).map_err(|e| e.to_string())?;
    let (appended, append) =
        spans.time(op, Some(root), "table.store_append", || mirror.store.append_table(&batch));
    appended.map_err(|e| e.to_string())?;
    layers.add("table.store_append_ms", append);
    if let Some(det) = mirror.detector.as_mut() {
        let store = &mirror.store;
        let (scan, t) = spans.time(op, Some(root), "dsl.incremental_detect", || {
            det.detect_appended(store, &Budget::unlimited())
        });
        let scan = scan.map_err(|e| e.to_string())?;
        layers.add("dsl.incremental_detect_ms", t);
        layers.add(
            "dsl.rows_probed_per_row_appended",
            scan.rows_probed as f64 / batch.num_rows().max(1) as f64,
        );
    }
    Ok(())
}
