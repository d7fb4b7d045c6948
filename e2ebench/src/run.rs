//! One benchmark run: set-up, rounds of CLI and daemon cycles, the
//! correctness gate, and the metrics.

use crate::calib::Calibration;
use crate::check::{self, frame, Failure, Key, Ledger};
use crate::inputs::{self, Fnv, Inputs, Shape, PAIR_ROWS};
use crate::layers::{self, Layers, Mirror};
use crate::program::{clear_dir, connect, dir_bytes, fresh_dir, request, run_cli, CliRun, Daemon};
use crate::spans::Spans;
use crate::stats::{median, tail};
use guardrail::core::Guardrail;
use guardrail::obs::json::Json;
use guardrail::server::chaos::Client;
use guardrail::server::handlers::Ctx;
use guardrail::server::{Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times one run sets up its inputs (`setup_s` is the median).
pub const SETUPS: usize = 5;

/// Fewest detect and pair samples an untraced run collects, so that the
/// tail (ten samples beyond) sits well above the median.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub shape: Shape,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// The release `guardrail` binary.
    pub bin: PathBuf,
    /// Scratch directory of this run (created and emptied here).
    pub work: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Attempted and failed operations.
    pub ledger: Ledger,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Per timing series: sample count, median, tail and its percentile;
    /// plus the stream throughput and the failed share.
    pub samples: BTreeMap<String, f64>,
    /// Spans of the traced run.
    pub spans: Spans,
}

/// Raw samples of one run.
#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    /// Wall seconds of each passed operation, by operation: untraced
    /// rounds at index 0, traced rounds at index 1.
    walls: [BTreeMap<&'static str, Vec<f64>>; 2],
    stream_rows: u64,
    stream_s: f64,
    reopen_s: Vec<f64>,
    rss_mb: Vec<f64>,
    store_ratio: Vec<f64>,
}

/// The CLI-side reference: the first synthesized program and the `check`
/// output it implies on the generated dirty table.
#[derive(Debug)]
struct Reference {
    text: String,
    guard: Guardrail,
    check_lines: String,
    check_count: usize,
}

/// The daemon-side reference: the program `fit` returned and the
/// violations it implies on every frame.
#[derive(Debug)]
struct ServeReference {
    text: String,
    guard: Guardrail,
    detects: Vec<Vec<Key>>,
    /// Violations over the whole appended stream, keyed by store row.
    stream: Vec<Key>,
}

struct Run<'a> {
    cfg: &'a RunConfig,
    inputs: Inputs,
    ledger: Ledger,
    s: Samples,
    layers: Layers,
    spans: Spans,
    cli_ref: Option<Reference>,
    serve_ref: Option<ServeReference>,
    inproc: Option<ServerHandle>,
    calib: Calibration,
}

type OpResult = Result<(), (Failure, String)>;

fn unexpected<T>(r: Result<T, String>) -> Result<T, (Failure, String)> {
    r.map_err(|e| (Failure::Unexpected, e))
}

/// Checks a CLI exit code.
fn exited(r: &CliRun, op: &str, want: i32) -> OpResult {
    if r.code == want {
        Ok(())
    } else {
        let stderr = r.stderr.trim();
        Err((Failure::Unexpected, format!("{op} exited {} (want {want}): {stderr}", r.code)))
    }
}

/// Runs one workload end to end.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let data = fresh_dir(cfg.work.join("data"))?;
    let mut calib = Calibration::default();
    let mut setup_s = Vec::new();
    let mut first_digest = None;
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let generated = inputs::generate(&cfg.shape, cfg.seed, &data)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let d = inputs::digest(&generated);
        if *first_digest.get_or_insert(d) != d {
            return Err("the same seed generated different inputs".into());
        }
        inputs = Some(generated);
        calib.sample();
    }
    let mut run = Run {
        cfg,
        inputs: inputs.expect("at least one set-up"),
        ledger: Ledger::default(),
        s: Samples { setup_s, ..Samples::default() },
        layers: Layers::default(),
        spans: Spans::default(),
        cli_ref: None,
        serve_ref: None,
        inproc: None,
        calib,
    };
    // Each round runs the CLI cycle and then the daemon cycle, and rounds
    // repeat until the time is up: every operation is sampled across the
    // whole run, so a slow stretch of the host weighs on all metrics alike
    // instead of on whichever phase it hit. A traced run alternates
    // untraced and traced rounds, so the tracing overhead is measured
    // against the same run's untraced operations.
    let end = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let min_rounds = if cfg.trace { 2 } else { 3 };
    let mut round = 0;
    let mut last = Duration::ZERO;
    // A round that would mostly run past the end is not started.
    while round < min_rounds || Instant::now() + last / 2 < end || !run.enough_samples() {
        let traced = cfg.trace && round % 2 == 1;
        let round_start = Instant::now();
        run.cli_cycle(traced)?;
        run.serve_cycle(round, traced)?;
        last = round_start.elapsed();
        round += 1;
    }
    if let Some(server) = run.inproc.take() {
        server.shutdown();
    }
    let metrics = if cfg.trace { run.layer_metrics()? } else { run.e2e_metrics()? };
    let samples = run.sample_summary();
    Ok(RunReport { ledger: run.ledger, metrics, samples, spans: run.spans })
}

impl Run<'_> {
    fn enough_samples(&self) -> bool {
        let n = |op| self.s.walls[0].get(op).map_or(0, Vec::len);
        // The traced run reports no tails.
        self.cfg.trace
            || (n("detect") >= MIN_TAIL_SAMPLES
                && n("pair") >= MIN_TAIL_SAMPLES
                && self.s.reopen_s.len() >= 3)
    }

    /// Samples the host speed in an untraced round. Every call site sits
    /// where no program process is alive: between CLI commands, and
    /// before the first daemon of a cycle starts or after its last exits.
    fn calibrate(&mut self, traced: bool) {
        if !traced {
            self.calib.sample();
        }
    }

    fn bin(&self) -> &Path {
        &self.cfg.bin
    }

    /// Books one operation. A passed one adds its wall time to the round's
    /// samples and, in a traced round, runs its in-process replay, whose
    /// failure fails the operation. Returns whether it passed.
    fn book(
        &mut self,
        op: &'static str,
        traced: bool,
        wall: Duration,
        outcome: OpResult,
        replay: impl FnOnce(&mut Self) -> Result<(), String>,
    ) -> bool {
        let outcome = outcome.and_then(|()| {
            self.s.walls[traced as usize].entry(op).or_default().push(wall.as_secs_f64());
            if traced {
                unexpected(replay(self))
            } else {
                Ok(())
            }
        });
        let passed = outcome.is_ok();
        self.ledger.record(outcome);
        passed
    }

    // ---------------------------------------------------------------- CLI

    /// One `synth`, then `cli_repeats` passes of `ingest`, both checks and
    /// `query` against its constraints.
    fn cli_cycle(&mut self, traced: bool) -> Result<(), String> {
        let work = self.cfg.work.clone();
        let constraints = work.join("constraints.gr");
        let train = self.inputs.train_csv.clone();
        let arg = |p: &Path| p.to_string_lossy().into_owned();

        self.calibrate(traced);
        let t = Instant::now();
        let r =
            run_cli(self.bin(), &["synth", &arg(&train), "--output", &arg(&constraints)], &work)?;
        let outcome = exited(&r, "synth", 0).and_then(|()| self.check_synth(&constraints));
        self.book("synth", traced, r.wall, outcome, |run| {
            let text = layers::synth(&mut run.spans, &mut run.layers, &train, t, r.wall)?;
            match &run.cli_ref {
                Some(c) if c.text == text => Ok(()),
                _ => Err("synth: the CLI program differs from an in-process fit".into()),
            }
        });
        let Some(reference) = &self.cli_ref else {
            return Err("synth produced no constraints; nothing to check against".into());
        };
        let constraints_text = reference.text.clone();
        for _ in 0..self.cfg.shape.cli_repeats {
            self.cli_checks(traced, &constraints, &constraints_text)?;
        }
        Ok(())
    }

    fn cli_checks(
        &mut self,
        traced: bool,
        constraints: &Path,
        constraints_text: &str,
    ) -> Result<(), String> {
        let work = self.cfg.work.clone();
        let store = work.join("store");
        let dirty = self.inputs.dirty_csv.clone();
        let arg = |p: &Path| p.to_string_lossy().into_owned();

        clear_dir(&store)?;
        self.calibrate(traced);
        let t = Instant::now();
        let r = run_cli(self.bin(), &["ingest", &arg(&dirty), "--store", &arg(&store)], &work)?;
        let want = format!("store now {} row(s)", self.cfg.shape.dirty_rows);
        let outcome = exited(&r, "ingest", 0).and_then(|()| {
            if r.stderr.contains(&want) {
                Ok(())
            } else {
                let got = r.stderr.trim();
                Err((Failure::Unexpected, format!("ingest: expected {want:?} in {got:?}")))
            }
        });
        let store_bytes = dir_bytes(&store) as f64;
        let ingested = self.book("ingest", traced, r.wall, outcome, |run| {
            run.layers.add("table.store_bytes", store_bytes);
            let replay = run.cfg.work.join("store_replay");
            clear_dir(&replay)?;
            let res = layers::ingest(&mut run.spans, &mut run.layers, &dirty, &replay, t, r.wall);
            clear_dir(&replay)?;
            res
        });
        if ingested && !traced && self.cfg.shape.cli_led {
            self.s.store_ratio.push(store_bytes / self.inputs.dirty_csv_bytes as f64);
        }

        for (op, source) in [
            ("check_store", vec!["--store".to_string(), arg(&store)]),
            ("check_csv", vec![arg(&dirty)]),
        ] {
            let mut argv = vec!["check".to_string()];
            argv.extend(source);
            argv.extend(["--constraints".to_string(), arg(constraints)]);
            let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
            self.calibrate(traced);
            let t = Instant::now();
            let r = run_cli(self.bin(), &argv, &work)?;
            let reference = self.cli_ref.as_ref().expect("a reference after synth");
            // Both checks must print exactly the in-process violations, so
            // they also agree with each other.
            let outcome = exited(&r, op, i32::from(reference.check_count > 0)).and_then(|()| {
                if r.stdout == reference.check_lines {
                    Ok(())
                } else {
                    let (got, want) = (r.stdout.lines().count(), reference.check_count);
                    let why =
                        format!("{op}: {got} violation line(s), in-process detect finds {want}");
                    Err((Failure::Unexpected, why))
                }
            });
            self.book(op, traced, r.wall, outcome, |run| {
                let guard = &run.cli_ref.as_ref().expect("a reference after synth").guard;
                let (spans, layers) = (&mut run.spans, &mut run.layers);
                if op == "check_store" {
                    layers::check_store(spans, layers, guard, constraints_text, &store, t, r.wall)
                } else {
                    layers::check_csv(spans, layers, guard, constraints_text, &dirty, t, r.wall)
                }
            });
        }
        clear_dir(&store)?;

        let sql = self.inputs.query.sql.clone();
        self.calibrate(traced);
        let t = Instant::now();
        let r = run_cli(self.bin(), &["query", &arg(&dirty), "--sql", &sql], &work)?;
        let outcome = exited(&r, "query", 0).and_then(|()| match parse_counts(&r.stdout) {
            Ok(got) if got == self.inputs.query.expected => Ok(()),
            Ok(_) => {
                Err((Failure::Unexpected, "query: counts differ from the generated rows".into()))
            }
            Err(e) => Err((Failure::Unexpected, format!("query: {e}"))),
        });
        self.book("query", traced, r.wall, outcome, |run| {
            layers::query(&mut run.spans, &mut run.layers, &dirty, &sql, t, r.wall)
        });
        Ok(())
    }

    /// Checks `synth`'s constraints: the first ones become the reference,
    /// every later one must equal them, and each must pass
    /// [`check_program`] against the workload's pinned digest.
    fn check_synth(&mut self, constraints: &Path) -> OpResult {
        let text = unexpected(std::fs::read_to_string(constraints).map_err(|e| e.to_string()))?;
        if let Some(r) = &self.cli_ref {
            if r.text != text {
                let why = "synth: constraints differ within one seed".to_string();
                return Err((Failure::Unexpected, why));
            }
        } else {
            let program =
                unexpected(guardrail::dsl::parse_program(&text).map_err(|e| e.to_string()))?;
            let guard = Guardrail::from_program(program);
            let report = guard.detect(&self.inputs.dirty);
            self.cli_ref = Some(Reference {
                text: text.clone(),
                check_lines: check::check_lines(&report.violations),
                check_count: report.violations.len(),
                guard,
            });
        }
        unexpected(check_program("synth", &text, self.cfg.shape.pins.synth))
    }

    // -------------------------------------------------------------- daemon

    /// Two daemon sessions on one fresh store: fit, the detect frames and
    /// the first half of the pairs; then a restart, a re-fit, and the
    /// second half of the pairs into the reopened store.
    fn serve_cycle(&mut self, cycle: usize, traced: bool) -> Result<(), String> {
        let table = format!("t{cycle}");
        let store_root = self.cfg.work.join("stores");
        std::fs::create_dir_all(&store_root).map_err(|e| e.to_string())?;
        let half = self.cfg.shape.pairs_per_session;
        let mut mirror = None;

        self.calibrate(traced);
        let daemon = Daemon::spawn(self.bin(), &store_root)?;
        let mut conn = connect(daemon.addr())?;
        self.fit(&mut conn, &table, traced)?;
        for i in 0..self.inputs.detects.len() {
            self.detect(&mut conn, &table, i, traced)?;
        }
        if traced {
            let f = frame("detect", &table, Some(&self.inputs.small.csv));
            layers::small_json(&mut self.spans, &mut self.layers, &f)?;
        }
        for i in 0..half {
            self.pair(&mut conn, &table, i, i == 0, traced, &mut mirror)?;
        }
        self.shutdown(conn, daemon)?;

        let t0 = Instant::now();
        let daemon = Daemon::spawn(self.bin(), &store_root)?;
        let mut conn = connect(daemon.addr())?;
        self.fit(&mut conn, &table, traced)?;
        let mut reopened = false;
        for i in half..2 * half {
            let passed = self.pair(&mut conn, &table, i, i == half, traced, &mut mirror)?;
            if passed && !reopened {
                reopened = true;
                if !traced {
                    self.s.reopen_s.push(t0.elapsed().as_secs_f64());
                }
            }
        }
        let dir = store_root.join(check::TENANT).join(&table);
        if !traced && !self.cfg.shape.cli_led {
            let appended: usize = self.inputs.batches.iter().map(|b| b.csv.len()).sum();
            self.s.store_ratio.push(dir_bytes(&dir) as f64 / appended as f64);
        }
        self.shutdown(conn, daemon)?;
        self.calibrate(traced);
        clear_dir(&dir)
    }

    fn shutdown(&mut self, mut conn: Client, daemon: Daemon) -> Result<(), String> {
        let rss = daemon.peak_rss_mb().ok_or("could not read the daemon's VmHWM")?;
        let outcome = request(&mut conn, &frame("shutdown", "default", None))
            .and_then(|(line, _)| check::ok_response(&line, "shutdown").map(|_| ()));
        drop(conn);
        let exit = daemon.wait_exit(Duration::from_secs(20));
        let outcome = outcome.and_then(|()| match exit {
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(format!("daemon exited with {status}")),
            Err(e) => Err(e),
        });
        if outcome.is_ok() {
            self.s.rss_mb.push(rss);
        }
        self.ledger.record(unexpected(outcome));
        Ok(())
    }

    /// The in-process server the traced rounds replay frames on.
    fn inproc_ctx(&mut self) -> Result<Arc<Ctx>, String> {
        if self.inproc.is_none() {
            let root = fresh_dir(self.cfg.work.join("inproc_stores"))?;
            let config = ServerConfig { store_root: Some(root), ..ServerConfig::default() };
            self.inproc =
                Some(Server::spawn(config).map_err(|e| format!("in-process server: {e}"))?);
        }
        Ok(Arc::clone(self.inproc.as_ref().expect("spawned above").ctx()))
    }

    fn fit(&mut self, conn: &mut Client, table: &str, traced: bool) -> Result<(), String> {
        let f = frame("fit", table, Some(&self.inputs.fit.csv));
        let start = Instant::now();
        let (line, rt) = request(conn, &f)?;
        let outcome = unexpected(check::ok_response(&line, "fit").and_then(|doc| {
            let text =
                doc.get("constraints").and_then(Json::as_str).ok_or("fit: no constraints")?;
            self.serve_reference(text)
        }));
        self.book("fit", traced, rt, outcome, |run| {
            let ctx = run.inproc_ctx()?;
            layers::fit(&mut run.spans, &mut run.layers, &ctx, &f, start, rt)
        });
        Ok(())
    }

    /// Checks `fit`'s constraints: the first ones become the reference,
    /// every later fit of the same frame must return the same, and each
    /// must pass [`check_program`] against the workload's pinned digest.
    fn serve_reference(&mut self, text: &str) -> Result<(), String> {
        if let Some(r) = &self.serve_ref {
            if r.text != text {
                return Err("fit: constraints differ between fits of one frame".into());
            }
        } else {
            self.serve_ref = Some(self.new_serve_reference(text)?);
        }
        check_program("fit", text, self.cfg.shape.pins.fit)
    }

    fn new_serve_reference(&self, text: &str) -> Result<ServeReference, String> {
        let program = guardrail::dsl::parse_program(text).map_err(|e| e.to_string())?;
        let guard = Guardrail::from_program(program);
        let detects = self
            .inputs
            .detects
            .iter()
            .map(|p| check::keys(&guard.detect(&p.table).violations, 0))
            .collect();
        let stream = check::keys(&guard.detect(&self.inputs.stream).violations, 0);
        Ok(ServeReference { text: text.to_string(), guard, detects, stream })
    }

    fn detect(
        &mut self,
        conn: &mut Client,
        table: &str,
        i: usize,
        traced: bool,
    ) -> Result<(), String> {
        let f = frame("detect", table, Some(&self.inputs.detects[i].csv));
        let start = Instant::now();
        let (line, rt) = request(conn, &f)?;
        let reference = self.serve_ref.as_ref().ok_or("detect before a successful fit")?;
        let outcome = unexpected(check::ok_response(&line, "detect").and_then(|doc| {
            if check::wire_keys(&doc)? == reference.detects[i] {
                Ok(())
            } else {
                Err("detect: violations differ from an in-process detect".into())
            }
        }));
        self.book("detect", traced, rt, outcome, |run| {
            let ctx = run.inproc_ctx()?;
            let guard = &run.serve_ref.as_ref().expect("checked above").guard;
            let payload = &run.inputs.detects[i].table;
            layers::detect(&mut run.spans, &mut run.layers, &ctx, guard, &f, payload, start, rt)
        });
        Ok(())
    }

    /// One append + `detect_batch` pair of stream batch `i`: two
    /// operations. Returns whether the `detect_batch` passed.
    fn pair(
        &mut self,
        conn: &mut Client,
        table: &str,
        i: usize,
        first_after_fit: bool,
        traced: bool,
        mirror: &mut Option<Mirror>,
    ) -> Result<bool, String> {
        let batch_csv = self.inputs.batches[i].csv.clone();
        let append = frame("append", table, Some(&batch_csv));
        let batch_frame = frame("detect_batch", table, None);
        let start = Instant::now();
        let (a_line, a_rt) = request(conn, &append)?;
        let (d_line, d_rt) = request(conn, &batch_frame)?;
        let rt = start.elapsed();

        let appended = unexpected(check::ok_response(&a_line, "append").and_then(|doc| {
            match doc.get("rows_appended").and_then(Json::as_u64) {
                Some(n) if n as usize == PAIR_ROWS => Ok(()),
                other => Err(format!("append: rows_appended {other:?}, sent {PAIR_ROWS}")),
            }
        }));
        let append_ok = self.book("append", traced, a_rt, appended, |_| Ok(()));

        let reference = self.serve_ref.as_ref().ok_or("detect_batch before a successful fit")?;
        let detected = check_detect_batch(&d_line, reference, i, first_after_fit);
        let passed = self.book("pair", traced, rt, detected, |run| {
            if !append_ok {
                return Ok(());
            }
            let ctx = run.inproc_ctx()?;
            if mirror.is_none() {
                let dir = fresh_dir(run.cfg.work.join("mirror"))?.join(table);
                let guard = &run.serve_ref.as_ref().expect("checked above").guard;
                *mirror = Some(Mirror::create(&dir, &run.inputs.batches[0].csv, guard)?);
            }
            let m = mirror.as_mut().expect("created above");
            let (spans, layers) = (&mut run.spans, &mut run.layers);
            layers::pair(spans, layers, &ctx, m, &append, &batch_frame, &batch_csv, start, rt)
        });
        if append_ok && passed && !traced {
            self.s.stream_rows += PAIR_ROWS as u64;
            self.s.stream_s += (a_rt + d_rt).as_secs_f64();
        }
        Ok(passed)
    }

    // ------------------------------------------------------------- metrics

    /// The end-to-end metrics. Every time is a median divided by the
    /// run's host factor (see [`crate::calib`]), so it reads as the time at
    /// the reference host speed; the raw medians are on the metadata line.
    fn e2e_metrics(&self) -> Result<Vec<Metric>, String> {
        let s = &self.s;
        let host = self.calib.host_factor().ok_or("no calibration samples")?;
        let med = |name: &str, v: Option<&Vec<f64>>| {
            v.and_then(|v| median(v)).map(|t| t / host).ok_or(format!("no samples for {name}"))
        };
        let raw = |name: &str, v: &[f64]| median(v).ok_or(format!("no samples for {name}"));
        let op = |name: &str| med(name, s.walls[0].get(name));
        let rows = self.cfg.shape.dirty_rows as f64;
        let fit = if self.cfg.shape.cli_led { op("synth")? } else { op("fit")? };
        let m = |name, value, unit| Metric { name, value, unit };
        Ok(vec![
            m("setup_s", med("setup", Some(&s.setup_s))?, "s"),
            m("fit_s", fit, "s"),
            m("ingest_rows_per_s", rows / op("ingest")?, "rows/s"),
            m("check_csv_rows_per_s", rows / op("check_csv")?, "rows/s"),
            m("check_store_rows_per_s", rows / op("check_store")?, "rows/s"),
            m("query_s", op("query")?, "s"),
            m("store_bytes_per_csv_byte", raw("store ratio", &s.store_ratio)?, "B/B"),
            m("detect_p50_ms", op("detect")? * 1e3, "ms"),
            m("pair_p50_ms", op("pair")? * 1e3, "ms"),
            m("reopen_s", med("reopen", Some(&s.reopen_s))?, "s"),
            m("daemon_rss_mb", raw("daemon rss", &s.rss_mb)?, "MiB"),
        ])
    }

    fn layer_metrics(&self) -> Result<Vec<Metric>, String> {
        let mut out = Vec::new();
        for &(name, unit) in LAYER_METRICS {
            let value = match name {
                "obs.json_scaling" => {
                    let large = median(self.layers.get("obs.json_parse_ns_per_byte.large"));
                    let small = median(self.layers.get("obs.json_parse_ns_per_byte.small"));
                    large.zip(small).map(|(l, s)| l / s)
                }
                "trace.overhead_share" => self.overhead(),
                // Frames of very different sizes share these two, so
                // they are means per frame, not medians.
                "server.parse_request_ms" | "server.unattributed_ms" => {
                    let v = self.layers.get(name);
                    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
                }
                _ => median(self.layers.get(name)),
            };
            let value = value.ok_or(format!("the traced run measured no {name}"))?;
            out.push(Metric { name, value, unit });
        }
        Ok(out)
    }

    /// Traced over untraced wall time of the same operations, minus 1:
    /// per operation the median wall in each mode, summed over operations.
    fn overhead(&self) -> Option<f64> {
        let (mut untraced, mut traced) = (0.0, 0.0);
        for (op, walls) in &self.s.walls[1] {
            untraced += median(self.s.walls[0].get(op)?)?;
            traced += median(walls)?;
        }
        (untraced > 0.0).then(|| traced / untraced - 1.0)
    }

    /// Every timing series as its sample count, raw median, and tail (the
    /// highest percentile with ten samples beyond it, and which
    /// percentile that is), the calibration kernels' times and the host
    /// factor, plus the stream throughput and the failed share. The tails
    /// and the throughput are too unsteady from run to run to gate on, so
    /// they are reported here instead of as metrics.
    fn sample_summary(&self) -> BTreeMap<String, f64> {
        let s = &self.s;
        let [calib_cpu, calib_alloc] = self.calib.samples();
        let mut m = BTreeMap::new();
        let series = s.walls[0].iter().map(|(op, v)| (format!("{op}_s"), v)).chain([
            ("setup_s".to_string(), &s.setup_s),
            ("reopen_s".to_string(), &s.reopen_s),
            ("daemon_rss_mb".to_string(), &s.rss_mb),
            ("calib_cpu_s".to_string(), calib_cpu),
            ("calib_alloc_s".to_string(), calib_alloc),
        ]);
        for (k, v) in series {
            m.insert(format!("{k}.samples"), v.len() as f64);
            if let Some(p50) = median(v) {
                m.insert(format!("{k}.p50"), p50);
            }
            if let Some(t) = tail(v) {
                m.insert(format!("{k}.tail"), t.value);
                m.insert(format!("{k}.tail_percentile"), t.percentile);
            }
        }
        if let Some(host) = self.calib.host_factor() {
            m.insert("host_factor".into(), host);
        }
        if s.stream_s > 0.0 {
            m.insert("stream_rows_per_s".into(), s.stream_rows as f64 / s.stream_s);
        }
        let l = &self.ledger;
        m.insert("failed_ops_share".into(), l.failed as f64 / l.attempted.max(1) as f64);
        m
    }
}

/// Checks a synthesized program: an empty one detects nothing, so every
/// check against it would pass vacuously; and since the training table is
/// the same for every seed, the constraints must hash to the workload's
/// pinned digest.
fn check_program(op: &str, text: &str, pin: u64) -> Result<(), String> {
    // The CLI and the daemon write a program as its `Display` text, which
    // is empty exactly when the program has no statements.
    if text.trim().is_empty() {
        return Err(format!("{op}: empty program"));
    }
    let digest = Fnv::of(text.as_bytes());
    if digest == pin {
        Ok(())
    } else {
        Err(format!("{op}: constraints digest {digest:016x}, pinned {pin:016x}"))
    }
}

/// Checks one `detect_batch` response for stream batch `i` against the
/// in-process detect over the whole stream.
fn check_detect_batch(
    line: &str,
    reference: &ServeReference,
    i: usize,
    first_after_fit: bool,
) -> OpResult {
    let doc = unexpected(check::ok_response(line, "detect_batch"))?;
    let scanned = doc.get("rows_scanned").and_then(Json::as_u64).unwrap_or(0) as usize;
    let got = unexpected(check::wire_keys(&doc))?;
    let (lo, hi) = (i * PAIR_ROWS, (i + 1) * PAIR_ROWS);
    let in_batch: Vec<&Key> =
        reference.stream.iter().filter(|k| (lo..hi).contains(&(k.0 as usize))).collect();
    if scanned == 0 && first_after_fit {
        let reported = in_batch.iter().filter(|k| got.contains(k)).count();
        return Err((
            Failure::ColdDetector,
            format!(
                "first detect_batch after fit: rows_scanned 0, {reported} of {} violation(s) \
                 of the appended batch reported (known cold-detector defect)",
                in_batch.len()
            ),
        ));
    }
    if scanned < PAIR_ROWS {
        let why = format!("detect_batch: rows_scanned {scanned} < {PAIR_ROWS} appended");
        return Err((Failure::Unexpected, why));
    }
    // A recompiling pass may re-report earlier rows' violations, so a
    // response must cover its batch and stay within the rows seen so far.
    let covers = in_batch.iter().all(|k| got.contains(k));
    let within = got.iter().all(|k| (k.0 as usize) < hi && reference.stream.contains(k));
    if !covers || !within {
        let why = "detect_batch: violations differ from an in-process detect".to_string();
        return Err((Failure::Unexpected, why));
    }
    Ok(())
}

/// Parses `guardrail query` output of a `key,count` result.
fn parse_counts(stdout: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut lines = stdout.lines();
    lines.next().ok_or("empty output")?;
    let mut out = BTreeMap::new();
    for line in lines {
        let (k, n) = line.rsplit_once(',').ok_or(format!("bad row {line:?}"))?;
        out.insert(k.to_string(), n.parse().map_err(|_| format!("bad count in {line:?}"))?);
    }
    Ok(out)
}

/// The per-layer metrics of the traced run, with their units.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("table.csv_decode_ms", "ms"),
    ("table.csv_decode_ns_per_row", "ns"),
    ("table.store_open_ms", "ms"),
    ("table.wal_batches_replayed", "count"),
    ("table.store_append_ms", "ms"),
    ("table.store_bytes", "B"),
    ("datasets.ingest_ms", "ms"),
    ("pgm.learn_ms", "ms"),
    ("pgm.ci_cache_misses", "count"),
    ("pgm.ci_cache_hit_rate", "ratio"),
    ("synth.fill_ms", "ms"),
    ("synth.stmt_cache_hit_rate", "ratio"),
    ("graph.mec_size", "count"),
    ("core.fit_ms", "ms"),
    ("core.fit_self_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("dsl.compile_ms", "ms"),
    ("dsl.check_ns_per_row", "ns"),
    ("dsl.engine_fallback_statements", "count"),
    ("dsl.incremental_detect_ms", "ms"),
    ("dsl.rows_probed_per_row_appended", "ratio"),
    ("obs.json_parse_ns_per_byte.small", "ns/B"),
    ("obs.json_parse_ns_per_byte.large", "ns/B"),
    ("obs.json_scaling", "ratio"),
    ("server.parse_request_ms", "ms"),
    ("server.handle_fit_ms", "ms"),
    ("server.handle_detect_ms", "ms"),
    ("server.handle_append_ms", "ms"),
    ("server.handle_detect_batch_ms", "ms"),
    ("server.render_ms", "ms"),
    ("server.response_bytes", "B"),
    ("server.unattributed_ms", "ms"),
    ("sqlexec.run_ms", "ms"),
    ("sqlexec.rows_after_pushdown_per_row_returned", "ratio"),
    ("coverage.synth", "ratio"),
    ("coverage.ingest", "ratio"),
    ("coverage.check_csv", "ratio"),
    ("coverage.check_store", "ratio"),
    ("coverage.query", "ratio"),
    ("coverage.fit", "ratio"),
    ("coverage.detect", "ratio"),
    ("coverage.pair", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The end-to-end metrics of the untraced run, in report order.
pub const E2E_METRICS: &[&str] = &[
    "setup_s",
    "fit_s",
    "ingest_rows_per_s",
    "check_csv_rows_per_s",
    "check_store_rows_per_s",
    "query_s",
    "store_bytes_per_csv_byte",
    "detect_p50_ms",
    "pair_p50_ms",
    "reopen_s",
    "daemon_rss_mb",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_program_fails_empty_and_unpinned_programs() {
        let text = "attr_1 := attr_0 -> { ... }\n";
        assert!(check_program("synth", "", Fnv::of(b"")).is_err());
        assert!(check_program("synth", "\n", Fnv::of(b"\n")).is_err());
        assert!(check_program("synth", text, Fnv::of(text.as_bytes())).is_ok());
        assert!(check_program("fit", text, Fnv::of(b"other")).is_err());
    }
}
