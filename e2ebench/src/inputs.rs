//! Workload shapes and the inputs generated from a seed.
//!
//! Every input comes from `guardrail_datasets`: `random_sem` gives the
//! structural equation model, `sample` draws rows from it, and
//! `inject_errors` corrupts 1% of the rows of each dirty table. The
//! program only ever receives the CSV bytes written here, as files or as
//! the `csv` field of a request frame.
//!
//! The SEM and the clean training table are the same for every seed (the
//! `RandomSemConfig` defaults, sampled with [`TRAIN_SEED`]): the cost of
//! synthesis depends on the structure it learns, so a training table drawn
//! per seed would measure a different program on every seed. The seed
//! draws everything the program checks: the dirty CSV, the detect frames,
//! and the appended stream.

use guardrail::datasets::{inject_errors, random_sem, DiscreteSem, InjectConfig, RandomSemConfig};
use guardrail::table::{Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Sampling seed of the clean training table, shared by every run.
pub const TRAIN_SEED: u64 = 0;

/// Rows per `append` frame in the append + `detect_batch` pairs.
pub const PAIR_ROWS: usize = 256;

/// Rows of the small frame `obs.json_parse_ns_per_byte.small` is read on.
pub const SMALL_FRAME_ROWS: usize = 1000;

/// Server-side deadline sent with every request, in milliseconds (the
/// daemon clamps deadlines at 30 s; its 2 s default would degrade a slow
/// fit or detect depending on timing).
pub const DEADLINE_MS: u64 = 30_000;

/// The daemon's default `max_frame_bytes`; every frame stays below it.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// What one workload runs. Every workload runs the whole user loop — CLI
/// `synth`, `ingest`, `check --store`, `check`, `query`, then daemon
/// sessions of `fit`, `detect` and append + `detect_batch` pairs with a
/// restart — and the shape decides which part carries the load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// SEM attributes.
    pub attrs: usize,
    /// Rows of the clean table the CLI `synth` trains on.
    pub train_rows: usize,
    /// Rows of the dirty CSV for `ingest`, `check` and `query`.
    pub dirty_rows: usize,
    /// Rows of the daemon's `fit` frame (a prefix of the training table).
    pub fit_rows: usize,
    /// Rows per daemon `detect` frame.
    pub detect_rows: usize,
    /// Distinct detect frames, sent in the first daemon session of a cycle.
    pub detect_frames: usize,
    /// Append + `detect_batch` pairs per daemon session.
    pub pairs_per_session: usize,
    /// Passes of `ingest`, both checks and `query` per round, after the
    /// round's one `synth` (one daemon cycle follows).
    pub cli_repeats: usize,
    /// The CLI carries the load: `fit_s` is the CLI `synth` and
    /// `store_bytes_per_csv_byte` the ingested store. Otherwise both come
    /// from the daemon (the `fit` round trip and the appended store).
    pub cli_led: bool,
    /// Digests of the programs this shape synthesizes.
    pub pins: Pins,
}

/// FNV-1a digests ([`Fnv::of`]) of the constraints text `synth` writes and
/// `fit` returns. The training table is the same for every seed, so these
/// are constants of a workload: a change to structure learning or sketch
/// filling that changes the program, or empties it, fails the operation
/// instead of making the checks against it cheaper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pins {
    /// Digest of the CLI `synth` program.
    pub synth: u64,
    /// Digest of the daemon `fit` program.
    pub fit: u64,
}

/// The three workloads.
pub const SHAPES: [Shape; 3] = [
    Shape {
        name: "cli_batch",
        attrs: 24,
        train_rows: 200_000,
        dirty_rows: 50_000,
        fit_rows: 2_000,
        detect_rows: 500,
        detect_frames: 12,
        pairs_per_session: 12,
        cli_repeats: 2,
        cli_led: true,
        pins: Pins { synth: 0xa2cc_6dc7_09b7_37ad, fit: 0xeec0_b15b_997a_e3de },
    },
    Shape {
        name: "serve_bulk",
        attrs: 8,
        train_rows: 10_000,
        dirty_rows: 50_000,
        fit_rows: 10_000,
        detect_rows: 5_000,
        detect_frames: 8,
        pairs_per_session: 40,
        cli_repeats: 4,
        cli_led: false,
        pins: Pins { synth: 0xc8fb_da98_bab4_c6b7, fit: 0xc8fb_da98_bab4_c6b7 },
    },
    Shape {
        name: "serve_stream",
        attrs: 8,
        train_rows: 10_000,
        dirty_rows: 50_000,
        fit_rows: 1_000,
        detect_rows: 256,
        detect_frames: 20,
        pairs_per_session: 150,
        cli_repeats: 2,
        cli_led: false,
        pins: Pins { synth: 0xc8fb_da98_bab4_c6b7, fit: 0x8565_8c24_7c7f_7657 },
    },
];

impl Shape {
    /// The shape named `name`.
    pub fn by_name(name: &str) -> Option<Shape> {
        SHAPES.iter().copied().find(|s| s.name == name)
    }

    /// The same shape scaled down for smoke tests: every size of the
    /// checked traffic divided by `factor` (with floors that keep every
    /// operation meaningful). The training table and the `fit` frame keep
    /// their size, so the smoke checks the same pinned programs.
    pub fn scaled_down(mut self, factor: usize) -> Shape {
        let f = factor.max(1);
        self.dirty_rows = (self.dirty_rows / f).max(2_000);
        self.detect_rows = (self.detect_rows / f).max(100);
        self.detect_frames = (self.detect_frames / f).max(2);
        self.pairs_per_session = (self.pairs_per_session / f).max(3);
        self
    }
}

/// One daemon-bound CSV payload with the table it was rendered from.
#[derive(Debug, Clone)]
pub struct Payload {
    /// The table as generated (the reference input).
    pub table: Table,
    /// Its CSV text, the bytes the program receives.
    pub csv: String,
}

/// The query the CLI `query` runs and the answer computed from the
/// generated rows.
#[derive(Debug, Clone)]
pub struct Query {
    /// SQL text.
    pub sql: String,
    /// Group key → row count, from the generated dirty table.
    pub expected: BTreeMap<String, usize>,
}

/// Everything one run feeds the program.
#[derive(Debug)]
pub struct Inputs {
    /// Clean training CSV for `synth`.
    pub train_csv: PathBuf,
    /// Dirty CSV for `ingest`, `check` and `query`.
    pub dirty_csv: PathBuf,
    /// Its size in bytes.
    pub dirty_csv_bytes: u64,
    /// The dirty table as generated.
    pub dirty: Table,
    /// The daemon's `fit` payload.
    pub fit: Payload,
    /// The daemon's `detect` payloads.
    pub detects: Vec<Payload>,
    /// A 1k-row detect payload for the small JSON parse.
    pub small: Payload,
    /// The appended stream: one daemon cycle's worth of `PAIR_ROWS`-row
    /// batches (two sessions of `pairs_per_session` each).
    pub batches: Vec<Payload>,
    /// The whole stream as one table: row `i` of it is store row `i`.
    pub stream: Table,
    /// The CLI query.
    pub query: Query,
}

/// Seeds of the independent draws of one run.
fn draw_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

fn dirty_table(sem: &DiscreteSem, rows: usize, seed: u64, stream: u64) -> Table {
    let mut table = sem.sample(rows, &mut StdRng::seed_from_u64(draw_seed(seed, stream)));
    let config = InjectConfig {
        rate: 0.01,
        seed: draw_seed(seed, stream + 100),
        // A fixed 1% share at every table size: the small-table floor of
        // the paper's protocol would corrupt 4% of a 256-row frame.
        small_threshold: 0,
        ..InjectConfig::default()
    };
    inject_errors(&mut table, &config);
    table
}

/// Renders a cell the way the CSV writer does (the query reference groups
/// by these strings).
fn cell(v: &Value) -> String {
    v.to_string()
}

fn payload(table: Table) -> Payload {
    let csv = table.to_csv_string();
    Payload { table, csv }
}

/// Splits `table` into consecutive `rows`-row payloads.
fn chunks(table: &Table, rows: usize) -> Vec<Payload> {
    (0..table.num_rows() / rows)
        .map(|i| {
            let idx: Vec<usize> = (i * rows..(i + 1) * rows).collect();
            payload(table.take(&idx))
        })
        .collect()
}

/// The grouped query over the dirty table and its expected answer.
fn query(dirty: &Table) -> Query {
    let sql =
        "SELECT attr_1, COUNT(*) AS n FROM dirty WHERE attr_0 = 1 GROUP BY attr_1".to_string();
    let mut expected = BTreeMap::new();
    for r in 0..dirty.num_rows() {
        let a0 = dirty.get(r, 0).map(|v| cell(&v));
        if a0.as_deref() == Some("1") {
            let key = dirty.get(r, 1).map(|v| cell(&v)).unwrap_or_default();
            *expected.entry(key).or_insert(0) += 1;
        }
    }
    Query { sql, expected }
}

/// Generates every input of one run into `dir` (CSV files) and memory
/// (frames and reference tables).
pub fn generate(shape: &Shape, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let sem = random_sem(&RandomSemConfig { attrs: shape.attrs, ..RandomSemConfig::default() });
    let train = sem.sample(shape.train_rows, &mut StdRng::seed_from_u64(TRAIN_SEED));
    let fit = payload(train.head(shape.fit_rows));
    let dirty = dirty_table(&sem, shape.dirty_rows, seed, 1);
    let detect_all = dirty_table(&sem, shape.detect_rows * shape.detect_frames, seed, 2);
    let small = payload(dirty_table(&sem, SMALL_FRAME_ROWS, seed, 3));
    let stream = dirty_table(&sem, PAIR_ROWS * shape.pairs_per_session * 2, seed, 4);

    let train_csv = dir.join("train.csv");
    let dirty_csv = dir.join("dirty.csv");
    // Written and synced: the measured rounds start with no dirty pages
    // of the inputs left for the kernel to flush under the daemon's WAL
    // fsyncs.
    let write = |path: &Path, t: &Table| {
        t.write_csv_path(path)
            .and_then(|()| Ok(std::fs::File::open(path)?.sync_all()?))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(&train_csv, &train)?;
    write(&dirty_csv, &dirty)?;
    let dirty_csv_bytes = std::fs::metadata(&dirty_csv).map_err(|e| e.to_string())?.len();
    let inputs = Inputs {
        train_csv,
        dirty_csv,
        dirty_csv_bytes,
        query: query(&dirty),
        dirty,
        fit,
        detects: chunks(&detect_all, shape.detect_rows),
        small,
        batches: chunks(&stream, PAIR_ROWS),
        stream,
    };
    for p in std::iter::once(&inputs.fit).chain(&inputs.detects).chain(&inputs.batches) {
        // Escaping adds a byte per newline; leave room for the envelope.
        if p.csv.len() * 2 + 256 > MAX_FRAME_BYTES {
            return Err(format!("a {}-byte payload could exceed the frame cap", p.csv.len()));
        }
    }
    Ok(inputs)
}

/// A digest of everything generated, to check that a seed reproduces its
/// inputs.
pub fn digest(inputs: &Inputs) -> u64 {
    let mut h = Fnv::default();
    for path in [&inputs.train_csv, &inputs.dirty_csv] {
        h.write(&std::fs::read(path).unwrap_or_default());
    }
    for p in std::iter::once(&inputs.fit)
        .chain(&inputs.detects)
        .chain(std::iter::once(&inputs.small))
        .chain(&inputs.batches)
    {
        h.write(p.csv.as_bytes());
    }
    h.0
}

/// FNV-1a, for content digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Digest of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}
