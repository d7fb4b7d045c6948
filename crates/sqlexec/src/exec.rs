//! The query executor: runs the optimized [`Plan`] node by node.
//!
//! Every plan node is one operator over a stream of [`Tuple`]s; a parent
//! pulls rows from its input. `Scan` and `Vet` are pipeline breakers: the
//! scan evaluates its pushed conjuncts over the whole table before any row
//! moves up, and the vet gathers every row it receives into one vectorized
//! guardrail pass. `Filter`, `Predict`, `Project` and `Limit` work a row at
//! a time, so a `LIMIT` above a residual filter stops model inference as
//! soon as enough rows survive. The `GROUP BY` / `HAVING` / `ORDER BY` /
//! `LIMIT` epilogue then runs over the collected rows, driven by the query.

use crate::ast::{AggFunc, BinOp, Expr, Query, SelectItem, SortOrder};
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::hep::{HepOptimizer, OptOutcome};
use crate::optimizer::join_conjuncts;
use crate::parser::parse_query;
use crate::planner::{self, collect_models, lift, Plan, PlanContext};
use guardrail_core::{ErrorScheme, Guardrail};
use guardrail_governor::{Budget, DegradationReport};
use guardrail_obs::{self as obs, Span};
use guardrail_table::{Row, Table, TableBuilder, Value};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Per-query execution statistics (the Table 6 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Rows in the base table.
    pub rows_scanned: usize,
    /// Rows surviving the scan's pushed-down predicates (== `rows_scanned`
    /// when no predicate was pushable).
    pub rows_after_pushdown: usize,
    /// Rows vetted by the guardrail before inference.
    pub rows_vetted: usize,
    /// Model invocations performed.
    pub predictions: usize,
    /// Nanoseconds spent in Guardrail row vetting.
    pub guardrail_nanos: u128,
    /// Nanoseconds spent in ML inference.
    pub inference_nanos: u128,
    /// Constraint violations encountered.
    pub violations: usize,
    /// Program statements served by the legacy row-at-a-time interpreter
    /// during batched vetting (decision-table key space past the engine's
    /// enumeration cap). Zero when every statement ran vectorized.
    pub engine_fallback_statements: usize,
    /// Optimizer rule applications that shaped this query's plan.
    pub rules_applied: usize,
    /// `WHERE` conjuncts dropped because a synthesized constraint (or
    /// another conjunct) entails them.
    pub predicates_pruned: usize,
    /// Rows never scanned because the optimizer proved the predicate
    /// contradicts the constraints (or the scan dictionaries) and collapsed
    /// the plan to an empty scan.
    pub rows_skipped_by_contradiction: usize,
}

impl fmt::Display for ExecutionStats {
    /// `EXPLAIN ANALYZE`-style rendering, one stage per line (the format
    /// [`Executor::explain_analyze`] appends below the plan).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Execution: scanned {} rows, {} after pushdown",
            self.rows_scanned, self.rows_after_pushdown
        )?;
        writeln!(
            f,
            "  Guardrail: vetted {} rows, {} violations, {:.3} ms ({} legacy-interpreter statements)",
            self.rows_vetted,
            self.violations,
            self.guardrail_nanos as f64 / 1e6,
            self.engine_fallback_statements
        )?;
        writeln!(
            f,
            "  Inference: {} predictions, {:.3} ms",
            self.predictions,
            self.inference_nanos as f64 / 1e6
        )?;
        writeln!(
            f,
            "  Optimizer: {} rules applied, {} predicates pruned, {} rows skipped by contradiction",
            self.rules_applied, self.predicates_pruned, self.rows_skipped_by_contradiction
        )
    }
}

/// A query result: the output relation plus execution statistics.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result rows.
    pub table: Table,
    /// Statistics.
    pub stats: ExecutionStats,
    /// Complete when the optimizer ran within budget; degraded (with the
    /// `sql_optimize` stage recorded) when rule applications exhausted the
    /// work cap and the naive plan was executed instead. Degradation is
    /// never an error and never a wrong answer — only a slower plan.
    pub degradation: DegradationReport,
}

/// Executes SQL against a [`Catalog`], optionally guarding every ML
/// inference with a fitted [`Guardrail`].
pub struct Executor<'a> {
    catalog: &'a Catalog,
    guardrail: Option<(&'a Guardrail, ErrorScheme)>,
    pushdown: bool,
    opt_budget: u64,
}

/// Default work cap on optimizer rule applications per query — far above
/// what any spine-shaped plan needs, so exhaustion only fires on
/// deliberately tiny caps (tests) or pathological predicates.
const DEFAULT_OPT_BUDGET: u64 = 4096;

/// A query planned against the catalog.
struct Planned<'a> {
    /// The rewrite context the plan was built under: the `FROM` table and
    /// the guardrail facts `EXPLAIN` renders.
    ctx: PlanContext<'a>,
    /// The plan to execute and what the optimizer did to get it: no rules
    /// and a complete report when plan optimization is disabled.
    opt: OptOutcome,
}

impl<'a> Executor<'a> {
    /// An executor with plan optimization enabled and no guardrail.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog, guardrail: None, pushdown: true, opt_budget: DEFAULT_OPT_BUDGET }
    }

    /// Installs a guardrail: every row feeding a `PREDICT` is vetted under
    /// `scheme` first (Fig. 1's interception point).
    pub fn with_guardrail(mut self, guardrail: &'a Guardrail, scheme: ErrorScheme) -> Self {
        self.guardrail = Some((guardrail, scheme));
        self
    }

    /// Toggles plan optimization (ablation hook). Disabled, every query
    /// runs its naive plan: the whole `WHERE` clause evaluates as a
    /// residual filter above the guardrail interception point.
    pub fn with_pushdown(mut self, enabled: bool) -> Self {
        self.pushdown = enabled;
        self
    }

    /// Caps optimizer rule applications per query (governor work units).
    /// Exhaustion degrades to the naive plan — see [`QueryOutput::degradation`].
    pub fn with_opt_budget(mut self, cap: u64) -> Self {
        self.opt_budget = cap;
        self
    }

    /// Parses and executes `sql`.
    pub fn run(&self, sql: &str) -> Result<QueryOutput, SqlError> {
        let query = parse_query(sql)?;
        self.run_query(&query)
    }

    /// Renders the execution plan for `sql` without running it — which
    /// predicates are pushed below the ML stage, where the guardrail
    /// intercepts, the shape of the aggregation, and which optimizer rules
    /// fired.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        let query = parse_query(sql)?;
        Ok(self.render(&query, &self.plan(&query)?))
    }

    /// `EXPLAIN ANALYZE`: renders the plan, executes it, and appends the
    /// observed [`ExecutionStats`] below it.
    pub fn explain_analyze(&self, sql: &str) -> Result<String, SqlError> {
        let query = parse_query(sql)?;
        let span = obs::span("run_query");
        let planned = self.plan(&query)?;
        let plan = self.render(&query, &planned);
        let out = self.execute(&query, planned, span)?;
        Ok(format!("{plan}{}", out.stats))
    }

    /// Executes a parsed query.
    pub fn run_query(&self, query: &Query) -> Result<QueryOutput, SqlError> {
        let span = obs::span("run_query");
        let planned = self.plan(query)?;
        self.execute(query, planned, span)
    }

    /// Resolves the query's table and models, lifts the naive plan and,
    /// unless plan optimization is disabled, rewrites it to fixpoint. The
    /// naive spine *is* this engine's reference semantics; exhausting the
    /// optimizer budget degrades back to it (recorded in the report), never
    /// to an error.
    fn plan(&self, query: &Query) -> Result<Planned<'a>, SqlError> {
        let base = self
            .catalog
            .table(&query.from)
            .ok_or_else(|| SqlError::UnknownTable(query.from.clone()))?;
        let models = collect_models(query);
        if let Some(m) = models.iter().find(|m| self.catalog.model(m).is_none()) {
            return Err(SqlError::UnknownModel(m.clone()));
        }
        let mut ctx = PlanContext::new(base);
        if let (false, Some((guard, scheme))) = (models.is_empty(), self.guardrail) {
            ctx = ctx.with_guardrail(guard, scheme, query.where_clause.is_some());
        }
        let naive = lift(query, &ctx);
        let opt = if self.pushdown {
            let budget = Budget::with_work_cap(self.opt_budget);
            HepOptimizer::standard().optimize(&naive, &ctx, &budget)
        } else {
            OptOutcome {
                plan: naive,
                applied: Vec::new(),
                rules_applied: 0,
                predicates_pruned: 0,
                degradation: DegradationReport::default(),
            }
        };
        Ok(Planned { ctx, opt })
    }

    /// The `EXPLAIN` text: the plan, then (when the optimizer ran) the
    /// rules it applied and whether its budget ran out.
    fn render(&self, query: &Query, planned: &Planned<'_>) -> String {
        let opt = &planned.opt;
        let mut out = planner::render(&opt.plan, query, &planned.ctx);
        if !self.pushdown {
            return out;
        }
        if opt.applied.is_empty() {
            out.push_str("  Rules: none\n");
        } else {
            let parts: Vec<String> = opt
                .applied
                .iter()
                .map(|(n, c)| if *c > 1 { format!("{n} x{c}") } else { (*n).to_string() })
                .collect();
            out.push_str(&format!("  Rules: {}\n", parts.join(", ")));
        }
        if !opt.degradation.is_complete() {
            out.push_str("  Degraded: optimizer budget exhausted, naive plan kept\n");
        }
        out
    }

    /// Runs a planned query: the plan's operators, then the query-driven
    /// epilogue. `span` is the query's `run_query` span.
    fn execute(
        &self,
        query: &Query,
        planned: Planned<'a>,
        mut span: Span,
    ) -> Result<QueryOutput, SqlError> {
        let Planned { ctx, opt } = planned;
        let base = ctx.base;
        let run = Run {
            catalog: self.catalog,
            guardrail: self.guardrail.map(|(guard, _)| guard),
            base,
            stats: RefCell::new(ExecutionStats {
                rows_scanned: base.num_rows(),
                rules_applied: opt.rules_applied,
                predicates_pruned: opt.predicates_pruned,
                ..ExecutionStats::default()
            }),
        };
        let tuples = run.open(&opt.plan)?.collect::<Result<Vec<Tuple>, SqlError>>()?;
        let table = epilogue(query, base, &tuples)?;
        let stats = run.stats.into_inner();
        span.arg("rows_scanned", stats.rows_scanned as u64);
        span.arg("rows_vetted", stats.rows_vetted as u64);
        span.arg("violations", stats.violations as u64);
        span.arg("predictions", stats.predictions as u64);
        Ok(QueryOutput { table, stats, degradation: opt.degradation })
    }
}

/// One row in flight between operators.
#[derive(Debug, Default)]
struct Tuple {
    /// The row's index in the scanned table.
    id: usize,
    /// The row's values once a node needed them whole or rewrote some
    /// (model input, vetting overlays); `None` reads the scanned table.
    row: Option<Row>,
    /// Model outputs by model name.
    predictions: HashMap<String, Value>,
    /// `SELECT`-list values by alias.
    aliases: HashMap<String, Value>,
}

impl Tuple {
    fn at(id: usize) -> Self {
        Self { id, ..Self::default() }
    }
}

/// A stream of rows between operators; the first error ends the query.
type Rows<'r> = Box<dyn Iterator<Item = Result<Tuple, SqlError>> + 'r>;

/// What the operators of one query run share.
struct Run<'a> {
    catalog: &'a Catalog,
    guardrail: Option<&'a Guardrail>,
    /// The scanned table.
    base: &'a Table,
    stats: RefCell<ExecutionStats>,
}

impl<'a> Run<'a> {
    fn env<'t>(&'t self, tuple: &'t Tuple) -> Env<'t> {
        Env { table: self.base, tuple }
    }

    /// Opens the operator for `plan` over its opened input. Each plan node
    /// is executed by exactly one arm.
    fn open<'r>(&'r self, plan: &'r Plan) -> Result<Rows<'r>, SqlError> {
        Ok(match plan {
            Plan::Scan { filters, limit, .. } => {
                Box::new(self.scan(filters, *limit)?.into_iter().map(|id| Ok(Tuple::at(id))))
            }
            Plan::EmptyScan { .. } => {
                self.stats.borrow_mut().rows_skipped_by_contradiction = self.base.num_rows();
                Box::new(std::iter::empty())
            }
            Plan::Filter { input, predicate } => Box::new(self.open(input)?.filter_map(move |t| {
                t.and_then(|t| Ok(truthy(&eval(predicate, self.env(&t))?)?.then_some(t)))
                    .transpose()
            })),
            Plan::Vet { input, scheme, columns } => {
                // Nothing below a vet computes values: its input rows are ids.
                let ids = self.open(input)?.map(|t| t.map(|t| t.id)).collect::<Result<_, _>>()?;
                self.vet(ids, *scheme, columns.as_deref())?
            }
            Plan::Predict { input, models } => Box::new(self.open(input)?.map(move |t| {
                let mut t = t?;
                self.predict(&mut t, models);
                Ok(t)
            })),
            Plan::Project { input, items } => {
                let scalars: Vec<&SelectItem> =
                    items.iter().filter(|item| !item.expr.has_aggregate()).collect();
                Box::new(self.open(input)?.map(move |t| {
                    let mut t = t?;
                    let mut values = Vec::with_capacity(scalars.len());
                    for item in &scalars {
                        values.push((item.name.clone(), eval(&item.expr, self.env(&t))?));
                    }
                    t.aliases.extend(values);
                    Ok(t)
                }))
            }
            Plan::Limit { input, n } => Box::new(self.open(input)?.take(*n)),
        })
    }

    /// The ids of the rows on which every pushed conjunct holds, stopping
    /// at `limit` survivors. The scan runs to completion before any row
    /// moves up, so its count is the query's `rows_after_pushdown`.
    fn scan(&self, filters: &[Expr], limit: Option<usize>) -> Result<Vec<usize>, SqlError> {
        let cap = limit.unwrap_or(usize::MAX);
        let ids = match join_conjuncts(filters.to_vec()) {
            None => (0..self.base.num_rows().min(cap)).collect(),
            Some(predicate) => {
                let mut ids = Vec::new();
                for id in 0..self.base.num_rows() {
                    if ids.len() >= cap {
                        break;
                    }
                    if truthy(&eval(&predicate, self.env(&Tuple::at(id)))?)? {
                        ids.push(id);
                    }
                }
                ids
            }
        };
        self.stats.borrow_mut().rows_after_pushdown = ids.len();
        Ok(ids)
    }

    /// Vets every input row in one batched pass over `columns` — the whole
    /// scanned width when the plan did not narrow it — plus any attribute
    /// the program binds that the table lacks (gathered as Null). Under
    /// `Raise` the first violating row aborts the query; otherwise the
    /// rewritten columns are overlaid onto the raw rows.
    fn vet<'r>(
        &'r self,
        ids: Vec<usize>,
        scheme: ErrorScheme,
        columns: Option<&[String]>,
    ) -> Result<Rows<'r>, SqlError> {
        let guard = self.guardrail.expect("a Vet node implies an installed guardrail");
        let mut names: Vec<&str> = match columns {
            Some(columns) => columns.iter().map(String::as_str).collect(),
            None => self.base.schema().names(),
        };
        let bound = guard.bound_attributes();
        for name in &bound {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        let t0 = Instant::now();
        let vetted = guard.vet_rows(self.base, &ids, &names, scheme).ok_or_else(|| {
            SqlError::Semantic("the guardrail program does not bind to the scanned table".into())
        })?;
        {
            let mut stats = self.stats.borrow_mut();
            stats.guardrail_nanos += t0.elapsed().as_nanos();
            stats.rows_vetted += ids.len();
            stats.violations += vetted.violations.len();
            stats.engine_fallback_statements += vetted.legacy_statements;
        }
        if scheme == ErrorScheme::Raise {
            // Violations are row-ordered: the first is on the first dirty row.
            if let Some(v) = vetted.violations.first() {
                return Err(SqlError::GuardrailRaise {
                    row: ids[v.row],
                    detail: format!(
                        "{} should be {} (found {})",
                        v.attribute, v.expected, v.actual
                    ),
                });
            }
        }
        // For each scanned column, the vetted column the scheme may have
        // rewritten it in; `None` keeps the raw value.
        let schema = self.base.schema();
        let sources: Vec<Option<usize>> = schema
            .names()
            .into_iter()
            .map(|name| match vetted.written.iter().any(|w| w == name) {
                true => vetted.table.schema().index_of(name),
                false => None,
            })
            .collect();
        let rewrites = sources.iter().any(Option::is_some);
        let table = vetted.table;
        Ok(Box::new(ids.into_iter().enumerate().map(move |(k, id)| {
            let mut t = Tuple::at(id);
            if rewrites {
                let values = sources.iter().enumerate().map(|(c, source)| {
                    match source {
                        Some(from) => table.get(k, *from),
                        None => self.base.get(id, c),
                    }
                    .expect("cell in range")
                });
                t.row = Some(Row::new(schema.clone(), values.collect()));
            }
            Ok(t)
        })))
    }

    /// Runs every model in `models` on the tuple's (vetted) row.
    fn predict(&self, t: &mut Tuple, models: &[String]) {
        let row = t.row.get_or_insert_with(|| self.base.row_owned(t.id).expect("row id"));
        let t0 = Instant::now();
        for m in models {
            let model = self.catalog.model(m).expect("models are resolved at planning");
            t.predictions.insert(m.clone(), model.predict_row(row));
        }
        let mut stats = self.stats.borrow_mut();
        stats.predictions += models.len();
        stats.inference_nanos += t0.elapsed().as_nanos();
    }
}

/// The query-driven epilogue over the plan's output rows: aggregation (or
/// the plain projection), then `ORDER BY` and the query's own `LIMIT`.
fn epilogue(query: &Query, base: &Table, tuples: &[Tuple]) -> Result<Table, SqlError> {
    let names: Vec<String> = query.projections.iter().map(|p| p.name.clone()).collect();
    let mut builder = TableBuilder::new(names);
    let has_aggregate = query.projections.iter().any(|p| p.expr.has_aggregate());
    if has_aggregate || !query.group_by.is_empty() {
        for members in groups(query, base, tuples)? {
            let mut out_row = Vec::with_capacity(query.projections.len());
            for p in &query.projections {
                out_row.push(if p.expr.has_aggregate() {
                    eval_aggregate(&p.expr, &members)?
                } else {
                    // Scalar in a grouped query: value from the first
                    // member (callers group by it, per SQL convention).
                    members.first().map_or(Value::Null, |m| m.tuple.aliases[&p.name].clone())
                });
            }
            builder.push_row(out_row).expect("arity matches");
        }
    } else {
        for t in tuples {
            let out_row = query.projections.iter().map(|p| t.aliases[&p.name].clone()).collect();
            builder.push_row(out_row).expect("arity matches");
        }
    }
    let table = builder.finish().map_err(|e| SqlError::Semantic(e.to_string()))?;
    let table = order_by(query, table)?;
    Ok(match query.limit {
        Some(n) => table.head(n),
        None => table,
    })
}

/// Splits the rows into `GROUP BY` groups in key order and keeps the groups
/// `HAVING` accepts. Keys compare as [`Value`]s, so `1` and `1.0` share a
/// group. Aggregates over no rows and no `GROUP BY` still form one group.
fn groups<'t>(
    query: &Query,
    base: &'t Table,
    tuples: &'t [Tuple],
) -> Result<Vec<Vec<Env<'t>>>, SqlError> {
    let mut groups: Vec<(Vec<Value>, Vec<Env<'t>>)> = Vec::new();
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    for tuple in tuples {
        let env = Env { table: base, tuple };
        let key = query.group_by.iter().map(|g| eval(g, env)).collect::<Result<Vec<_>, _>>()?;
        match index.entry(key) {
            Entry::Occupied(e) => groups[*e.get()].1.push(env),
            Entry::Vacant(e) => {
                groups.push((e.key().clone(), vec![env]));
                e.insert(groups.len() - 1);
            }
        }
    }
    if groups.is_empty() && query.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    groups.sort_by(|(a, _), (b, _)| a.cmp(b)); // deterministic output
    let mut kept = Vec::with_capacity(groups.len());
    for (_, members) in groups {
        // HAVING filters whole groups; its aggregates range over the members.
        let keep = match &query.having {
            Some(having) => truthy(&eval_aggregate(having, &members)?)?,
            None => true,
        };
        if keep {
            kept.push(members);
        }
    }
    Ok(kept)
}

/// Sorts the output relation by the `ORDER BY` keys (stable).
fn order_by(query: &Query, table: Table) -> Result<Table, SqlError> {
    if query.order_by.is_empty() {
        return Ok(table);
    }
    let mut keys: Vec<(Vec<Value>, usize)> = Vec::with_capacity(table.num_rows());
    for i in 0..table.num_rows() {
        let row = Tuple::at(i);
        let env = Env { table: &table, tuple: &row };
        let key = query.order_by.iter().map(|(e, _)| eval(e, env)).collect::<Result<_, _>>()?;
        keys.push((key, i));
    }
    keys.sort_by(|(ka, _), (kb, _)| {
        for ((a, b), (_, ord)) in ka.iter().zip(kb).zip(&query.order_by) {
            let c = match ord {
                SortOrder::Asc => a.cmp(b),
                SortOrder::Desc => b.cmp(a),
            };
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    });
    let order: Vec<usize> = keys.into_iter().map(|(_, i)| i).collect();
    Ok(table.take(&order))
}

/// What an expression reads for one row: the row's own values (or, until a
/// node materialized them, the table it lives in), then the `SELECT`-list
/// aliases and model outputs computed for it.
#[derive(Clone, Copy)]
struct Env<'a> {
    table: &'a Table,
    tuple: &'a Tuple,
}

impl Env<'_> {
    fn column(&self, name: &str) -> Option<Value> {
        match &self.tuple.row {
            Some(row) => row.get_by_name(name).cloned(),
            None => self.table.get(self.tuple.id, self.table.schema().index_of(name)?),
        }
    }
}

fn eval(expr: &Expr, env: Env<'_>) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => env
            .column(name)
            .or_else(|| env.tuple.aliases.get(name).cloned())
            .ok_or_else(|| SqlError::UnknownColumn(name.clone())),
        Expr::Predict { model } => env
            .tuple
            .predictions
            .get(model)
            .cloned()
            .ok_or_else(|| SqlError::UnknownModel(model.clone())),
        Expr::Not(e) => {
            let v = eval(e, env)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!truthy(&v)?))
            }
        }
        Expr::Case { branches, otherwise } => {
            for (cond, value) in branches {
                let c = eval(cond, env)?;
                if !c.is_null() && truthy(&c)? {
                    return eval(value, env);
                }
            }
            match otherwise {
                Some(e) => eval(e, env),
                None => Ok(Value::Null),
            }
        }
        Expr::Binary { op, left, right } => binary(*op, eval(left, env)?, || eval(right, env)),
        Expr::Aggregate { .. } => {
            Err(SqlError::Semantic("aggregate used in a scalar context".into()))
        }
    }
}

/// Applies `op` to `l` and the lazily evaluated right operand, which
/// `AND`/`OR` skip when `l` decides the result.
fn binary(
    op: BinOp,
    l: Value,
    right: impl FnOnce() -> Result<Value, SqlError>,
) -> Result<Value, SqlError> {
    match op {
        BinOp::And | BinOp::Or => {
            // The value that decides the connective on its own.
            let decisive = op == BinOp::Or;
            if !l.is_null() && truthy(&l)? == decisive {
                return Ok(Value::Bool(decisive));
            }
            let r = right()?;
            if !r.is_null() && truthy(&r)? == decisive {
                return Ok(Value::Bool(decisive));
            }
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(!decisive))
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let r = right()?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null); // SQL three-valued logic
            }
            let out = match op {
                BinOp::Eq => l == r,
                BinOp::Ne => l != r,
                BinOp::Lt => l < r,
                BinOp::Le => l <= r,
                BinOp::Gt => l > r,
                BinOp::Ge => l >= r,
                _ => unreachable!(),
            };
            Ok(Value::Bool(out))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            let r = right()?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(SqlError::Semantic(format!(
                        "arithmetic on non-numeric values {l} and {r}"
                    )))
                }
            };
            let result = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            // Keep integers integral when possible.
            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
                && matches!((&l, &r), (Value::Int(_), Value::Int(_)))
            {
                Ok(Value::Int(result as i64))
            } else {
                Ok(Value::float(result))
            }
        }
    }
}

/// Evaluates an expression that may contain aggregates over a group's
/// members.
fn eval_aggregate(expr: &Expr, members: &[Env<'_>]) -> Result<Value, SqlError> {
    match expr {
        Expr::Aggregate { func, arg } => match func {
            AggFunc::Count if arg.is_none() => Ok(Value::Int(members.len() as i64)),
            _ => {
                let arg = arg.as_ref().expect("non-COUNT(*) aggregate has an argument");
                let mut values = Vec::with_capacity(members.len());
                for &m in members {
                    let v = eval(arg, m)?;
                    if !v.is_null() {
                        values.push(v);
                    }
                }
                match func {
                    AggFunc::Count => Ok(Value::Int(values.len() as i64)),
                    AggFunc::Min => Ok(values.iter().min().cloned().unwrap_or(Value::Null)),
                    AggFunc::Max => Ok(values.iter().max().cloned().unwrap_or(Value::Null)),
                    AggFunc::Sum | AggFunc::Avg => {
                        let nums: Option<Vec<f64>> = values.iter().map(|v| v.as_f64()).collect();
                        let nums = nums.ok_or_else(|| {
                            SqlError::Semantic("SUM/AVG over non-numeric values".into())
                        })?;
                        if nums.is_empty() {
                            return Ok(Value::Null);
                        }
                        let sum: f64 = nums.iter().sum();
                        match func {
                            AggFunc::Sum => Ok(Value::float(sum)),
                            AggFunc::Avg => Ok(Value::float(sum / nums.len() as f64)),
                            _ => unreachable!(),
                        }
                    }
                }
            }
        },
        // Aggregates embedded in arithmetic, e.g. `AVG(x) * 100`: both
        // sides reduce to values first.
        Expr::Binary { op, left, right } => {
            let l = eval_aggregate(left, members)?;
            let r = eval_aggregate(right, members)?;
            binary(*op, l, || Ok(r))
        }
        Expr::Literal(v) => Ok(v.clone()),
        // Non-aggregate sub-expression inside an aggregate projection:
        // evaluate on the first member.
        other => match members.first() {
            Some(&m) => eval(other, m),
            None => Ok(Value::Null),
        },
    }
}

fn truthy(v: &Value) -> Result<bool, SqlError> {
    match v {
        Value::Bool(b) => Ok(*b),
        Value::Null => Ok(false),
        other => Err(SqlError::Semantic(format!("expected boolean, got {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardrail_core::GuardrailConfig;
    use guardrail_ml::NaiveBayes;
    use std::sync::Arc;

    fn people() -> Table {
        Table::from_csv_str(
            "age,city,income\n30,A,low\n40,A,high\n50,B,high\n20,B,low\n60,A,high\n",
        )
        .unwrap()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("people", people());
        c
    }

    fn run(sql: &str) -> Table {
        let c = catalog();
        Executor::new(&c).run(sql).unwrap().table
    }

    #[test]
    fn select_where_projection() {
        let t = run("SELECT age, city FROM people WHERE age >= 40");
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.schema().names(), vec!["age", "city"]);
    }

    #[test]
    fn group_by_aggregates() {
        let t = run(
            "SELECT city, AVG(age) AS a, COUNT(*) AS n FROM people GROUP BY city ORDER BY city",
        );
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.get(0, 0), Some(Value::from("A")));
        assert!((t.get(0, 1).unwrap().as_f64().unwrap() - 130.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.get(0, 2), Some(Value::Int(3)));
        assert_eq!(t.get(1, 2), Some(Value::Int(2)));
    }

    #[test]
    fn case_when_inside_avg() {
        let t = run("SELECT AVG(CASE WHEN income = 'high' THEN 1 ELSE 0 END) AS frac FROM people");
        assert!((t.get(0, 0).unwrap().as_f64().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn global_aggregate_without_group() {
        let t =
            run("SELECT COUNT(*) AS n, MIN(age) AS lo, MAX(age) AS hi, SUM(age) AS s FROM people");
        assert_eq!(t.get(0, 0), Some(Value::Int(5)));
        assert_eq!(t.get(0, 1), Some(Value::Int(20)));
        assert_eq!(t.get(0, 2), Some(Value::Int(60)));
        assert_eq!(t.get(0, 3).unwrap().as_f64(), Some(200.0));
    }

    #[test]
    fn explain_shows_pushdown_and_stages() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2);
        let mut c = catalog();
        c.add_model("m", Arc::new(model));
        let exec = Executor::new(&c);
        let plan = exec
            .explain(
                "SELECT PREDICT(m) AS p, AVG(age) AS a FROM people \
                 WHERE city = 'A' AND PREDICT(m) = 'high' GROUP BY p ORDER BY p LIMIT 3",
            )
            .unwrap();
        assert!(plan.contains("Scan people"), "{plan}");
        assert!(plan.contains("Pushdown filter: (city = 'A')"), "{plan}");
        assert!(plan.contains("Residual filter: (PREDICT(m) = 'high')"), "{plan}");
        assert!(plan.contains("Predict: m"), "{plan}");
        assert!(plan.contains("Aggregate: GROUP BY [p]"), "{plan}");
        assert!(plan.contains("Limit: 3"), "{plan}");
        // With pushdown disabled the whole WHERE becomes residual.
        let plan =
            exec.with_pushdown(false).explain("SELECT age FROM people WHERE city = 'A'").unwrap();
        assert!(!plan.contains("Pushdown filter"), "{plan}");
        assert!(plan.contains("Residual filter"), "{plan}");
    }

    #[test]
    fn in_between_execution() {
        let t = run("SELECT age FROM people WHERE age IN (30, 50) ORDER BY age");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.get(1, 0), Some(Value::Int(50)));
        let t = run("SELECT age FROM people WHERE age BETWEEN 35 AND 55 ORDER BY age");
        assert_eq!(t.num_rows(), 2); // 40 and 50
        let t = run("SELECT age FROM people WHERE city NOT IN ('A') ORDER BY age");
        assert_eq!(t.num_rows(), 2); // city B rows
    }

    #[test]
    fn having_filters_groups() {
        let t = run(
            "SELECT city, COUNT(*) AS n FROM people GROUP BY city HAVING COUNT(*) > 2 ORDER BY city",
        );
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.get(0, 0), Some(Value::from("A")));
        assert_eq!(t.get(0, 1), Some(Value::Int(3)));
        // HAVING on an aggregate not in the SELECT list.
        let t = run("SELECT city FROM people GROUP BY city HAVING AVG(age) < 40 ORDER BY city");
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.get(0, 0), Some(Value::from("B")));
        // HAVING that keeps nothing.
        let t = run("SELECT city FROM people GROUP BY city HAVING COUNT(*) > 99");
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn order_and_limit() {
        let t = run("SELECT age FROM people ORDER BY age DESC LIMIT 2");
        assert_eq!(t.get(0, 0), Some(Value::Int(60)));
        assert_eq!(t.get(1, 0), Some(Value::Int(50)));
    }

    #[test]
    fn arithmetic_in_projection() {
        let t = run("SELECT AVG(age) * 2 AS double_avg FROM people");
        assert_eq!(t.get(0, 0).unwrap().as_f64(), Some(80.0));
    }

    #[test]
    fn three_valued_logic_with_nulls() {
        let mut c = Catalog::new();
        c.add_table("t", Table::from_csv_str("a,b\n1,\n2,5\n").unwrap());
        let out = Executor::new(&c).run("SELECT a FROM t WHERE b > 1").unwrap().table;
        // NULL > 1 is NULL → filtered out.
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.get(0, 0), Some(Value::Int(2)));
    }

    #[test]
    fn errors() {
        let c = catalog();
        let e = Executor::new(&c);
        assert!(matches!(e.run("SELECT a FROM missing"), Err(SqlError::UnknownTable(_))));
        assert!(matches!(e.run("SELECT nope FROM people"), Err(SqlError::UnknownColumn(_))));
        assert!(matches!(
            e.run("SELECT PREDICT(ghost) FROM people"),
            Err(SqlError::UnknownModel(_))
        ));
        assert!(matches!(
            e.run("SELECT age FROM people WHERE age + 1"),
            Err(SqlError::Semantic(_))
        ));
    }

    #[test]
    fn predict_with_model() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2); // income from age+city
        let mut c = catalog();
        c.add_model("income_model", Arc::new(model));
        let exec = Executor::new(&c);
        let out = exec
            .run("SELECT PREDICT(income_model) AS income_pred, COUNT(*) AS n FROM people GROUP BY income_pred ORDER BY income_pred")
            .unwrap();
        assert_eq!(out.stats.predictions, 5);
        let total: i64 =
            (0..out.table.num_rows()).map(|i| out.table.get(i, 1).unwrap().as_i64().unwrap()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn pushdown_reduces_inference() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2);
        let mut c = catalog();
        c.add_model("m", Arc::new(model));
        let sql = "SELECT PREDICT(m) AS p FROM people WHERE city = 'A'";
        let with = Executor::new(&c).run(sql).unwrap();
        let without = Executor::new(&c).with_pushdown(false).run(sql).unwrap();
        assert_eq!(with.stats.predictions, 3, "pushdown must skip city B rows");
        assert_eq!(without.stats.predictions, 5);
        assert_eq!(with.table.num_rows(), without.table.num_rows());
        assert_eq!(with.stats.rows_after_pushdown, 3);
    }

    #[test]
    fn guardrail_rectifies_before_inference() {
        // Train guardrail + model on clean data where city determines income.
        let mut csv = String::from("city,income\n");
        for _ in 0..100 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        // Dirty inference data: income column corrupted (model input is city
        // + income? — use a model over city only by predicting income).
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income\nA,low\nB,low\n").unwrap());
        c.add_model("m", Arc::new(model));
        let exec = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify);
        let out = exec.run("SELECT PREDICT(m) AS p, city FROM d ORDER BY city").unwrap();
        assert!(out.stats.violations > 0, "corrupted row must be flagged");
        assert!(out.stats.guardrail_nanos > 0);
        assert_eq!(out.stats.rows_vetted, 2, "both surviving rows are vetted in the batch");
        assert_eq!(out.table.num_rows(), 2);
    }

    #[test]
    fn explain_analyze_surfaces_vetting_counters() {
        let mut csv = String::from("city,income\n");
        for _ in 0..100 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income\nA,low\nB,low\n").unwrap());
        c.add_model("m", Arc::new(model));
        let exec = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify);
        let report = exec.explain_analyze("SELECT PREDICT(m) AS p, city FROM d").unwrap();
        assert!(report.contains("Scan d"), "{report}");
        assert!(report.contains("Guardrail: vetted 2 rows, 1 violations"), "{report}");
        assert!(report.contains("Inference: 2 predictions"), "{report}");
    }

    #[test]
    fn unbindable_program_falls_back_to_row_vetting() {
        // The guardrail's program mentions `income`, which the queried table
        // lacks: the batched vet gathers it as an all-Null column, the
        // value-level hook's reading of a missing attribute (so it is
        // flagged as Null ≠ literal).
        let mut csv = String::from("city,income\n");
        for _ in 0..100 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city\nA\n").unwrap());
        c.add_model("m", Arc::new(model));
        let exec = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Ignore);
        let out = exec.run("SELECT PREDICT(m) AS p FROM d").unwrap();
        assert_eq!(out.stats.rows_vetted, 1);
        assert!(out.stats.violations > 0, "Null income must disagree with the constraint");
        assert_eq!(out.table.num_rows(), 1);
    }

    #[test]
    fn guardrail_raise_aborts_query() {
        let mut csv = String::from("city,income\n");
        for _ in 0..100 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income\nA,low\n").unwrap());
        c.add_model("m", Arc::new(model));
        let exec = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Raise);
        let out = exec.run("SELECT PREDICT(m) AS p FROM d");
        assert!(matches!(out, Err(SqlError::GuardrailRaise { .. })), "{out:?}");
    }

    #[test]
    fn guardrail_only_intercepts_ml_queries() {
        // No PREDICT in the query → no vetting, no guardrail time, even with
        // a guardrail installed (the interception point is the model input).
        let mut csv = String::from("city,income\n");
        for _ in 0..50 {
            csv.push_str("A,high\nB,low\n");
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income\nA,low\n").unwrap());
        let out = Executor::new(&c)
            .with_guardrail(&guard, ErrorScheme::Raise)
            .run("SELECT city FROM d")
            .unwrap();
        assert_eq!(out.stats.guardrail_nanos, 0);
        assert_eq!(out.stats.violations, 0);
        assert_eq!(out.stats.rows_vetted, 0);
        assert_eq!(out.table.num_rows(), 1);
    }

    #[test]
    fn empty_result_keeps_schema() {
        let t = run("SELECT age FROM people WHERE age > 1000");
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.schema().names(), vec!["age"]);
    }

    /// A clean table where `city` determines `income`, with an unrelated
    /// wide column the program never binds.
    fn city_income_catalog() -> (Guardrail, Catalog) {
        let mut csv = String::from("city,income,note\n");
        for i in 0..100 {
            csv.push_str(&format!("A,high,n{i}\nB,low,n{i}\n"));
        }
        let clean = Table::from_csv_str(&csv).unwrap();
        let guard = Guardrail::fit(&clean, &GuardrailConfig::default());
        let model = NaiveBayes::fit(&clean, 1);
        let mut c = Catalog::new();
        c.add_table("d", Table::from_csv_str("city,income,note\nA,low,x\nB,low,y\n").unwrap());
        c.add_model("m", Arc::new(model));
        (guard, c)
    }

    #[test]
    fn narrow_vet_matches_full_width_vet() {
        let (guard, c) = city_income_catalog();
        let sql = "SELECT PREDICT(m) AS p, city, income FROM d ORDER BY city";
        let narrow =
            Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify).run(sql).unwrap();
        let full = Executor::new(&c)
            .with_guardrail(&guard, ErrorScheme::Rectify)
            .with_pushdown(false)
            .run(sql)
            .unwrap();
        assert_eq!(narrow.table.to_csv_string(), full.table.to_csv_string());
        assert_eq!(narrow.stats.rows_vetted, full.stats.rows_vetted);
        assert_eq!(narrow.stats.violations, full.stats.violations);
        // The optimized plan really did narrow the vet to the bound columns.
        let plan =
            Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify).explain(sql).unwrap();
        assert!(plan.contains("Narrow vet:"), "{plan}");
        assert!(!plan.contains("note"), "unbound column must not be vetted: {plan}");
    }

    #[test]
    fn contradiction_skips_scan_and_inference() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2);
        let mut c = catalog();
        c.add_model("m", Arc::new(model));
        // 'Z' was never interned into the city dictionary.
        let out = Executor::new(&c)
            .run("SELECT PREDICT(m) AS p, age FROM people WHERE city = 'Z'")
            .unwrap();
        assert_eq!(out.table.num_rows(), 0);
        assert_eq!(out.table.schema().names(), vec!["p", "age"]);
        assert_eq!(out.stats.rows_skipped_by_contradiction, 5);
        assert_eq!(out.stats.predictions, 0, "no model call on a proven-empty plan");
        assert_eq!(out.stats.rows_vetted, 0);
    }

    #[test]
    fn constraint_entailment_prunes_predicate() {
        let (guard, c) = city_income_catalog();
        // `city = 'A'` pins the determinant; rectification forces
        // `income = 'high'` on those rows, so the second conjunct is
        // tautological above the vet and gets pruned.
        let sql = "SELECT PREDICT(m) AS p, city FROM d WHERE city = 'A' AND income = 'high'";
        let opt = Executor::new(&c).with_guardrail(&guard, ErrorScheme::Rectify).run(sql).unwrap();
        let naive = Executor::new(&c)
            .with_guardrail(&guard, ErrorScheme::Rectify)
            .with_pushdown(false)
            .run(sql)
            .unwrap();
        assert_eq!(opt.table.to_csv_string(), naive.table.to_csv_string());
        assert_eq!(opt.table.num_rows(), 1, "rectified A row passes both conjuncts");
        assert!(opt.stats.predicates_pruned >= 1, "{:?}", opt.stats);
        assert!(opt.stats.predictions <= naive.stats.predictions);
    }

    #[test]
    fn exhausted_opt_budget_degrades_not_errors() {
        let train = people();
        let model = NaiveBayes::fit(&train, 2);
        let mut c = catalog();
        c.add_model("m", Arc::new(model));
        let sql = "SELECT PREDICT(m) AS p, age FROM people WHERE city = 'A' LIMIT 2";
        let starved = Executor::new(&c).with_opt_budget(1).run(sql).unwrap();
        let naive = Executor::new(&c).with_pushdown(false).run(sql).unwrap();
        assert!(!starved.degradation.is_complete(), "budget of 1 must exhaust");
        assert_eq!(starved.stats.rules_applied, 0);
        assert_eq!(starved.table.to_csv_string(), naive.table.to_csv_string());
        // A healthy budget reports a complete pass and applied rules.
        let healthy = Executor::new(&c).run(sql).unwrap();
        assert!(healthy.degradation.is_complete());
        assert!(healthy.stats.rules_applied > 0);
        assert_eq!(healthy.table.to_csv_string(), naive.table.to_csv_string());
    }

    #[test]
    fn explain_surfaces_applied_rules() {
        let c = catalog();
        let exec = Executor::new(&c);
        let plan = exec.explain("SELECT age FROM people WHERE city = 'A' AND city = 'A'").unwrap();
        assert!(plan.contains("Rules:"), "{plan}");
        assert!(plan.contains("ImpliedPredicatePruning"), "{plan}");
        assert!(plan.contains("PushPredicateThroughNonJoin"), "{plan}");
        // No optimizer run without pushdown: rules line absent.
        let plan = exec.with_pushdown(false).explain("SELECT age FROM people").unwrap();
        assert!(!plan.contains("Rules:"), "{plan}");
    }

    #[test]
    fn explain_analyze_surfaces_optimizer_counters() {
        let c = catalog();
        let report =
            Executor::new(&c).explain_analyze("SELECT age FROM people WHERE city = 'Z'").unwrap();
        assert!(report.contains("Optimizer:"), "{report}");
        assert!(report.contains("5 rows skipped by contradiction"), "{report}");
    }

    #[test]
    fn scan_limit_stops_scan_early() {
        let c = catalog();
        let out = Executor::new(&c).run("SELECT age FROM people LIMIT 2").unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.stats.rows_after_pushdown, 2, "scan stops at the pushed limit");
        let naive =
            Executor::new(&c).with_pushdown(false).run("SELECT age FROM people LIMIT 2").unwrap();
        assert_eq!(out.table.to_csv_string(), naive.table.to_csv_string());
    }

    #[test]
    fn group_by_merges_equal_numeric_keys() {
        let mut c = Catalog::new();
        c.add_table("g", Table::from_csv_str("a,b\n1,x\n2,y\n3,z\n").unwrap());
        // `1` and `1.0` are equal values, so they form one group.
        let out = Executor::new(&c)
            .run(
                "SELECT CASE WHEN a = 1 THEN 1 ELSE 1.0 END AS k, COUNT(*) AS n FROM g \
                 GROUP BY CASE WHEN a = 1 THEN 1 ELSE 1.0 END",
            )
            .unwrap()
            .table;
        assert_eq!(out.num_rows(), 1, "{}", out.to_csv_string());
        assert_eq!(out.get(0, 1), Some(Value::Int(3)));
    }

    #[test]
    fn aggregate_arithmetic_over_no_rows_is_null() {
        let t = run("SELECT AVG(age) * 2 AS x, COUNT(*) + 1 AS n FROM people WHERE age > 1000");
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.get(0, 0), Some(Value::Null));
        assert_eq!(t.get(0, 1), Some(Value::Int(1)));
    }

    #[test]
    fn where_sees_select_aliases_without_a_model() {
        // The WHERE filter sits above the projection in every plan, with
        // or without a PREDICT below it.
        for pushdown in [true, false] {
            let c = catalog();
            let out = Executor::new(&c)
                .with_pushdown(pushdown)
                .run("SELECT age AS years FROM people WHERE years > 45 ORDER BY years")
                .unwrap();
            assert_eq!(out.table.num_rows(), 2);
            assert_eq!(out.table.get(0, 0), Some(Value::Int(50)));
        }
    }
}
