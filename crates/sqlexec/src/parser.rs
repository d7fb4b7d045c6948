//! Recursive-descent SQL parser.

use crate::ast::{AggFunc, BinOp, Expr, Query, SelectItem, SortOrder};
use crate::error::SqlError;
use crate::token::{tokenize, Spanned, Token};
use guardrail_table::Value;

/// Nesting cap for the recursive descent: each parenthesized, `CASE`,
/// aggregate or `IN`-list sub-expression and each chained `NOT` or unary
/// minus takes one level. Deeper input is a parse error, not a stack
/// overflow.
const MAX_DEPTH: usize = 128;

/// Parses one `SELECT` query.
pub fn parse_query(sql: &str) -> Result<Query, SqlError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, end: sql.len(), depth: 0 };
    let q = p.query()?;
    if !p.at_end() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Byte length of the source: the position of an error at end of input.
    end: usize,
    /// Current nesting level (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        let position = self.tokens.get(self.pos).map_or(self.end, |t| t.position);
        SqlError::Parse { position, message: message.into() }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        match self.peek() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {kw}"))),
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        match self.peek() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                true
            }
            _ => false,
        }
    }

    fn punct(&mut self, p: &str) -> Result<(), SqlError> {
        match self.peek() {
            Some(Token::Punct(q)) if *q == p => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {p:?}"))),
        }
    }

    fn try_punct(&mut self, p: &str) -> bool {
        match self.peek() {
            Some(Token::Punct(q)) if *q == p => {
                self.pos += 1;
                true
            }
            _ => false,
        }
    }

    /// An identifier, stripping one level of `table.` qualification.
    fn identifier(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Token::Word(w)) => {
                if self.try_punct(".") {
                    match self.next() {
                        Some(Token::Word(col)) => Ok(col),
                        _ => Err(self.err("expected column after '.'")),
                    }
                } else {
                    Ok(w)
                }
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn query(&mut self) -> Result<Query, SqlError> {
        self.keyword("SELECT")?;
        let mut projections = vec![self.select_item()?];
        while self.try_punct(",") {
            projections.push(self.select_item()?);
        }
        self.keyword("FROM")?;
        let from = match self.next() {
            Some(Token::Word(w)) => w,
            _ => return Err(self.err("expected table name")),
        };
        let mut where_clause = None;
        let mut group_by = Vec::new();
        let mut having = None;
        let mut order_by = Vec::new();
        let mut limit = None;
        // The paper's queries put WHERE after GROUP BY sometimes (Fig. 1);
        // accept the clauses in any order.
        loop {
            if self.try_keyword("WHERE") {
                if where_clause.is_some() {
                    return Err(self.err("duplicate WHERE"));
                }
                where_clause = Some(self.expr()?);
            } else if self.try_keyword("GROUP") {
                self.keyword("BY")?;
                group_by.push(self.expr()?);
                while self.try_punct(",") {
                    group_by.push(self.expr()?);
                }
            } else if self.try_keyword("HAVING") {
                if having.is_some() {
                    return Err(self.err("duplicate HAVING"));
                }
                having = Some(self.expr()?);
            } else if self.try_keyword("ORDER") {
                self.keyword("BY")?;
                loop {
                    let e = self.expr()?;
                    let ord = if self.try_keyword("DESC") {
                        SortOrder::Desc
                    } else {
                        let _ = self.try_keyword("ASC");
                        SortOrder::Asc
                    };
                    order_by.push((e, ord));
                    if !self.try_punct(",") {
                        break;
                    }
                }
            } else if self.try_keyword("LIMIT") {
                match self.next() {
                    Some(Token::Literal(Value::Int(n))) if n >= 0 => limit = Some(n as usize),
                    _ => return Err(self.err("expected row count after LIMIT")),
                }
            } else {
                break;
            }
        }
        Ok(Query { projections, from, where_clause, group_by, having, order_by, limit })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        let start = self.pos;
        let expr = self.expr()?;
        let name = if self.try_keyword("AS") {
            match self.next() {
                Some(Token::Word(w)) => w,
                _ => return Err(self.err("expected alias after AS")),
            }
        } else {
            default_name(&expr, self.pos - start)
        };
        Ok(SelectItem { expr, name })
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Expr, SqlError>,
    ) -> Result<Expr, SqlError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("expression nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    // Precedence: OR < AND < NOT < comparison < additive < multiplicative < atom.
    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.try_keyword("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary { op: BinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.not_expr()?;
        while self.try_keyword("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary { op: BinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.try_keyword("NOT") {
            Ok(Expr::Not(Box::new(self.nested(Self::not_expr)?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.additive()?;
        // `x IN (a, b, …)`, `x NOT IN (…)`, `x BETWEEN lo AND hi` desugar to
        // equality/comparison chains right here — the executor never sees
        // them.
        if self.try_keyword("IN") {
            return self.in_list(left, false);
        }
        {
            let save = self.pos;
            if self.try_keyword("NOT") {
                if self.try_keyword("IN") {
                    return self.in_list(left, true);
                }
                self.pos = save;
            }
        }
        if self.try_keyword("BETWEEN") {
            let lo = self.additive()?;
            self.keyword("AND")?;
            let hi = self.additive()?;
            return Ok(Expr::Binary {
                op: BinOp::And,
                left: Box::new(Expr::Binary {
                    op: BinOp::Ge,
                    left: Box::new(left.clone()),
                    right: Box::new(lo),
                }),
                right: Box::new(Expr::Binary {
                    op: BinOp::Le,
                    left: Box::new(left),
                    right: Box::new(hi),
                }),
            });
        }
        let op = match self.peek() {
            Some(Token::Punct("=")) | Some(Token::Punct("==")) => Some(BinOp::Eq),
            Some(Token::Punct("!=")) | Some(Token::Punct("<>")) => Some(BinOp::Ne),
            Some(Token::Punct("<")) => Some(BinOp::Lt),
            Some(Token::Punct("<=")) => Some(BinOp::Le),
            Some(Token::Punct(">")) => Some(BinOp::Gt),
            Some(Token::Punct(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        match op {
            None => Ok(left),
            Some(op) => {
                self.pos += 1;
                let right = self.additive()?;
                Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) })
            }
        }
    }

    /// Finishes `left IN (e₁, …, eₙ)` as an OR-chain of equalities
    /// (negated when `negate`).
    fn in_list(&mut self, left: Expr, negate: bool) -> Result<Expr, SqlError> {
        self.punct("(")?;
        let mut items = vec![self.expr()?];
        while self.try_punct(",") {
            items.push(self.expr()?);
        }
        self.punct(")")?;
        let mut chain: Option<Expr> = None;
        for item in items {
            let eq =
                Expr::Binary { op: BinOp::Eq, left: Box::new(left.clone()), right: Box::new(item) };
            chain = Some(match chain {
                None => eq,
                Some(prev) => {
                    Expr::Binary { op: BinOp::Or, left: Box::new(prev), right: Box::new(eq) }
                }
            });
        }
        let chain = chain.expect("at least one item parsed");
        Ok(if negate { Expr::Not(Box::new(chain)) } else { chain })
    }

    fn additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Punct("+")) => BinOp::Add,
                Some(Token::Punct("-")) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Token::Punct("*")) => BinOp::Mul,
                Some(Token::Punct("/")) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.atom()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<Expr, SqlError> {
        match self.peek().cloned() {
            Some(Token::Literal(v)) => {
                self.pos += 1;
                Ok(Expr::Literal(v))
            }
            Some(Token::Punct("(")) => {
                self.pos += 1;
                let e = self.expr()?;
                self.punct(")")?;
                Ok(e)
            }
            Some(Token::Punct("-")) => {
                // Unary minus: fold into the literal when the operand is a
                // numeric constant (so `-1` round-trips as a literal), else
                // desugar to `0 - expr`.
                self.pos += 1;
                let inner = self.nested(Self::atom)?;
                match inner {
                    Expr::Literal(Value::Int(i)) => Ok(Expr::Literal(Value::Int(-i))),
                    Expr::Literal(Value::Float(f)) => Ok(Expr::Literal(Value::float(-f))),
                    other => Ok(Expr::Binary {
                        op: BinOp::Sub,
                        left: Box::new(Expr::Literal(Value::Int(0))),
                        right: Box::new(other),
                    }),
                }
            }
            Some(Token::Word(w)) => {
                if w.eq_ignore_ascii_case("CASE") {
                    return self.case_expr();
                }
                if let Some(func) = agg_func(&w) {
                    if matches!(
                        self.tokens.get(self.pos + 1).map(|s| &s.token),
                        Some(Token::Punct("("))
                    ) {
                        self.pos += 2; // word + (
                        let arg = if func == AggFunc::Count && self.try_punct("*") {
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.punct(")")?;
                        return Ok(Expr::Aggregate { func, arg });
                    }
                }
                if w.eq_ignore_ascii_case("PREDICT")
                    && matches!(
                        self.tokens.get(self.pos + 1).map(|s| &s.token),
                        Some(Token::Punct("("))
                    )
                {
                    self.pos += 2;
                    let model = match self.next() {
                        Some(Token::Word(m)) => m,
                        _ => return Err(self.err("expected model name in PREDICT()")),
                    };
                    self.punct(")")?;
                    return Ok(Expr::Predict { model });
                }
                // plain (possibly qualified) column
                let name = self.identifier()?;
                Ok(Expr::Column(name))
            }
            _ => Err(self.err("expected expression")),
        }
    }

    fn case_expr(&mut self) -> Result<Expr, SqlError> {
        self.keyword("CASE")?;
        let mut branches = Vec::new();
        while self.try_keyword("WHEN") {
            let cond = self.expr()?;
            self.keyword("THEN")?;
            let value = self.expr()?;
            branches.push((cond, value));
        }
        if branches.is_empty() {
            return Err(self.err("CASE needs at least one WHEN"));
        }
        let otherwise = if self.try_keyword("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.keyword("END")?;
        Ok(Expr::Case { branches, otherwise })
    }
}

fn agg_func(word: &str) -> Option<AggFunc> {
    match word.to_ascii_uppercase().as_str() {
        "AVG" => Some(AggFunc::Avg),
        "SUM" => Some(AggFunc::Sum),
        "COUNT" => Some(AggFunc::Count),
        "MIN" => Some(AggFunc::Min),
        "MAX" => Some(AggFunc::Max),
        _ => None,
    }
}

fn default_name(expr: &Expr, salt: usize) -> String {
    match expr {
        Expr::Column(c) => c.clone(),
        Expr::Predict { model } => format!("predict_{model}"),
        Expr::Aggregate { func, arg } => {
            let f = match func {
                AggFunc::Avg => "avg",
                AggFunc::Sum => "sum",
                AggFunc::Count => "count",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
            };
            match arg.as_deref() {
                Some(Expr::Column(c)) => format!("{f}_{c}"),
                _ => format!("{f}_{salt}"),
            }
        }
        _ => format!("expr_{salt}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_case_study_query() {
        let q = parse_query(
            "SELECT PREDICT(income_model) AS income_pred, AVG(adult.age) \
             FROM adult GROUP BY income_pred WHERE adult.workclass == 'Private'",
        )
        .unwrap();
        assert_eq!(q.from, "adult");
        assert_eq!(q.projections.len(), 2);
        assert_eq!(q.projections[0].name, "income_pred");
        assert!(matches!(q.projections[0].expr, Expr::Predict { .. }));
        assert_eq!(q.projections[1].name, "avg_age");
        assert!(q.where_clause.is_some());
        assert_eq!(q.group_by, vec![Expr::Column("income_pred".into())]);
    }

    #[test]
    fn parses_case_when_aggregate() {
        let q = parse_query("SELECT AVG(CASE WHEN label = 1 THEN 1 ELSE 0 END) FROM t").unwrap();
        assert!(q.projections[0].expr.has_aggregate());
    }

    #[test]
    fn parses_count_star_and_order_limit() {
        let q = parse_query(
            "SELECT city, COUNT(*) AS n FROM t GROUP BY city ORDER BY n DESC, city LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].1, SortOrder::Desc);
        assert_eq!(q.limit, Some(5));
        assert!(matches!(
            q.projections[1].expr,
            Expr::Aggregate { func: AggFunc::Count, arg: None }
        ));
    }

    #[test]
    fn operator_precedence() {
        let q = parse_query("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // OR is the root.
        match q.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("expected OR at root, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_unary_minus() {
        let q = parse_query("SELECT a + b * 2 FROM t WHERE c > -1").unwrap();
        match &q.projections[0].expr {
            Expr::Binary { op: BinOp::Add, right, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_and_between_desugar() {
        let q = parse_query("SELECT a FROM t WHERE a IN (1, 2, 3)").unwrap();
        // OR chain of equalities.
        let mut count = 0;
        fn count_eq(e: &Expr, n: &mut usize) {
            match e {
                Expr::Binary { op: BinOp::Eq, .. } => *n += 1,
                Expr::Binary { left, right, .. } => {
                    count_eq(left, n);
                    count_eq(right, n);
                }
                Expr::Not(inner) => count_eq(inner, n),
                _ => {}
            }
        }
        count_eq(&q.where_clause.unwrap(), &mut count);
        assert_eq!(count, 3);

        let q = parse_query("SELECT a FROM t WHERE a NOT IN (1, 2)").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Expr::Not(_)));

        let q = parse_query("SELECT a FROM t WHERE a BETWEEN 2 AND 5").unwrap();
        match q.where_clause.unwrap() {
            Expr::Binary { op: BinOp::And, left, right } => {
                assert!(matches!(*left, Expr::Binary { op: BinOp::Ge, .. }));
                assert!(matches!(*right, Expr::Binary { op: BinOp::Le, .. }));
            }
            other => panic!("{other:?}"),
        }
        // NOT followed by a plain expression still parses.
        assert!(parse_query("SELECT a FROM t WHERE NOT a = 1 AND b NOT IN (2)").is_ok());
    }

    #[test]
    fn not_expression() {
        let q = parse_query("SELECT a FROM t WHERE NOT a = 1").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Expr::Not(_)));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("SELECT FROM t").is_err());
        assert!(parse_query("SELECT a").is_err());
        assert!(parse_query("SELECT a FROM t garbage here").is_err());
        assert!(parse_query("SELECT CASE END FROM t").is_err());
        assert!(parse_query("SELECT a FROM t WHERE").is_err());
    }

    #[test]
    fn error_at_end_of_input_points_past_the_last_byte() {
        let sql = "SELECT a FROM";
        match parse_query(sql) {
            Err(SqlError::Parse { position, .. }) => assert_eq!(position, sql.len()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| {
            format!("SELECT a FROM t WHERE {}a = 1{}", "(".repeat(depth), ")".repeat(depth))
        };
        assert!(parse_query(&nested(MAX_DEPTH - 1)).is_ok());
        assert!(parse_query(&nested(100_000)).is_err());
        let nots = format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(100_000));
        assert!(parse_query(&nots).is_err());
        let minuses = format!("SELECT {}1 FROM t", "- ".repeat(100_000));
        assert!(parse_query(&minuses).is_err());
    }
}
