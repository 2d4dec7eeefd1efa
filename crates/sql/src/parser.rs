//! Recursive-descent parser for the SQL dialect and the XNF extension.
//!
//! The grammar follows the paper's surface syntax for XNF (Sect. 2, Fig. 1)
//! with one addition: an optional `ROOT` marker on component definitions so
//! recursive COs (cyclic schema graphs) can name their anchors explicitly.

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Words that cannot be used as implicit (AS-less) aliases.
const RESERVED: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "HAVING",
    "ORDER",
    "BY",
    "LIMIT",
    "UNION",
    "ALL",
    "DISTINCT",
    "AS",
    "ON",
    "JOIN",
    "INNER",
    "AND",
    "OR",
    "NOT",
    "IN",
    "EXISTS",
    "LIKE",
    "BETWEEN",
    "IS",
    "NULL",
    "TRUE",
    "FALSE",
    "INSERT",
    "INTO",
    "VALUES",
    "UPDATE",
    "SET",
    "DELETE",
    "CREATE",
    "TABLE",
    "INDEX",
    "VIEW",
    "UNIQUE",
    "DROP",
    "ANALYZE",
    "OUT",
    "OF",
    "TAKE",
    "RELATE",
    "VIA",
    "USING",
    "ROOT",
    "ASC",
    "DESC",
    "MATERIALIZED",
    "REFRESH",
];

/// Parse a sequence of semicolon-separated statements.
pub fn parse_statements(input: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at_eof() {
            return Ok(out);
        }
        out.push(p.statement()?);
    }
}

/// Parse exactly one statement.
pub fn parse_statement(input: &str) -> Result<Statement> {
    Ok(parse_statement_params(input)?.0)
}

/// Parse exactly one statement, also returning the number of `?` parameter
/// placeholders it contains (the prepared-statement signature).
pub fn parse_statement_params(input: &str) -> Result<(Statement, usize)> {
    let mut p = Parser::new(input)?;
    while p.eat(&TokenKind::Semicolon) {}
    if p.at_eof() {
        return Err(ParseError::new("empty input", 1, 1));
    }
    let stmt = p.statement()?;
    while p.eat(&TokenKind::Semicolon) {}
    if !p.at_eof() {
        return Err(ParseError::new("expected a single statement", 1, 1));
    }
    Ok((stmt, p.params))
}

/// Parse a SELECT query.
pub fn parse_select(input: &str) -> Result<Select> {
    match parse_statement(input)? {
        Statement::Select(s) => Ok(s),
        _ => Err(ParseError::new("expected a SELECT statement", 1, 1)),
    }
}

/// Parse an XNF query (`OUT OF ... TAKE ...`).
pub fn parse_xnf(input: &str) -> Result<XnfQuery> {
    match parse_statement(input)? {
        Statement::Xnf(q) => Ok(q),
        _ => Err(ParseError::new("expected an XNF (OUT OF) query", 1, 1)),
    }
}

/// Parse a standalone expression (used by tests and the API layer).
pub fn parse_expr(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input)?;
    let e = p.expr()?;
    if !p.at_eof() {
        return Err(p.err_here("trailing input after expression"));
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Number of `?` placeholders seen so far (assigns positional ordinals).
    params: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
            params: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, n: usize) -> &Token {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn advance(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError::new(msg, t.line, t.col)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        if &self.peek().kind == kind {
            Ok(self.advance())
        } else {
            Err(self.err_here(format!("expected '{}', found '{}'", kind, self.peek().kind)))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().kind.is_kw(kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected '{kw}', found '{}'", self.peek().kind)))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => Err(self.err_here(format!("expected identifier, found '{other}'"))),
        }
    }

    /// An identifier usable as an implicit alias (not reserved).
    fn maybe_alias(&mut self) -> Option<String> {
        if let TokenKind::Ident(s) = &self.peek().kind {
            if !RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r)) {
                let s = s.clone();
                self.advance();
                return Some(s);
            }
        }
        None
    }

    // -- statements ---------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.at_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.at_kw("OUT") {
            return Ok(Statement::Xnf(self.xnf_query()?));
        }
        if self.at_kw("INSERT") {
            return self.insert();
        }
        if self.at_kw("UPDATE") {
            return self.update();
        }
        if self.at_kw("DELETE") {
            return self.delete();
        }
        if self.at_kw("CREATE") {
            return self.create();
        }
        if self.at_kw("DROP") {
            return self.drop();
        }
        if self.eat_kw("REFRESH") {
            self.expect_kw("MATERIALIZED")?;
            self.expect_kw("VIEW")?;
            return Ok(Statement::RefreshView {
                name: self.ident()?,
            });
        }
        if self.eat_kw("ANALYZE") {
            let table = if let TokenKind::Ident(_) = self.peek().kind {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Statement::Analyze { table });
        }
        if self.eat_kw("VACUUM") {
            let table = if let TokenKind::Ident(_) = self.peek().kind {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Statement::Vacuum { table });
        }
        Err(self.err_here(format!(
            "expected a statement, found '{}'",
            self.peek().kind
        )))
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            let name = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut columns = Vec::new();
            loop {
                let cname = self.ident()?;
                let ty = self.type_name()?;
                let mut not_null = false;
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    not_null = true;
                }
                columns.push(ColumnDef {
                    name: cname,
                    ty,
                    not_null,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Statement::CreateTable { name, columns });
        }
        let unique = self.eat_kw("UNIQUE");
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            });
        }
        if unique {
            return Err(self.err_here("expected INDEX after UNIQUE"));
        }
        let materialized = self.eat_kw("MATERIALIZED");
        if self.eat_kw("VIEW") {
            let name = self.ident()?;
            self.expect_kw("AS")?;
            let body = if self.at_kw("OUT") {
                ViewBody::Xnf(self.xnf_query()?)
            } else {
                ViewBody::Select(self.select()?)
            };
            return Ok(Statement::CreateView {
                name,
                body,
                materialized,
            });
        }
        if materialized {
            return Err(self.err_here("expected VIEW after MATERIALIZED"));
        }
        Err(self.err_here("expected TABLE, INDEX or VIEW after CREATE"))
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        if self.eat_kw("TABLE") {
            return Ok(Statement::DropTable {
                name: self.ident()?,
            });
        }
        // `DROP [MATERIALIZED] VIEW`: materialized views drop through the
        // same path (the catalog tears down backing storage either way).
        let materialized = self.eat_kw("MATERIALIZED");
        if self.eat_kw("VIEW") {
            return Ok(Statement::DropView {
                name: self.ident()?,
            });
        }
        if materialized {
            return Err(self.err_here("expected VIEW after MATERIALIZED"));
        }
        Err(self.err_here("expected TABLE or VIEW after DROP"))
    }

    fn type_name(&mut self) -> Result<TypeName> {
        let name = self.ident()?;
        let up = name.to_ascii_uppercase();
        match up.as_str() {
            "INT" | "INTEGER" | "BIGINT" => Ok(TypeName::Int),
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" => Ok(TypeName::Double),
            "VARCHAR" | "CHAR" | "TEXT" | "STRING" => {
                // Optional length: VARCHAR(30).
                if self.eat(&TokenKind::LParen) {
                    self.expect_int()?;
                    self.expect(&TokenKind::RParen)?;
                }
                Ok(TypeName::Varchar)
            }
            "BOOLEAN" | "BOOL" => Ok(TypeName::Boolean),
            _ => Err(self.err_here(format!("unknown type '{name}'"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64> {
        match self.peek().kind {
            TokenKind::Int(i) => {
                self.advance();
                Ok(i)
            }
            _ => Err(self.err_here("expected integer literal")),
        }
    }

    // -- SELECT -------------------------------------------------------------

    fn select(&mut self) -> Result<Select> {
        let mut q = self.select_core()?;
        while self.eat_kw("UNION") {
            let all = self.eat_kw("ALL");
            // Parse the branch with select_core so `A UNION B UNION C`
            // flattens into one list instead of right-nesting.
            let rhs = self.select_core()?;
            q.unions.push((all, rhs));
        }
        // A trailing ORDER BY / LIMIT orders and cuts the whole union, not
        // its last branch.
        if let Some((_, last)) = q.unions.last_mut() {
            if !last.order_by.is_empty() || last.limit.is_some() {
                q.order_by = std::mem::take(&mut last.order_by);
                q.limit = last.limit.take();
            }
        }
        Ok(q)
    }

    fn select_core(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let mut q = Select::empty();
        q.distinct = self.eat_kw("DISTINCT");
        if q.distinct {
            // `SELECT DISTINCT ALL` is not a thing; but accept plain ALL.
        } else {
            self.eat_kw("ALL");
        }
        loop {
            q.items.push(self.select_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        if self.eat_kw("FROM") {
            loop {
                q.from.push(self.table_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            while self.at_kw("JOIN") || self.at_kw("INNER") {
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                q.joins.push(Join { table, on });
            }
        }
        if self.eat_kw("WHERE") {
            q.where_clause = Some(self.expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                q.group_by.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            q.having = Some(self.expr()?);
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                q.order_by.push(OrderItem { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            q.limit = Some(self.expect_int()? as u64);
        }
        Ok(q)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if let TokenKind::Ident(q) = &self.peek().kind {
            if self.peek_at(1).kind == TokenKind::Dot && self.peek_at(2).kind == TokenKind::Star {
                let q = q.clone();
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            self.maybe_alias()
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if self.eat(&TokenKind::LParen) {
            let select = self.select()?;
            self.expect(&TokenKind::RParen)?;
            let alias = if self.eat_kw("AS") {
                self.ident()?
            } else {
                self.maybe_alias()
                    .ok_or_else(|| self.err_here("derived table requires an alias"))?
            };
            return Ok(TableRef::Derived {
                select: Box::new(select),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            self.maybe_alias()
        };
        Ok(TableRef::Named { name, alias })
    }

    // -- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // Postfix predicates.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.at_kw("NOT")
            && (self.peek_at(1).kind.is_kw("LIKE")
                || self.peek_at(1).kind.is_kw("BETWEEN")
                || self.peek_at(1).kind.is_kw("IN"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw("LIKE") {
            let pattern = match &self.peek().kind {
                TokenKind::Str(s) => {
                    let s = s.clone();
                    self.advance();
                    s
                }
                _ => return Err(self.err_here("LIKE requires a string literal pattern")),
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect(&TokenKind::LParen)?;
            if self.at_kw("SELECT") {
                let sub = self.select()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(sub),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if negated {
            return Err(self.err_here("expected LIKE, BETWEEN or IN after NOT"));
        }
        let op = match self.peek().kind {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::NotEq => BinOp::NotEq,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::LtEq => BinOp::LtEq,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::GtEq => BinOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().kind.clone() {
            TokenKind::Int(i) => {
                self.advance();
                Ok(Expr::Literal(Literal::Int(i)))
            }
            TokenKind::Float(x) => {
                self.advance();
                Ok(Expr::Literal(Literal::Float(x)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::Str(s)))
            }
            TokenKind::Placeholder => {
                self.advance();
                let ordinal = self.params;
                self.params += 1;
                Ok(Expr::Param(ordinal))
            }
            TokenKind::LParen => {
                self.advance();
                if self.at_kw("SELECT") {
                    return Err(
                        self.err_here("scalar subqueries are not supported; use EXISTS or IN")
                    );
                }
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("NULL") {
                    self.advance();
                    return Ok(Expr::Literal(Literal::Null));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    self.advance();
                    return Ok(Expr::Literal(Literal::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.advance();
                    return Ok(Expr::Literal(Literal::Bool(false)));
                }
                if name.eq_ignore_ascii_case("EXISTS") {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let sub = self.select()?;
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Exists {
                        subquery: Box::new(sub),
                        negated: false,
                    });
                }
                // Function call?
                if self.peek_at(1).kind == TokenKind::LParen {
                    if let Some(agg) = agg_func(&name) {
                        self.advance();
                        self.advance();
                        if agg == AggFunc::Count && self.eat(&TokenKind::Star) {
                            self.expect(&TokenKind::RParen)?;
                            return Ok(Expr::Agg {
                                func: agg,
                                arg: None,
                                distinct: false,
                            });
                        }
                        let distinct = self.eat_kw("DISTINCT");
                        let arg = self.expr()?;
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::Agg {
                            func: agg,
                            arg: Some(Box::new(arg)),
                            distinct,
                        });
                    }
                    if let Some(sf) = scalar_func(&name) {
                        self.advance();
                        self.advance();
                        let mut args = Vec::new();
                        if self.peek().kind != TokenKind::RParen {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat(&TokenKind::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::Func { func: sf, args });
                    }
                    return Err(self.err_here(format!("unknown function '{name}'")));
                }
                // Reserved words (other than the literals and EXISTS handled
                // above) cannot begin an expression: `SELECT FROM t` must
                // error on FROM rather than read it as a column.
                if RESERVED.iter().any(|r| name.eq_ignore_ascii_case(r)) {
                    return Err(
                        self.err_here(format!("expected expression, found keyword '{name}'"))
                    );
                }
                // Column reference, possibly qualified.
                self.advance();
                if self.eat(&TokenKind::Dot) {
                    let col = self.ident()?;
                    Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    })
                } else {
                    Ok(Expr::Column {
                        qualifier: None,
                        name,
                    })
                }
            }
            other => Err(self.err_here(format!("expected expression, found '{other}'"))),
        }
    }

    // -- XNF ------------------------------------------------------------

    fn xnf_query(&mut self) -> Result<XnfQuery> {
        self.expect_kw("OUT")?;
        self.expect_kw("OF")?;
        let mut defs = Vec::new();
        loop {
            defs.push(self.xnf_def()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kw("TAKE")?;
        let take = if self.eat(&TokenKind::Star) {
            XnfTake::All
        } else {
            let mut items = Vec::new();
            loop {
                let name = self.ident()?;
                let columns = if self.eat(&TokenKind::LParen) {
                    let mut cols = Vec::new();
                    loop {
                        cols.push(self.ident()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    Some(cols)
                } else {
                    None
                };
                items.push(XnfTakeItem { name, columns });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            XnfTake::Items(items)
        };
        let restriction = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(XnfQuery {
            defs,
            take,
            restriction,
        })
    }

    fn xnf_def(&mut self) -> Result<XnfDef> {
        let root = self.eat_kw("ROOT");
        let name = self.ident()?;
        if !self.eat_kw("AS") {
            if root {
                return Err(self.err_here("ROOT requires a component definition (name AS ...)"));
            }
            return Ok(XnfDef::ViewRef { name });
        }
        // Parenthesised body: (SELECT ...) or (RELATE ...).
        if self.eat(&TokenKind::LParen) {
            if self.at_kw("RELATE") {
                let rel = self.relate(name)?;
                self.expect(&TokenKind::RParen)?;
                if root {
                    return Err(
                        self.err_here("ROOT applies to component tables, not relationships")
                    );
                }
                return Ok(XnfDef::Relationship(rel));
            }
            let select = self.select()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(XnfDef::Table {
                name,
                select: Box::new(select),
                root,
            });
        }
        // Unparenthesised RELATE (as printed for `employment` in Fig. 1).
        if self.at_kw("RELATE") {
            let rel = self.relate(name)?;
            if root {
                return Err(self.err_here("ROOT applies to component tables, not relationships"));
            }
            return Ok(XnfDef::Relationship(rel));
        }
        // Shortcut: `xemp AS EMP` means SELECT * FROM EMP.
        let base = self.ident()?;
        let select = Select {
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef::Named {
                name: base,
                alias: None,
            }],
            ..Select::empty()
        };
        Ok(XnfDef::Table {
            name,
            select: Box::new(select),
            root,
        })
    }

    fn relate(&mut self, name: String) -> Result<XnfRelationship> {
        self.expect_kw("RELATE")?;
        let parent = self.ident()?;
        self.expect_kw("VIA")?;
        let role = self.ident()?;
        self.expect(&TokenKind::Comma)?;
        let mut children = vec![self.ident()?];
        // Further children: `, ident` as long as the ident is not the start
        // of the next OUT OF definition (i.e. not followed by AS).
        while self.peek().kind == TokenKind::Comma {
            if let TokenKind::Ident(_) = self.peek_at(1).kind {
                if self.peek_at(2).kind.is_kw("AS") {
                    break;
                }
                self.advance(); // comma
                children.push(self.ident()?);
            } else {
                break;
            }
        }
        let mut using = Vec::new();
        if self.eat_kw("USING") {
            loop {
                let t = self.ident()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else {
                    self.maybe_alias()
                };
                using.push((t, alias));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("WHERE")?;
        let predicate = self.expr()?;
        Ok(XnfRelationship {
            name,
            parent,
            role,
            children,
            using,
            predicate,
        })
    }
}

fn agg_func(name: &str) -> Option<AggFunc> {
    let up = name.to_ascii_uppercase();
    match up.as_str() {
        "COUNT" => Some(AggFunc::Count),
        "SUM" => Some(AggFunc::Sum),
        "AVG" => Some(AggFunc::Avg),
        "MIN" => Some(AggFunc::Min),
        "MAX" => Some(AggFunc::Max),
        _ => None,
    }
}

fn scalar_func(name: &str) -> Option<ScalarFunc> {
    let up = name.to_ascii_uppercase();
    match up.as_str() {
        "ABS" => Some(ScalarFunc::Abs),
        "UPPER" => Some(ScalarFunc::Upper),
        "LOWER" => Some(ScalarFunc::Lower),
        "LENGTH" => Some(ScalarFunc::Length),
        _ => None,
    }
}
