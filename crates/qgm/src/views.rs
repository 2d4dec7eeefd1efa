//! Stored view definitions: the one reader and the one XNF-view inliner.
//!
//! A view is stored as text. Every path that needs its definition — SQL
//! view expansion, XNF view inlining, write-back metadata, materialized-view
//! maintenance — reads it through [`view_body`]. Every path that needs an
//! `OUT OF` query with its XNF view references expanded (XNF views are
//! closed under composition, Sect. 2) goes through [`inline_xnf_views`].

use std::borrow::Cow;

use xnf_sql::{parse_statement, Statement, ViewBody, XnfDef, XnfQuery};
use xnf_storage::{Catalog, ViewDef, ViewKind};

use crate::error::{QgmError, Result};

/// Maximum XNF view nesting (guards against views that reference
/// themselves).
const MAX_INLINE_DEPTH: u32 = 16;

/// The definition a stored view's text holds: a SELECT or an `OUT OF`
/// query, bare or wrapped in `CREATE VIEW`.
pub fn view_body(view: &ViewDef) -> Result<ViewBody> {
    match parse_statement(&view.text)? {
        Statement::Select(s) => Ok(ViewBody::Select(s)),
        Statement::Xnf(q) => Ok(ViewBody::Xnf(q)),
        Statement::CreateView { body, .. } => Ok(body),
        _ => Err(QgmError::Unsupported(format!(
            "stored definition of view '{}' is not a query",
            view.name
        ))),
    }
}

/// `q` with every XNF view reference replaced, recursively, by the
/// referenced view's component and relationship definitions (its TAKE and
/// restriction do not carry over). Borrows `q` when it references no view.
pub fn inline_xnf_views<'q>(catalog: &Catalog, q: &'q XnfQuery) -> Result<Cow<'q, XnfQuery>> {
    if !q.defs.iter().any(|d| matches!(d, XnfDef::ViewRef { .. })) {
        return Ok(Cow::Borrowed(q));
    }
    let mut defs = Vec::with_capacity(q.defs.len());
    inline_defs(catalog, &q.defs, &mut defs, 0)?;
    Ok(Cow::Owned(XnfQuery {
        defs,
        take: q.take.clone(),
        restriction: q.restriction.clone(),
    }))
}

fn inline_defs(
    catalog: &Catalog,
    defs: &[XnfDef],
    out: &mut Vec<XnfDef>,
    depth: u32,
) -> Result<()> {
    if depth > MAX_INLINE_DEPTH {
        return Err(QgmError::Xnf(
            "XNF view inlining too deep (cycle?)".to_string(),
        ));
    }
    for def in defs {
        let XnfDef::ViewRef { name } = def else {
            out.push(def.clone());
            continue;
        };
        let view = catalog
            .view(name)
            .ok_or_else(|| QgmError::UnknownTable(name.clone()))?;
        if view.kind != ViewKind::Xnf {
            return Err(QgmError::Xnf(format!(
                "'{name}' is a relational view; XNF queries inline only XNF views"
            )));
        }
        let ViewBody::Xnf(inner) = view_body(&view)? else {
            return Err(QgmError::Xnf(format!(
                "stored text of XNF view '{name}' is not an OUT OF query"
            )));
        };
        inline_defs(catalog, &inner.defs, out, depth + 1)?;
    }
    Ok(())
}
