#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! SQL front end for the RCC mini-DBMS.
//!
//! A hand-written lexer and recursive-descent parser for the SQL subset the
//! paper's workloads need — single- and multi-block SELECT queries with
//! joins, subqueries (FROM / EXISTS / IN), GROUP BY/HAVING/ORDER BY, DML,
//! and DDL for tables, indexes and cached materialized views — **plus the
//! paper's proposed `CURRENCY` clause** (Sec. 2):
//!
//! ```sql
//! SELECT b.title, r.rating
//! FROM books b, reviews r
//! WHERE b.isbn = r.isbn
//! CURRENCY BOUND 10 MIN ON (b, r)                 -- E1: one consistency class
//! ```
//!
//! ```sql
//! ... CURRENCY BOUND 10 MIN ON (b), 30 MIN ON (r) -- E2: independent classes
//! ... CURRENCY BOUND 10 MIN ON (b) BY b.isbn      -- E3: per-row grouping
//! ... CURRENCY BOUND 10 MIN ON (b, r) BY b.isbn   -- E4: join-pair grouping
//! ```
//!
//! The clause appears last in any SFW block and follows WHERE-clause scoping
//! rules: it may reference tables bound in the current *or enclosing* blocks
//! (paper Sec. 2.2, query Q3). Session-level timeline consistency is
//! `BEGIN TIMEORDERED` / `END TIMEORDERED` (Sec. 2.3).
//!
//! [`unparse`] regenerates SQL text from the AST; the cache uses it to build
//! the remote branch of SwitchUnion plans shipped to the back-end server.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod shape;
pub mod unparse;

pub use ast::*;
pub use parser::{parse_shape, parse_statement, parse_statements};
pub use shape::{marker_spans, shape, Anchor, Shape};
