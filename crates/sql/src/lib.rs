//! # qrec-sql — SQL substrate for workload-aware query recommendation
//!
//! This crate provides everything the `qrec` stack needs to understand SQL
//! query *statements* the way the paper does:
//!
//! * [`lexer`] / [`parser`] — a hand-written lexer and recursive-descent
//!   parser for the `SELECT` dialect the SDSS and SQLShare workloads use
//!   (joins, subqueries, set ops, `TOP`/`LIMIT`, `CASE`, `CAST`, …).
//! * [`ast`] — the abstract syntax tree, with a canonical
//!   [`Display`](std::fmt::Display) rendering ([`display`]).
//! * [`mod@template`] — query templates (Definition 5): the AST with tables,
//!   columns, functions, and literals replaced by placeholders and aliases
//!   removed. These are the classification labels of the paper's next
//!   template prediction task.
//! * [`fragments`] — query fragments (Definition 4): the sets of tables,
//!   columns, functions, and literals in a query, the targets of next
//!   fragment prediction.
//! * [`normalize`] — alias resolution and numeric-literal canonicalisation
//!   (the paper's pre-processing, Section 5.4.1).
//! * [`tokenize`] — the word-token sequences fed to the sequence models
//!   (Definition 1), with numbers collapsed to `<NUM>`.
//! * [`serving`] — [`prepare`], a statement's tokens and template id
//!   from one parse: what a server pushing it into a session reads.
//!
//! ## Quick example
//!
//! ```
//! use qrec_sql::{parse, template, fragments};
//!
//! let q = parse("SELECT j.target FROM Jobs j WHERE j.queue = 'FULL'").unwrap();
//! let t = template::template(&q);
//! assert_eq!(t.statement(), "SELECT Column FROM Table WHERE Column = Literal");
//! let f = fragments::extract(&q);
//! assert!(f.tables.contains("Jobs"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod display;
pub mod error;
pub mod fragments;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod serving;
pub mod template;
pub mod token;
pub mod tokenize;

pub use ast::Query;
pub use error::ParseError;
pub use fragments::{extract as extract_fragments, FragmentKind, FragmentSet};
pub use parser::{parse, parse_many};
pub use serving::{parse_resolved, prepare, Prepared};
pub use template::{template, template_id, Template};
pub use tokenize::{canonical_tokens, query_tokens, sql_tokens};
