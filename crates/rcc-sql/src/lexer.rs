//! SQL lexer.

use rcc_common::{Error, Result};
use std::fmt;

/// A lexical token with its starting source position (for error messages
/// and lint-diagnostic spans).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset into the source where the token starts.
    pub pos: usize,
    /// 1-based source line where the token starts (filled by [`tokenize`]).
    pub line: u32,
    /// 1-based column where the token starts (filled by [`tokenize`]).
    pub col: u32,
}

impl Token {
    /// A token at `pos` whose line/column are resolved later in one pass
    /// over the source (see [`tokenize`]).
    fn new(kind: TokenKind, pos: usize) -> Token {
        Token {
            kind,
            pos,
            line: 0,
            col: 0,
        }
    }
}

/// Resolve a byte offset to a 1-based (line, column) pair.
pub fn line_col(src: &str, byte: usize) -> (u32, u32) {
    let (mut line, mut col) = (1u32, 1u32);
    for (i, c) in src.char_indices() {
        if i >= byte {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// Build an [`Error::Lex`] carrying both the byte offset and its resolved
/// line/column.
fn lex_err(input: &str, pos: usize, message: String) -> Error {
    let (line, col) = line_col(input, pos);
    Error::Lex {
        pos,
        line,
        col,
        message,
    }
}

/// Token kinds. Keywords are recognized case-insensitively and carried as
/// their canonical upper-case spelling inside `Keyword`.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A reserved word (`SELECT`, `CURRENCY`, ...).
    Keyword(String),
    /// An unquoted identifier, lower-cased.
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A single-quoted string literal (quotes stripped, '' unescaped).
    Str(String),
    /// A `$name` query parameter.
    Param(String),
    /// `=`, `<>`, `<`, `<=`, `>`, `>=`.
    Op(String),
    /// `+ - * /`.
    Arith(char),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `.`.
    Dot,
    /// `;`.
    Semi,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::Ident(i) => write!(f, "{i}"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Param(p) => write!(f, "${p}"),
            TokenKind::Op(o) => write!(f, "{o}"),
            TokenKind::Arith(c) => write!(f, "{c}"),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::Dot => f.write_str("."),
            TokenKind::Semi => f.write_str(";"),
            TokenKind::Eof => f.write_str("<eof>"),
        }
    }
}

/// Every word treated as a keyword by the parser. Includes the currency
/// clause vocabulary from the paper (`CURRENCY`, `BOUND`, `ON`, `BY`, time
/// units) and the session brackets (`TIMEORDERED`).
const KEYWORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "ORDER",
    "BY",
    "HAVING",
    "AS",
    "AND",
    "OR",
    "NOT",
    "IN",
    "EXISTS",
    "BETWEEN",
    "IS",
    "NULL",
    "TRUE",
    "FALSE",
    "JOIN",
    "INNER",
    "LEFT",
    "OUTER",
    "ON",
    "DISTINCT",
    "LIMIT",
    "ASC",
    "DESC",
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
    "CACHED",
    "PRIMARY",
    "KEY",
    "INT",
    "FLOAT",
    "VARCHAR",
    "BOOL",
    "TIMESTAMP",
    "CURRENCY",
    "BOUND",
    "MS",
    "SEC",
    "SECOND",
    "SECONDS",
    "MIN",
    "MINUTE",
    "MINUTES",
    "HOUR",
    "HOURS",
    "BEGIN",
    "END",
    "TIMEORDERED",
    "REGION",
    "COUNT",
    "SUM",
    "AVG",
    "MAX",
    "GETDATE",
    "CLUSTERED",
    "DROP",
    "REFRESH",
    "INTERVAL",
    "DELAY",
    "VERIFY",
    "LINT",
    "SHOW",
    "TEMPLATE",
    "TEMPLATES",
    "AUDIT",
    "EXPLAIN",
    "FLOW",
];

/// Tokenize `input` into a vector ending with [`TokenKind::Eof`].
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = lex(input, false)?;
    resolve_lines(&mut tokens, input);
    Ok(tokens)
}

/// Tokenize `key`, the key of the [`Shape`](crate::shape::Shape) of
/// `original`, whose markers stand for the `spans` of `original`. A slot
/// marker `?<n><t>` is the parameter token `$?<n>` (a name no client can
/// write), and every token is positioned where it — or, for a marker, what
/// it replaced — stands in `original`.
pub(crate) fn tokenize_shape(
    key: &str,
    original: &str,
    spans: &[(usize, usize)],
) -> Result<Vec<Token>> {
    let mut tokens = lex(key, true)?;
    // after each marker the key and the original are out of step by the
    // difference in length between the marker and what it replaced
    let mut spans = spans.iter();
    let mut shift = 0isize;
    for t in &mut tokens {
        match &t.kind {
            TokenKind::Param(p) if p.starts_with('?') => {
                let Some(&(start, end)) = spans.next() else {
                    let message = "slot marker without a span in the original text".into();
                    return Err(lex_err(key, t.pos, message));
                };
                let marker_len = p.len() + 1; // `?<n>` and the type letter
                shift = end as isize - (t.pos + marker_len) as isize;
                t.pos = start;
            }
            _ => t.pos = (t.pos as isize + shift) as usize,
        }
    }
    resolve_lines(&mut tokens, original);
    Ok(tokens)
}

/// The tokens of `input`, positioned by byte offset only. With `markers`
/// the slot markers of a shape key are tokens; without, `?` is the
/// unexpected character it has always been.
fn lex(input: &str, markers: bool) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::new(TokenKind::LParen, i));
                i += 1;
            }
            ')' => {
                tokens.push(Token::new(TokenKind::RParen, i));
                i += 1;
            }
            ',' => {
                tokens.push(Token::new(TokenKind::Comma, i));
                i += 1;
            }
            ';' => {
                tokens.push(Token::new(TokenKind::Semi, i));
                i += 1;
            }
            '.' if !(i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit()) => {
                tokens.push(Token::new(TokenKind::Dot, i));
                i += 1;
            }
            '+' | '*' | '/' => {
                tokens.push(Token::new(TokenKind::Arith(c), i));
                i += 1;
            }
            '-' => {
                tokens.push(Token::new(TokenKind::Arith('-'), i));
                i += 1;
            }
            '=' => {
                tokens.push(Token::new(TokenKind::Op("=".into()), i));
                i += 1;
            }
            '<' => {
                let (op, adv) = if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    ("<=", 2)
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    ("<>", 2)
                } else {
                    ("<", 1)
                };
                tokens.push(Token::new(TokenKind::Op(op.into()), i));
                i += adv;
            }
            '>' => {
                let (op, adv) = if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    (">=", 2)
                } else {
                    (">", 1)
                };
                tokens.push(Token::new(TokenKind::Op(op.into()), i));
                i += adv;
            }
            '!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                tokens.push(Token::new(TokenKind::Op("<>".into()), i));
                i += 2;
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(lex_err(input, start, "unterminated string literal".into()));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(bytes[i] as char);
                        i += 1;
                    }
                }
                tokens.push(Token::new(TokenKind::Str(s), start));
            }
            '$' => {
                let start = i;
                i += 1;
                let begin = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                if begin == i {
                    return Err(lex_err(input, start, "empty parameter name".into()));
                }
                tokens.push(Token::new(
                    TokenKind::Param(input[begin..i].to_ascii_lowercase()),
                    start,
                ));
            }
            '?' if markers => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i == start + 1 || !bytes.get(i).is_some_and(u8::is_ascii_lowercase) {
                    return Err(lex_err(input, start, "malformed slot marker".into()));
                }
                tokens.push(Token::new(
                    TokenKind::Param(input[start..i].to_string()),
                    start,
                ));
                i += 1; // the type letter
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                let mut saw_dot = false;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit() || (bytes[i] == b'.' && !saw_dot))
                {
                    if bytes[i] == b'.' {
                        saw_dot = true;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                let kind = if saw_dot {
                    TokenKind::Float(text.parse().map_err(|_| {
                        lex_err(input, start, format!("bad float literal '{text}'"))
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| {
                        lex_err(input, start, format!("bad integer literal '{text}'"))
                    })?)
                };
                tokens.push(Token::new(kind, start));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                let upper = word.to_ascii_uppercase();
                let kind = if KEYWORDS.contains(&upper.as_str()) {
                    TokenKind::Keyword(upper)
                } else {
                    TokenKind::Ident(word.to_ascii_lowercase())
                };
                tokens.push(Token::new(kind, start));
            }
            other => return Err(lex_err(input, i, format!("unexpected character '{other}'"))),
        }
    }
    tokens.push(Token::new(TokenKind::Eof, input.len()));
    Ok(tokens)
}

/// Resolve line/column for every token in one forward pass over the text
/// their byte offsets point into (tokens are sorted by byte offset).
fn resolve_lines(tokens: &mut [Token], input: &str) {
    let (mut line, mut col, mut at) = (1u32, 1u32, 0usize);
    let mut chars = input.char_indices().peekable();
    for t in tokens {
        while let Some(&(i, c)) = chars.peek() {
            if i >= t.pos {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            at = i + c.len_utf8();
            chars.next();
        }
        debug_assert!(at <= t.pos);
        t.line = line;
        t.col = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let ks = kinds("SELECT c_name FROM Customer");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Ident("c_name".into()),
                TokenKind::Keyword("FROM".into()),
                TokenKind::Ident("customer".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(kinds("select")[0], TokenKind::Keyword("SELECT".into()));
        assert_eq!(kinds("SeLeCt")[0], TokenKind::Keyword("SELECT".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("3.5")[0], TokenKind::Float(3.5));
        assert_eq!(kinds(".5")[0], TokenKind::Float(0.5));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'o''brien'")[0], TokenKind::Str("o'brien".into()));
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn operators() {
        let ks = kinds("a <= b <> c >= d != e < f > g = h");
        let ops: Vec<String> = ks
            .iter()
            .filter_map(|k| match k {
                TokenKind::Op(o) => Some(o.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["<=", "<>", ">=", "<>", "<", ">", "="]);
    }

    #[test]
    fn params() {
        assert_eq!(kinds("$K")[0], TokenKind::Param("k".into()));
        assert!(tokenize("$ ").is_err());
    }

    #[test]
    fn currency_clause_tokens() {
        let ks = kinds("CURRENCY BOUND 10 MIN ON (b, r) BY b.isbn");
        assert_eq!(ks[0], TokenKind::Keyword("CURRENCY".into()));
        assert_eq!(ks[1], TokenKind::Keyword("BOUND".into()));
        assert_eq!(ks[2], TokenKind::Int(10));
        assert_eq!(ks[3], TokenKind::Keyword("MIN".into()));
        assert!(ks.contains(&TokenKind::Keyword("BY".into())));
        assert!(ks.contains(&TokenKind::Dot));
    }

    #[test]
    fn comments_skipped() {
        let ks = kinds("SELECT -- the projection\n 1");
        assert_eq!(ks.len(), 3);
        assert_eq!(ks[1], TokenKind::Int(1));
    }

    #[test]
    fn punctuation_and_arith() {
        let ks = kinds("(a, b); a.b + 1 - 2 * 3 / 4");
        assert!(ks.contains(&TokenKind::LParen));
        assert!(ks.contains(&TokenKind::Comma));
        assert!(ks.contains(&TokenKind::Semi));
        assert!(ks.contains(&TokenKind::Dot));
        for c in ['+', '-', '*', '/'] {
            assert!(ks.contains(&TokenKind::Arith(c)));
        }
    }

    #[test]
    fn unexpected_char_errors_with_position() {
        let err = tokenize("SELECT #").unwrap_err();
        match err {
            Error::Lex { pos, .. } => assert_eq!(pos, 7),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn positions_recorded() {
        let ts = tokenize("SELECT a").unwrap();
        assert_eq!(ts[0].pos, 0);
        assert_eq!(ts[1].pos, 7);
    }

    #[test]
    fn line_and_column_recorded() {
        let ts = tokenize("SELECT a\n  FROM t").unwrap();
        let from = ts
            .iter()
            .find(|t| t.kind == TokenKind::Keyword("FROM".into()))
            .unwrap();
        assert_eq!((from.line, from.col), (2, 3));
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!(line_col("ab\ncd", 4), (2, 2));
    }

    #[test]
    fn lex_error_carries_line_and_column() {
        let err = tokenize("SELECT a\n  # b").unwrap_err();
        match err {
            Error::Lex { line, col, .. } => assert_eq!((line, col), (2, 3)),
            other => panic!("wrong error {other:?}"),
        }
    }
}
