//! Statement shape: what a `SELECT`'s text has in common with every other
//! text that differs from it only in the constants it compares against.
//!
//! [`shape`] is one lexical pass over the text — no token vector, no AST.
//! It copies the text and replaces each *slot* by a marker `?<n><t>` (slot
//! number, one type letter), collecting the slot's value:
//!
//! * a **comparison-operand literal**: an integer, float or string token
//!   directly after `= <> != < <= > >=`, after `BETWEEN`, or after the
//!   `AND` that follows a slotted `BETWEEN` operand. One leading `-` is
//!   folded into a numeric literal exactly where [`crate::parser`]'s
//!   `unary` folds it (`a > -5` is the literal −5; `a > b -5` and
//!   `a > - -5` are left alone);
//! * a **named parameter** `$name` anywhere, when the caller supplied a
//!   value for it. Every occurrence of one name is the same slot.
//!
//! Everything else stays verbatim in the key: `LIMIT n`, `IN` lists,
//! select-list and arithmetic constants, `ORDER BY 1`, and all of the
//! `CURRENCY` clause (it contains none of the operators above), so nothing
//! the currency machinery proves about a plan depends on a slot.
//!
//! Replacing a literal *token* by a parameter token changes one leaf of
//! what the parser builds and nothing else, which is why
//! [`crate::parser::parse_shape`] of the key, with the values put back,
//! is node for node the parse of the original text. The pass mirrors the
//! lexer's token rules (numbers, strings, comments) byte for byte; where
//! the lexer would reject the input the pass stops substituting or gives
//! up ([`shape`] returns `None`), and the original text is what gets
//! parsed, so its error is the one reported.

use rcc_common::Value;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A `SELECT` text split into its shape and its slot values.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// The text with every slot replaced by its marker — the plan-cache
    /// key.
    pub key: String,
    /// The slots' values, by slot number.
    pub values: Vec<Value>,
}

/// A position in a text that holds in every text of the same shape. Two
/// such texts differ only in how wide their slots are written, so what
/// stands before the first marker is as far from the start in both, what
/// stands after the last is as far from the end (a `CURRENCY` clause,
/// nearly always), and anything else is as far past the marker before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// No marker before it: so many bytes from the start.
    FromStart(usize),
    /// No marker after it: so many bytes before the end.
    FromEnd(usize),
    /// Markers on both sides: past that many markers, so many bytes after
    /// the last of them.
    AfterMarker {
        /// How many markers precede it.
        markers: usize,
        /// Bytes between the end of the last of them and it.
        past: usize,
    },
}

impl Anchor {
    /// The anchor of the 1-based `line:col` of `sql`, a text whose
    /// [`shape`] is taken with `params`.
    pub fn of(sql: &str, params: &HashMap<String, Value>, line: u32, col: u32) -> Anchor {
        let in_line = sql
            .split_inclusive('\n')
            .take(line.saturating_sub(1) as usize)
            .map(str::len)
            .sum::<usize>()
            .min(sql.len());
        let offset = sql[in_line..]
            .char_indices()
            .nth(col.saturating_sub(1) as usize)
            .map_or(sql.len(), |(i, _)| in_line + i);
        let spans = marker_spans(sql, params);
        let markers = spans.iter().take_while(|&&(_, end)| end <= offset).count();
        if markers == 0 {
            Anchor::FromStart(offset)
        } else if markers == spans.len() {
            Anchor::FromEnd(sql.len() - offset)
        } else {
            Anchor::AfterMarker {
                markers,
                past: offset - spans[markers - 1].1,
            }
        }
    }

    /// The 1-based line and column at which it stands in `sql`, another
    /// text of the shape (with `params`). Only an anchor between markers
    /// needs the text scanned for them.
    pub fn locate(&self, sql: &str, params: &HashMap<String, Value>) -> (u32, u32) {
        let offset = match *self {
            Anchor::FromStart(offset) => offset,
            Anchor::FromEnd(before_end) => sql.len().saturating_sub(before_end),
            Anchor::AfterMarker { markers, past } => {
                let spans = marker_spans(sql, params);
                spans.get(markers - 1).map_or(0, |&(_, end)| end) + past
            }
        };
        let mut offset = offset.min(sql.len());
        while !sql.is_char_boundary(offset) {
            offset -= 1;
        }
        let before = &sql[..offset];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        let line = before.bytes().filter(|&c| c == b'\n').count() as u32 + 1;
        (line, before[line_start..].chars().count() as u32 + 1)
    }
}

/// The letter a marker carries for its value's type, so that `a = 5`,
/// `a = 5.0` and `a = '5'` are three shapes.
fn type_letter(v: &Value) -> char {
    match v {
        Value::Null => 'n',
        Value::Int(_) => 'i',
        Value::Float(_) => 'f',
        Value::Str(_) => 's',
        Value::Bool(_) => 'b',
        Value::Timestamp(_) => 't',
    }
}

/// What the token just passed lets the next one be.
#[derive(Clone, Copy, PartialEq)]
enum State {
    /// Nothing: the next literal is not a comparison operand.
    Idle,
    /// The parser's `additive()` starts here: a literal is an operand.
    /// `minus` is where a single `-` directly before it stood;
    /// `between_low` is set directly after `BETWEEN`.
    Operand {
        minus: Option<usize>,
        between_low: bool,
    },
    /// A slotted `BETWEEN` low operand: an `AND` now leads to the high one.
    AfterBetweenLow,
}

const OPERAND: State = State::Operand {
    minus: None,
    between_low: false,
};

struct Scanner<'a> {
    sql: &'a str,
    shape: Shape,
    /// Per marker put into `shape.key`, in order: the byte span of `sql` it
    /// stands for — recorded only when asked for ([`marker_spans`]).
    spans: Option<Vec<(usize, usize)>>,
    /// How much of `sql` is in `shape.key` already.
    copied: usize,
    /// Named parameters seen, with their slot numbers.
    named: Vec<(&'a str, usize)>,
}

impl<'a> Scanner<'a> {
    /// Replace `sql[start..end]` by the marker of `slot`.
    fn mark(&mut self, start: usize, end: usize, slot: usize) {
        let letter = type_letter(&self.shape.values[slot]);
        let key = &mut self.shape.key;
        key.push_str(&self.sql[self.copied..start]);
        let _ = write!(key, "?{slot}{letter}");
        if let Some(spans) = &mut self.spans {
            spans.push((start, end));
        }
        self.copied = end;
    }

    fn literal(&mut self, start: usize, end: usize, value: Value) {
        self.shape.values.push(value);
        self.mark(start, end, self.shape.values.len() - 1);
    }

    fn parameter(&mut self, start: usize, end: usize, params: &HashMap<String, Value>) {
        let name = &self.sql[start + 1..end];
        let seen = self
            .named
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name));
        let slot = match seen {
            Some((_, slot)) => *slot,
            None => {
                // the lexer lower-cases parameter names
                let value = if name.bytes().any(|c| c.is_ascii_uppercase()) {
                    params.get(&name.to_ascii_lowercase())
                } else {
                    params.get(name)
                };
                let Some(value) = value else {
                    return; // unbound: stays `$name`, the binder says so
                };
                self.shape.values.push(value.clone());
                self.named.push((name, self.shape.values.len() - 1));
                self.shape.values.len() - 1
            }
        };
        self.mark(start, end, slot);
    }
}

fn is_word_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_word(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// End of the run of bytes from `i` that satisfy `pred`.
fn run(b: &[u8], mut i: usize, pred: impl Fn(u8) -> bool) -> usize {
    while i < b.len() && pred(b[i]) {
        i += 1;
    }
    i
}

/// End of the number token at `i`: digits with at most one `.`, as the
/// lexer cuts it.
fn number_end(b: &[u8], mut i: usize) -> usize {
    let mut saw_dot = false;
    while i < b.len() && (b[i].is_ascii_digit() || (b[i] == b'.' && !saw_dot)) {
        saw_dot |= b[i] == b'.';
        i += 1;
    }
    i
}

/// The string token opening at `start`: its end and its value (bytes taken
/// one by one as the lexer takes them, `''` unescaped), or `None` when it
/// never closes.
fn string_at(b: &[u8], start: usize) -> Option<(usize, String)> {
    let mut i = start + 1;
    let mut s = String::new();
    loop {
        match b.get(i)? {
            b'\'' if b.get(i + 1) == Some(&b'\'') => {
                s.push('\'');
                i += 2;
            }
            b'\'' => return Some((i + 1, s)),
            &c => {
                s.push(c as char);
                i += 1;
            }
        }
    }
}

/// Split `sql` into its shape and slot values. `None` when the text is not
/// a `SELECT` (its first word is something else) or holds a `?` outside
/// strings and comments — the marker character, which the lexer rejects in
/// a statement and which must therefore never reach the shape parser from
/// outside. Such a text is parsed as it stands.
pub fn shape(sql: &str, params: &HashMap<String, Value>) -> Option<Shape> {
    scan(sql, params, None).map(|s| s.shape)
}

/// Per marker in the key of `sql`'s [`shape`], in order: the byte span of
/// `sql` it stands for (none if `sql` has no shape). The same pass once
/// more, for the two readers that map positions between a text and its key
/// — [`crate::parser::parse_shape`], on a plan-cache miss, and a diagnostic
/// to be pointed into the text at hand ([`Anchor`]); a statement served
/// from a cached plan never asks.
pub fn marker_spans(sql: &str, params: &HashMap<String, Value>) -> Vec<(usize, usize)> {
    shape_and_spans(sql, params).map_or_else(Vec::new, |(_, spans)| spans)
}

pub(crate) fn shape_and_spans(
    sql: &str,
    params: &HashMap<String, Value>,
) -> Option<(Shape, Vec<(usize, usize)>)> {
    let s = scan(sql, params, Some(Vec::new()))?;
    Some((s.shape, s.spans.unwrap_or_default()))
}

fn scan<'a>(
    sql: &'a str,
    params: &HashMap<String, Value>,
    spans: Option<Vec<(usize, usize)>>,
) -> Option<Scanner<'a>> {
    let b = sql.as_bytes();
    let mut s = Scanner {
        sql,
        shape: Shape {
            key: String::with_capacity(sql.len() + 8),
            values: Vec::new(),
        },
        spans,
        copied: 0,
        named: Vec::new(),
    };
    // the first token must be the word SELECT
    let mut i = 0;
    loop {
        match *b.get(i)? {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if b.get(i + 1) == Some(&b'-') => i = run(b, i, |c| c != b'\n'),
            _ => break,
        }
    }
    let end = run(b, i, is_word);
    if !sql[i..end].eq_ignore_ascii_case("select") {
        return None;
    }
    i = end;
    let mut state = State::Idle;
    while i < b.len() {
        let c = b[i];
        // what follows `c` decides two-byte tokens
        let next = b.get(i + 1).copied();
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            // a comment is no token: the state carries across it
            b'-' if next == Some(b'-') => i = run(b, i, |c| c != b'\n'),
            b'-' => {
                state = match state {
                    State::Operand {
                        minus: None,
                        between_low,
                    } => State::Operand {
                        minus: Some(i),
                        between_low,
                    },
                    _ => State::Idle,
                };
                i += 1;
            }
            b'=' => {
                state = OPERAND;
                i += 1;
            }
            b'<' => {
                state = OPERAND;
                i += if matches!(next, Some(b'=' | b'>')) {
                    2
                } else {
                    1
                };
            }
            b'>' => {
                state = OPERAND;
                i += if next == Some(b'=') { 2 } else { 1 };
            }
            b'!' if next == Some(b'=') => {
                state = OPERAND;
                i += 2;
            }
            b'\'' => {
                let Some((end, text)) = string_at(b, i) else {
                    break; // unterminated: the rest is copied as it is
                };
                state = match state {
                    State::Operand {
                        minus: None,
                        between_low,
                    } => {
                        s.literal(i, end, Value::Str(text));
                        after_operand(between_low)
                    }
                    _ => State::Idle,
                };
                i = end;
            }
            b'0'..=b'9' | b'.' if c != b'.' || next.is_some_and(|n| n.is_ascii_digit()) => {
                let end = number_end(b, i);
                state = match (state, number(&sql[i..end])) {
                    (State::Operand { minus, between_low }, Some(value)) => {
                        let value = match (minus, value) {
                            (None, v) => v,
                            (Some(_), Value::Int(n)) => Value::Int(-n),
                            (Some(_), Value::Float(f)) => Value::Float(-f),
                            (Some(_), v) => v,
                        };
                        s.literal(minus.unwrap_or(i), end, value);
                        after_operand(between_low)
                    }
                    _ => State::Idle,
                };
                i = end;
            }
            b'$' => {
                let end = run(b, i + 1, is_word);
                if end > i + 1 && !params.is_empty() {
                    s.parameter(i, end, params);
                }
                state = State::Idle;
                i = end;
            }
            b'?' => return None,
            _ if is_word_start(c) => {
                let end = run(b, i, is_word);
                let word = &sql[i..end];
                state = if word.eq_ignore_ascii_case("between") {
                    State::Operand {
                        minus: None,
                        between_low: true,
                    }
                } else if state == State::AfterBetweenLow && word.eq_ignore_ascii_case("and") {
                    OPERAND
                } else {
                    State::Idle
                };
                i = end;
            }
            // punctuation, and bytes the lexer will reject
            _ => {
                state = State::Idle;
                i += 1;
            }
        }
    }
    s.shape.key.push_str(&sql[s.copied..]);
    Some(s)
}

fn after_operand(between_low: bool) -> State {
    if between_low {
        State::AfterBetweenLow
    } else {
        State::Idle
    }
}

/// The value of a number token, parsed as the lexer parses it; `None` where
/// the lexer reports a bad literal (an integer past `i64`).
fn number(text: &str) -> Option<Value> {
    if text.contains('.') {
        text.parse().ok().map(Value::Float)
    } else {
        text.parse().ok().map(Value::Int)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_params() -> HashMap<String, Value> {
        HashMap::new()
    }

    fn key_and_values(sql: &str) -> (String, Vec<Value>) {
        let s = shape(sql, &no_params()).expect("a SELECT");
        (s.key, s.values)
    }

    #[test]
    fn comparison_operands_become_typed_markers() {
        let (key, values) = key_and_values(
            "SELECT c_name FROM customer WHERE c_custkey = 17 AND c_acctbal > 1.5 \
             AND c_name <> 'it''s' CURRENCY BOUND 30 SEC ON (customer)",
        );
        assert_eq!(
            key,
            "SELECT c_name FROM customer WHERE c_custkey = ?0i AND c_acctbal > ?1f \
             AND c_name <> ?2s CURRENCY BOUND 30 SEC ON (customer)"
        );
        assert_eq!(
            values,
            vec![Value::Int(17), Value::Float(1.5), Value::from("it's")]
        );
    }

    #[test]
    fn one_leading_minus_folds_where_the_parser_folds_it() {
        assert_eq!(
            key_and_values("SELECT 1 WHERE a > -5"),
            ("SELECT 1 WHERE a > ?0i".into(), vec![Value::Int(-5)])
        );
        assert_eq!(
            key_and_values("SELECT 1 WHERE a > - 2.5"),
            ("SELECT 1 WHERE a > ?0f".into(), vec![Value::Float(-2.5)])
        );
        // a binary minus, a double minus and a negated string are not ours
        for sql in [
            "SELECT 1 WHERE a > b -5",
            "SELECT 1 WHERE a > - -5",
            "SELECT 1 WHERE a > -'x'",
        ] {
            assert_eq!(key_and_values(sql), (sql.to_string(), vec![]), "{sql}");
        }
    }

    #[test]
    fn between_slots_both_ends_and_the_next_and_is_logical() {
        assert_eq!(
            key_and_values("SELECT 1 WHERE a BETWEEN 1 AND -2 AND b = 3"),
            (
                "SELECT 1 WHERE a BETWEEN ?0i AND ?1i AND b = ?2i".into(),
                vec![Value::Int(1), Value::Int(-2), Value::Int(3)]
            )
        );
        // a low operand that is no literal leaves the high one alone
        assert_eq!(
            key_and_values("SELECT 1 WHERE a BETWEEN b AND 2").1,
            Vec::<Value>::new()
        );
    }

    #[test]
    fn everything_else_stays_in_the_key() {
        for sql in [
            "SELECT 5, a + 1 FROM t WHERE a IN (1, 2) ORDER BY 1 LIMIT 3",
            "SELECT a FROM t CURRENCY BOUND 10 MIN ON (t) BY t.a",
            "SELECT a FROM t WHERE 5 < a",
            "SELECT a FROM t -- WHERE a = 5",
            "SELECT a FROM t WHERE ts > GETDATE() - 5000",
        ] {
            assert_eq!(key_and_values(sql), (sql.to_string(), vec![]), "{sql}");
        }
    }

    #[test]
    fn numbers_are_cut_as_the_lexer_cuts_them() {
        // `1e3` is the integer 1 and the identifier e3
        assert_eq!(
            key_and_values("SELECT 1 WHERE a = 1e3"),
            ("SELECT 1 WHERE a = ?0ie3".into(), vec![Value::Int(1)])
        );
        assert_eq!(
            key_and_values("SELECT 1 WHERE a = 1.5.2"),
            ("SELECT 1 WHERE a = ?0f.2".into(), vec![Value::Float(1.5)])
        );
        // past i64: the lexer's error to report, not ours to slot
        let big = "SELECT 1 WHERE a = 9223372036854775808";
        assert_eq!(key_and_values(big), (big.to_string(), vec![]));
        let min = "SELECT 1 WHERE a = -9223372036854775808";
        assert_eq!(key_and_values(min), (min.to_string(), vec![]));
    }

    #[test]
    fn a_comment_between_operator_and_literal_is_no_token() {
        assert_eq!(
            key_and_values("SELECT 1 WHERE a = -- five = 5\n 5"),
            (
                "SELECT 1 WHERE a = -- five = 5\n ?0i".into(),
                vec![Value::Int(5)]
            )
        );
    }

    #[test]
    fn an_unterminated_string_stops_the_pass() {
        let (key, values) = key_and_values("SELECT 1 WHERE a = 5 AND b = 'oops AND c = 6");
        assert_eq!(key, "SELECT 1 WHERE a = ?0i AND b = 'oops AND c = 6");
        assert_eq!(values, vec![Value::Int(5)]);
    }

    #[test]
    fn only_selects_have_a_shape_and_the_marker_character_has_none() {
        for sql in [
            "",
            "  -- nothing\n",
            "UPDATE t SET a = 5 WHERE b = 6",
            "EXPLAIN ANALYZE SELECT a FROM t WHERE a = 5",
            "SELEC a",
            "selected = 5",
            "- SELECT 1",
            "SELECT a FROM t WHERE a = ?0i",
        ] {
            assert_eq!(shape(sql, &no_params()), None, "{sql:?}");
        }
        assert!(shape("  -- lead\n select a FROM t", &no_params()).is_some());
        assert!(shape("SELECT a FROM t WHERE b = '?'", &no_params()).is_some());
    }

    #[test]
    fn supplied_parameters_are_slots_by_name() {
        let params = HashMap::from([
            ("k".to_string(), Value::Int(7)),
            ("s".to_string(), Value::from("x")),
        ]);
        let s = shape(
            "SELECT $k + 1 FROM t WHERE a = $K AND b = 5 AND c = $s AND d = $missing",
            &params,
        )
        .unwrap();
        assert_eq!(
            s.key,
            "SELECT ?0i + 1 FROM t WHERE a = ?0i AND b = ?1i AND c = ?2s AND d = $missing"
        );
        assert_eq!(
            s.values,
            vec![Value::Int(7), Value::Int(5), Value::from("x")]
        );
        let sql = "SELECT $k + 1 FROM t WHERE a = $K AND b = 5 AND c = $s AND d = $missing";
        assert_eq!(marker_spans(sql, &params).len(), 4, "one per marker");
        // with nothing supplied a parameter is just text
        let bare = shape("SELECT a FROM t WHERE a = $k", &no_params()).unwrap();
        assert_eq!(bare.key, "SELECT a FROM t WHERE a = $k");
    }

    #[test]
    fn spans_locate_each_marker_in_the_original() {
        let sql = "SELECT 1 WHERE a = -5 AND b = 'x'";
        let spans = marker_spans(sql, &no_params());
        let texts: Vec<&str> = spans.iter().map(|&(a, b)| &sql[a..b]).collect();
        assert_eq!(texts, ["-5", "'x'"]);
        assert!(marker_spans("UPDATE t SET a = 5", &no_params()).is_empty());
    }

    #[test]
    fn an_anchor_stands_at_the_same_token_in_every_text_of_the_shape() {
        let compiled = "SELECT a FROM t WHERE a = 17 AND b = 'x'\n  CURRENCY BOUND 5 SEC ON (t)";
        let served =
            "SELECT a FROM t WHERE a = 100000 AND b = 'it''s\nlong'\n  CURRENCY BOUND 5 SEC ON (t)";
        let none = no_params();
        assert_eq!(
            shape(compiled, &none).unwrap().key,
            shape(served, &none).unwrap().key
        );
        // `BOUND` (a currency spec starts there), line 2, column 12: after
        // the last marker
        let clause = Anchor::of(compiled, &none, 2, 12);
        assert_eq!(clause, Anchor::FromEnd(18));
        assert_eq!(clause.locate(compiled, &none), (2, 12));
        // the string of the other text spans a line break
        assert_eq!(clause.locate(served, &none), (3, 12));
        // before any marker
        let a = Anchor::of(compiled, &none, 1, 8);
        assert_eq!(a, Anchor::FromStart(7));
        assert_eq!(a.locate(served, &none), (1, 8));
        // between two
        assert_eq!(&compiled[29..32], "AND");
        let and = Anchor::of(compiled, &none, 1, 30);
        assert_eq!(
            and,
            Anchor::AfterMarker {
                markers: 1,
                past: 1
            }
        );
        assert_eq!(and.locate(compiled, &none), (1, 30));
        assert_eq!(and.locate(served, &none), (1, 34));
        // a text with no slots: positions are what they are
        let plain = "SELECT a FROM t\nCURRENCY BOUND 5 SEC ON (t)";
        assert_eq!(
            Anchor::of(plain, &none, 2, 10).locate(plain, &none),
            (2, 10)
        );
        // a supplied parameter is a marker like any other
        let k = HashMap::from([("k".to_string(), Value::Int(7))]);
        let text = "SELECT a FROM t WHERE a = $k CURRENCY BOUND 5 SEC ON (t)";
        assert_eq!(Anchor::of(text, &k, 1, 39), Anchor::FromEnd(18));
        assert_eq!(Anchor::of(text, &none, 1, 39), Anchor::FromStart(38));
    }

    #[test]
    fn more_than_sixty_four_literals() {
        let conjuncts: Vec<String> = (0..70).map(|i| format!("a{i} = {i}")).collect();
        let sql = format!("SELECT 1 WHERE {}", conjuncts.join(" AND "));
        let s = shape(&sql, &no_params()).unwrap();
        assert_eq!(s.values.len(), 70);
        assert!(s.key.ends_with("a69 = ?69i"));
    }
}
