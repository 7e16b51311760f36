//! Bound (name-resolved) scalar expressions and aggregate calls.
//!
//! A [`BoundExpr`] is an [`rcc_sql::Expr`] after binding: every column
//! reference carries the unique binding qualifier of its operand, so it can
//! be resolved positionally against any operator output schema whose
//! columns are qualified the same way. Subqueries are gone — the binder
//! decorrelates them into semi-joins before expressions reach this form.

use rcc_common::{Error, Result, Row, Schema, Value};
use rcc_sql::{BinaryOp, UnaryOp};
use std::cmp::Ordering;
use std::fmt;

/// A resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Column reference: `qualifier` is the operand binding name.
    Column {
        /// Table alias / binding qualifier, if any.
        qualifier: String,
        /// Object name.
        name: String,
    },
    /// Literal.
    Literal(Value),
    /// A statement slot (a comparison literal or `$param` the plan cache
    /// keeps out of its key): a constant of the execution, not of the plan.
    /// Everything compile-time reads `value`, what the statement being
    /// compiled held there; an execution with other values re-reads it
    /// through [`BoundExpr::with_slots`].
    Slot {
        /// Slot number: index into the execution's value vector.
        index: u32,
        /// The value the plan was compiled for.
        value: Value,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand expression.
        expr: Box<BoundExpr>,
    },
    /// `e BETWEEN low AND high` (kept intact for range extraction).
    Between {
        /// The operand expression.
        expr: Box<BoundExpr>,
        /// Lower bound (inclusive).
        low: Box<BoundExpr>,
        /// Upper bound (inclusive).
        high: Box<BoundExpr>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `e IN (list)`.
    InList {
        /// The operand expression.
        expr: Box<BoundExpr>,
        /// The literal list.
        list: Vec<BoundExpr>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `e IS NULL`.
    IsNull {
        /// The operand expression.
        expr: Box<BoundExpr>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `GETDATE()` — current time as a `Value::Timestamp`.
    GetDate,
}

impl BoundExpr {
    /// Convenience column constructor.
    pub fn col(qualifier: &str, name: &str) -> BoundExpr {
        BoundExpr::Column {
            qualifier: qualifier.into(),
            name: name.into(),
        }
    }

    /// Convenience binary constructor.
    pub fn binary(left: BoundExpr, op: BinaryOp, right: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// AND-combine two expressions.
    pub fn and(a: BoundExpr, b: BoundExpr) -> BoundExpr {
        BoundExpr::binary(a, BinaryOp::And, b)
    }

    /// AND-combine many expressions (`None` for the empty list).
    pub fn and_all(mut exprs: Vec<BoundExpr>) -> Option<BoundExpr> {
        let first = if exprs.is_empty() {
            return None;
        } else {
            exprs.remove(0)
        };
        Some(exprs.into_iter().fold(first, BoundExpr::and))
    }

    /// The value of a constant operand: a literal's, or a slot's for the
    /// execution this expression was resolved for.
    pub fn constant(&self) -> Option<&Value> {
        match self {
            BoundExpr::Literal(value) | BoundExpr::Slot { value, .. } => Some(value),
            _ => None,
        }
    }

    /// A copy in which every slot holds its value of `slots` (an execution's
    /// value vector; a slot it does not reach keeps the value it has).
    pub fn with_slots(&self, slots: &[Value]) -> BoundExpr {
        self.map_slots(&|index, value| BoundExpr::Slot {
            index,
            value: slot_value(slots, index, value).clone(),
        })
    }

    /// Equality with every slot read as the constant it holds: `v > ?0=10`
    /// and `v > ?1=10` are the same expression *for these values* (what a
    /// select-list item and the `GROUP BY` / `ORDER BY` / `HAVING` expression
    /// it repeats must be), where `==` tells slots apart by number. A plan
    /// built on such a match holds for these values only; the slots of those
    /// clauses have point domains ([`slot_domains`](crate::slot_domains)).
    pub fn same_value(&self, other: &BoundExpr) -> bool {
        self.as_written() == other.as_written()
    }

    /// The expression as the statement wrote it: every slot replaced by the
    /// literal it holds.
    pub fn as_written(&self) -> BoundExpr {
        self.map_slots(&|_, value| BoundExpr::Literal(value.clone()))
    }

    /// A copy with every slot replaced by `f(index, value)`.
    fn map_slots(&self, f: &impl Fn(u32, &Value) -> BoundExpr) -> BoundExpr {
        let sub = |e: &BoundExpr| Box::new(e.map_slots(f));
        match self {
            BoundExpr::Slot { index, value } => f(*index, value),
            BoundExpr::Column { .. } | BoundExpr::Literal(_) | BoundExpr::GetDate => self.clone(),
            BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
                left: sub(left),
                op: *op,
                right: sub(right),
            },
            BoundExpr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: sub(expr),
            },
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: sub(expr),
                low: sub(low),
                high: sub(high),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: sub(expr),
                list: list.iter().map(|e| e.map_slots(f)).collect(),
                negated: *negated,
            },
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: sub(expr),
                negated: *negated,
            },
        }
    }

    /// Visit all sub-expressions pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            BoundExpr::Unary { expr, .. } => expr.visit(f),
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            BoundExpr::IsNull { expr, .. } => expr.visit(f),
            BoundExpr::Column { .. }
            | BoundExpr::Literal(_)
            | BoundExpr::Slot { .. }
            | BoundExpr::GetDate => {}
        }
    }

    /// The set of operand qualifiers this expression references.
    pub fn referenced_qualifiers(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.visit(&mut |e| {
            if let BoundExpr::Column { qualifier, .. } = e {
                out.insert(qualifier.clone());
            }
        });
        out
    }

    /// Evaluate against a row described by `schema`. `now_millis` supplies
    /// `GETDATE()`.
    pub fn eval(&self, row: &Row, schema: &Schema, now_millis: i64) -> Result<Value> {
        match self {
            BoundExpr::Column { qualifier, name } => {
                let i = schema.resolve(Some(qualifier), name)?;
                Ok(row.get(i).clone())
            }
            BoundExpr::Literal(v) | BoundExpr::Slot { value: v, .. } => Ok(v.clone()),
            BoundExpr::GetDate => Ok(Value::Timestamp(now_millis)),
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(row, schema, now_millis)?;
                match op {
                    UnaryOp::Not => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(Error::Type(format!("NOT applied to {other}"))),
                    },
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(Error::Type(format!("- applied to {other}"))),
                    },
                }
            }
            BoundExpr::Binary { left, op, right } => {
                eval_binary(left, *op, right, row, schema, now_millis)
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row, schema, now_millis)?;
                let lo = low.eval(row, schema, now_millis)?;
                let hi = high.eval(row, schema, now_millis)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let inside = v
                    .compare(&lo)?
                    .map(|o| o != Ordering::Less)
                    .unwrap_or(false)
                    && v.compare(&hi)?
                        .map(|o| o != Ordering::Greater)
                        .unwrap_or(false);
                Ok(Value::Bool(inside != *negated))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row, schema, now_millis)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row, schema, now_millis)?;
                    if iv.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if v.compare(&iv)? == Some(Ordering::Equal) {
                        return Ok(Value::Bool(!*negated));
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval(row, schema, now_millis)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
        }
    }

    /// Evaluate as a predicate (SQL truthiness: TRUE passes).
    pub fn eval_predicate(&self, row: &Row, schema: &Schema, now_millis: i64) -> Result<bool> {
        Ok(self.eval(row, schema, now_millis)?.is_truthy())
    }
}

/// What slot `index` holds in an execution whose value vector is `slots`:
/// its value there, or `compiled` — the value the plan was compiled for —
/// when the vector does not reach it (an execution given no values runs the
/// plan as compiled).
pub fn slot_value<'a>(slots: &'a [Value], index: u32, compiled: &'a Value) -> &'a Value {
    slots.get(index as usize).unwrap_or(compiled)
}

fn eval_binary(
    left: &BoundExpr,
    op: BinaryOp,
    right: &BoundExpr,
    row: &Row,
    schema: &Schema,
    now_millis: i64,
) -> Result<Value> {
    // AND/OR get three-valued short-circuit semantics.
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let l = left.eval(row, schema, now_millis)?;
        match (op, &l) {
            (BinaryOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
            (BinaryOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = right.eval(row, schema, now_millis)?;
        return Ok(match op {
            BinaryOp::And => match (l, r) {
                (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
                (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                _ => Value::Null,
            },
            BinaryOp::Or => match (l, r) {
                (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
                (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                _ => Value::Null,
            },
            _ => unreachable!(),
        });
    }

    let l = left.eval(row, schema, now_millis)?;
    let r = right.eval(row, schema, now_millis)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.compare(&r)?;
        let b = match (op, ord) {
            (BinaryOp::Eq, Some(Ordering::Equal)) => true,
            (BinaryOp::NotEq, Some(o)) => o != Ordering::Equal,
            (BinaryOp::Lt, Some(Ordering::Less)) => true,
            (BinaryOp::LtEq, Some(o)) => o != Ordering::Greater,
            (BinaryOp::Gt, Some(Ordering::Greater)) => true,
            (BinaryOp::GtEq, Some(o)) => o != Ordering::Less,
            _ => false,
        };
        return Ok(Value::Bool(b));
    }
    // arithmetic
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => {
            let v = match op {
                BinaryOp::Add => a.checked_add(*b),
                BinaryOp::Sub => a.checked_sub(*b),
                BinaryOp::Mul => a.checked_mul(*b),
                BinaryOp::Div => {
                    if *b == 0 {
                        return Err(Error::Execution("division by zero".into()));
                    }
                    a.checked_div(*b)
                }
                _ => None,
            };
            v.map(Value::Int)
                .ok_or_else(|| Error::Execution("integer overflow".into()))
        }
        // timestamp arithmetic: ts ± int keeps the timestamp type, which is
        // what the currency-guard predicate `getdate() - B` needs.
        (Value::Timestamp(a), Value::Int(b)) => match op {
            BinaryOp::Add => Ok(Value::Timestamp(a + b)),
            BinaryOp::Sub => Ok(Value::Timestamp(a - b)),
            _ => Err(Error::Type("unsupported timestamp arithmetic".into())),
        },
        _ => {
            let a = l.as_float()?;
            let b = r.as_float()?;
            let v = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(Error::Execution("division by zero".into()));
                    }
                    a / b
                }
                _ => return Err(Error::Type(format!("bad operands for {}", op.sql()))),
            };
            Ok(Value::Float(v))
        }
    }
}

impl fmt::Display for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundExpr::Column { qualifier, name } => write!(f, "{qualifier}.{name}"),
            BoundExpr::Literal(v) => write!(f, "{v}"),
            BoundExpr::Slot { index, value } => write!(f, "?{index}={value}"),
            BoundExpr::GetDate => f.write_str("GETDATE()"),
            BoundExpr::Binary { left, op, right } => write!(f, "({left} {} {right})", op.sql()),
            BoundExpr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
            },
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "{expr} {}IN ({})",
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            BoundExpr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
        }
    }
}

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(e)`.
    Count,
    /// `SUM(e)`.
    Sum,
    /// `AVG(e)`.
    Avg,
    /// `MIN(e)`.
    Min,
    /// `MAX(e)`.
    Max,
}

impl AggFunc {
    /// Parse from a function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate call in a GROUP BY query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The function.
    pub func: AggFunc,
    /// Argument (`None` for `COUNT(*)`).
    pub arg: Option<BoundExpr>,
    /// Output column name.
    pub output_name: String,
}

impl AggCall {
    /// [`BoundExpr::with_slots`] of the argument.
    pub fn with_slots(&self, slots: &[Value]) -> AggCall {
        AggCall {
            arg: self.arg.as_ref().map(|e| e.with_slots(slots)),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int).with_qualifier("t"),
            Column::new("b", DataType::Float).with_qualifier("t"),
            Column::new("s", DataType::Str).with_qualifier("t"),
        ])
    }

    fn row() -> Row {
        Row::new(vec![Value::Int(10), Value::Float(2.5), Value::from("x")])
    }

    fn ev(e: &BoundExpr) -> Value {
        e.eval(&row(), &schema(), 1234).unwrap()
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(ev(&BoundExpr::col("t", "a")), Value::Int(10));
        assert_eq!(ev(&BoundExpr::Literal(Value::Int(7))), Value::Int(7));
        assert_eq!(ev(&BoundExpr::GetDate), Value::Timestamp(1234));
    }

    #[test]
    fn arithmetic() {
        let e = BoundExpr::binary(
            BoundExpr::col("t", "a"),
            BinaryOp::Add,
            BoundExpr::Literal(Value::Int(5)),
        );
        assert_eq!(ev(&e), Value::Int(15));
        let e = BoundExpr::binary(
            BoundExpr::col("t", "a"),
            BinaryOp::Mul,
            BoundExpr::col("t", "b"),
        );
        assert_eq!(ev(&e), Value::Float(25.0));
        let div0 = BoundExpr::binary(
            BoundExpr::Literal(Value::Int(1)),
            BinaryOp::Div,
            BoundExpr::Literal(Value::Int(0)),
        );
        assert!(div0.eval(&row(), &schema(), 0).is_err());
    }

    #[test]
    fn timestamp_arithmetic_for_guards() {
        let e = BoundExpr::binary(
            BoundExpr::GetDate,
            BinaryOp::Sub,
            BoundExpr::Literal(Value::Int(234)),
        );
        assert_eq!(ev(&e), Value::Timestamp(1000));
    }

    #[test]
    fn comparisons() {
        let e = BoundExpr::binary(
            BoundExpr::col("t", "a"),
            BinaryOp::GtEq,
            BoundExpr::Literal(Value::Int(10)),
        );
        assert_eq!(ev(&e), Value::Bool(true));
        let e = BoundExpr::binary(
            BoundExpr::col("t", "a"),
            BinaryOp::Lt,
            BoundExpr::Literal(Value::Int(10)),
        );
        assert_eq!(ev(&e), Value::Bool(false));
        let e = BoundExpr::binary(
            BoundExpr::col("t", "s"),
            BinaryOp::Eq,
            BoundExpr::Literal(Value::from("x")),
        );
        assert_eq!(ev(&e), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        let null = BoundExpr::Literal(Value::Null);
        let t = BoundExpr::Literal(Value::Bool(true));
        let f_ = BoundExpr::Literal(Value::Bool(false));
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        assert_eq!(
            ev(&BoundExpr::binary(null.clone(), BinaryOp::And, f_.clone())),
            Value::Bool(false)
        );
        assert_eq!(
            ev(&BoundExpr::binary(null.clone(), BinaryOp::And, t.clone())),
            Value::Null
        );
        // NULL OR TRUE = TRUE; NULL OR FALSE = NULL
        assert_eq!(
            ev(&BoundExpr::binary(null.clone(), BinaryOp::Or, t.clone())),
            Value::Bool(true)
        );
        assert_eq!(
            ev(&BoundExpr::binary(null.clone(), BinaryOp::Or, f_)),
            Value::Null
        );
        // NULL = 1 is NULL, and not truthy
        let cmp = BoundExpr::binary(null, BinaryOp::Eq, BoundExpr::Literal(Value::Int(1)));
        assert_eq!(ev(&cmp), Value::Null);
        assert!(!cmp.eval_predicate(&row(), &schema(), 0).unwrap());
    }

    #[test]
    fn between_and_inlist() {
        let between = BoundExpr::Between {
            expr: Box::new(BoundExpr::col("t", "a")),
            low: Box::new(BoundExpr::Literal(Value::Int(5))),
            high: Box::new(BoundExpr::Literal(Value::Int(15))),
            negated: false,
        };
        assert_eq!(ev(&between), Value::Bool(true));
        let not_between = BoundExpr::Between {
            expr: Box::new(BoundExpr::col("t", "a")),
            low: Box::new(BoundExpr::Literal(Value::Int(5))),
            high: Box::new(BoundExpr::Literal(Value::Int(15))),
            negated: true,
        };
        assert_eq!(ev(&not_between), Value::Bool(false));
        let inlist = BoundExpr::InList {
            expr: Box::new(BoundExpr::col("t", "a")),
            list: vec![
                BoundExpr::Literal(Value::Int(9)),
                BoundExpr::Literal(Value::Int(10)),
            ],
            negated: false,
        };
        assert_eq!(ev(&inlist), Value::Bool(true));
        // NOT IN with a NULL member and no match is NULL
        let weird = BoundExpr::InList {
            expr: Box::new(BoundExpr::col("t", "a")),
            list: vec![BoundExpr::Literal(Value::Null)],
            negated: true,
        };
        assert_eq!(ev(&weird), Value::Null);
    }

    #[test]
    fn is_null_and_not() {
        let e = BoundExpr::IsNull {
            expr: Box::new(BoundExpr::Literal(Value::Null)),
            negated: false,
        };
        assert_eq!(ev(&e), Value::Bool(true));
        let e = BoundExpr::IsNull {
            expr: Box::new(BoundExpr::col("t", "a")),
            negated: true,
        };
        assert_eq!(ev(&e), Value::Bool(true));
        let e = BoundExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(BoundExpr::Literal(Value::Bool(true))),
        };
        assert_eq!(ev(&e), Value::Bool(false));
    }

    #[test]
    fn qualifier_collection() {
        let e = BoundExpr::binary(
            BoundExpr::col("c", "x"),
            BinaryOp::Eq,
            BoundExpr::col("o", "y"),
        );
        let quals = e.referenced_qualifiers();
        assert_eq!(quals.len(), 2);
        assert!(quals.contains("c") && quals.contains("o"));
    }

    #[test]
    fn and_all_folds() {
        assert_eq!(BoundExpr::and_all(vec![]), None);
        let single = BoundExpr::and_all(vec![BoundExpr::Literal(Value::Bool(true))]).unwrap();
        assert_eq!(single, BoundExpr::Literal(Value::Bool(true)));
        let multi = BoundExpr::and_all(vec![
            BoundExpr::Literal(Value::Bool(true)),
            BoundExpr::Literal(Value::Bool(false)),
        ])
        .unwrap();
        assert_eq!(ev(&multi), Value::Bool(false));
    }

    #[test]
    fn agg_func_parsing() {
        assert_eq!(AggFunc::from_name("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("getdate"), None);
        assert_eq!(AggFunc::Sum.sql(), "SUM");
    }

    #[test]
    fn a_slot_is_a_constant_of_the_execution() {
        let slot = |index, v| BoundExpr::Slot {
            index,
            value: Value::Int(v),
        };
        let e = BoundExpr::binary(
            BoundExpr::binary(BoundExpr::col("t", "a"), BinaryOp::Add, slot(1, 5)),
            BinaryOp::Gt,
            slot(0, 14),
        );
        // compiled for (14, 5): 10 + 5 > 14
        assert_eq!(ev(&e), Value::Bool(true));
        assert_eq!(e.to_string(), "((t.a + ?1=5) > ?0=14)");
        // run with (20, 5): a slot the vector does not reach keeps its value
        let later = e.with_slots(&[Value::Int(20)]);
        assert_eq!(ev(&later), Value::Bool(false));
        assert_eq!(later.to_string(), "((t.a + ?1=5) > ?0=20)");
        assert_eq!(e.with_slots(&[]), e, "no values: the plan as compiled");
        assert_eq!(slot(0, 14).constant(), Some(&Value::Int(14)));
        assert_eq!(BoundExpr::col("t", "a").constant(), None);
        // `==` tells slots apart by number; `same_value` reads what they hold
        assert_ne!(slot(0, 7), slot(1, 7));
        assert!(slot(0, 7).same_value(&slot(1, 7)));
        assert!(slot(0, 7).same_value(&BoundExpr::Literal(Value::Int(7))));
        assert!(!slot(0, 7).same_value(&slot(0, 8)));
        assert!(!e.same_value(&later) && e.same_value(&e.with_slots(&[Value::Int(14)])));
    }

    #[test]
    fn display_is_readable() {
        let e = BoundExpr::binary(
            BoundExpr::col("c", "k"),
            BinaryOp::LtEq,
            BoundExpr::Literal(Value::Int(5)),
        );
        assert_eq!(e.to_string(), "(c.k <= 5)");
    }
}
