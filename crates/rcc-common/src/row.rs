//! Rows and schemas.

use crate::error::{Error, Result};
use crate::ids::TableId;
use crate::value::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// A column description: name, type and (optional) originating base table.
///
/// The `source` link is what makes the consistency machinery work: delivered
/// consistency properties track *base tables* through arbitrary plan shapes,
/// so every column carries the id of the base table it was derived from (or
/// `None` for computed columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lower-cased at resolution time).
    pub name: String,
    /// Declared data type.
    pub data_type: DataType,
    /// Qualifier, e.g. the table alias this column is visible under.
    pub qualifier: Option<String>,
    /// The base table this column was derived from, if any.
    pub source: Option<TableId>,
}

impl Column {
    /// A column with no qualifier or source table.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            qualifier: None,
            source: None,
        }
    }

    /// Attach a qualifier (table alias).
    pub fn with_qualifier(mut self, q: impl Into<String>) -> Self {
        self.qualifier = Some(q.into());
        self
    }

    /// Attach the originating base table.
    pub fn with_source(mut self, t: TableId) -> Self {
        self.source = Some(t);
        self
    }

    /// Does `name` (optionally qualified as `qualifier.name`) refer to this
    /// column?
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .map(|cq| cq.eq_ignore_ascii_case(q))
                .unwrap_or(false),
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{} {}", self.name, self.data_type),
            None => write!(f, "{} {}", self.name, self.data_type),
        }
    }
}

/// An ordered list of columns describing the tuples a table or operator
/// produces. Cheap to clone (Arc'd columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<Vec<Column>>,
}

impl Schema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema {
            columns: Arc::new(columns),
        }
    }

    /// The empty schema (zero columns), used by constant-only expressions.
    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    /// Columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column at ordinal `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Resolve a possibly-qualified column name to its ordinal.
    ///
    /// Errors on unknown or ambiguous references, mirroring SQL name
    /// resolution.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.matches(qualifier, name) {
                if found.is_some() {
                    return Err(Error::Analysis(format!(
                        "ambiguous column reference '{}{}{}'",
                        qualifier.unwrap_or(""),
                        if qualifier.is_some() { "." } else { "" },
                        name
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            Error::Analysis(format!(
                "unknown column '{}{}{}'",
                qualifier.unwrap_or(""),
                if qualifier.is_some() { "." } else { "" },
                name
            ))
        })
    }

    /// Concatenate two schemas (used by joins).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut cols = Vec::with_capacity(self.len() + other.len());
        cols.extend_from_slice(self.columns());
        cols.extend_from_slice(other.columns());
        Schema::new(cols)
    }

    /// Project a subset of columns by ordinal.
    pub fn project(&self, ordinals: &[usize]) -> Schema {
        Schema::new(ordinals.iter().map(|&i| self.columns[i].clone()).collect())
    }

    /// Re-qualify every column under a new alias (used when a subquery or
    /// view gets an alias in the FROM clause).
    pub fn with_qualifier(&self, q: &str) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| {
                    let mut c = c.clone();
                    c.qualifier = Some(q.to_string());
                    c
                })
                .collect(),
        )
    }

    /// Average serialized row width in bytes, assuming 16-byte strings.
    /// Used only for cost estimation.
    pub fn estimated_row_width(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c.data_type {
                DataType::Str => 20,
                DataType::Bool => 1,
                _ => 8,
            })
            .sum()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A tuple of values. Rows are schema-less; interpretation is positional.
/// A row never grows, so it holds its cells as a boxed slice: a pointer
/// and a length, no capacity word.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row {
    values: Box<[Value]>,
}

impl Row {
    /// Build a row from values. Free when `values` is exactly as long as
    /// its capacity; a longer buffer is shrunk (reallocated) first.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into_boxed_slice(),
        }
    }

    /// Values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at ordinal `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the row has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row::new(values)
    }

    /// Project values by ordinal.
    pub fn project(&self, ordinals: &[usize]) -> Row {
        Row::new(ordinals.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Serialized byte width (for remote-transfer accounting).
    pub fn byte_width(&self) -> usize {
        self.values.iter().map(Value::byte_width).sum()
    }

    /// Consume into values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.into_vec()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_ab() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int).with_qualifier("t"),
            Column::new("b", DataType::Str).with_qualifier("t"),
        ])
    }

    #[test]
    fn resolve_qualified_and_unqualified() {
        let s = schema_ab();
        assert_eq!(s.resolve(None, "a").unwrap(), 0);
        assert_eq!(s.resolve(Some("t"), "b").unwrap(), 1);
        assert_eq!(s.resolve(Some("T"), "B").unwrap(), 1, "case-insensitive");
        assert!(s.resolve(Some("u"), "a").is_err());
        assert!(s.resolve(None, "zzz").is_err());
    }

    #[test]
    fn resolve_detects_ambiguity() {
        let s = Schema::new(vec![
            Column::new("a", DataType::Int).with_qualifier("t"),
            Column::new("a", DataType::Int).with_qualifier("u"),
        ]);
        assert!(s.resolve(None, "a").is_err());
        assert_eq!(s.resolve(Some("u"), "a").unwrap(), 1);
    }

    #[test]
    fn join_concatenates() {
        let s = schema_ab().join(&schema_ab().with_qualifier("u"));
        assert_eq!(s.len(), 4);
        assert_eq!(s.resolve(Some("u"), "a").unwrap(), 2);
    }

    #[test]
    fn project_selects_ordinals() {
        let s = schema_ab().project(&[1]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.column(0).name, "b");
        let r = Row::new(vec![Value::Int(1), Value::from("x")]).project(&[1]);
        assert_eq!(r.get(0), &Value::from("x"));
    }

    #[test]
    fn row_concat_and_width() {
        let r = Row::new(vec![Value::Int(1)]).concat(&Row::new(vec![Value::from("abc")]));
        assert_eq!(r.len(), 2);
        assert_eq!(r.byte_width(), 8 + 4 + 3);
    }

    #[test]
    fn source_table_tracked() {
        let c = Column::new("a", DataType::Int).with_source(TableId(5));
        assert_eq!(c.source, Some(TableId(5)));
    }

    #[test]
    fn estimated_width_uses_type_defaults() {
        assert_eq!(schema_ab().estimated_row_width(), 28);
    }
}
