//! Schema, typed values and records.
//!
//! Spitz "supports both SQL and a self-defined JSON schema" (Section 5.1).
//! This module provides the typed layer used by the examples and the
//! analytical path: tables with named, typed columns; records (rows) as
//! column → value maps; and the serialization of a record into per-column
//! cells.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::DbError;
use crate::Result;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Integer,
    /// UTF-8 text.
    Text,
    /// Raw bytes.
    Bytes,
}

impl ColumnType {
    /// The type's name in [`DbError::TypeMismatch`].
    pub(crate) fn name(self) -> &'static str {
        match self {
            ColumnType::Integer => "integer",
            ColumnType::Text => "text",
            ColumnType::Bytes => "bytes",
        }
    }
}

/// A typed value stored in a cell. Values of one type order naturally
/// (integers numerically); a column's index cells encode them so that key
/// order is this order (see [`crate::cell`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    /// Integer value.
    Integer(i64),
    /// Text value.
    Text(String),
    /// Raw-byte value.
    Bytes(Vec<u8>),
}

impl Value {
    /// The column type this value belongs to.
    pub(crate) fn column_type(&self) -> ColumnType {
        match self {
            Value::Integer(_) => ColumnType::Integer,
            Value::Text(_) => ColumnType::Text,
            Value::Bytes(_) => ColumnType::Bytes,
        }
    }

    /// Serialize the value into cell bytes (type tag + payload).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Value::Integer(v) => {
                let mut out = vec![0u8];
                out.extend_from_slice(&v.to_be_bytes());
                out
            }
            Value::Text(s) => {
                let mut out = vec![1u8];
                out.extend_from_slice(s.as_bytes());
                out
            }
            Value::Bytes(b) => {
                let mut out = vec![2u8];
                out.extend_from_slice(b);
                out
            }
        }
    }

    /// Decode cell bytes back into a value.
    pub fn decode(data: &[u8]) -> Result<Value> {
        let bad = || DbError::BadRequest("malformed value encoding".into());
        match data.first() {
            Some(0) => {
                let bytes: [u8; 8] = data[1..].try_into().map_err(|_| bad())?;
                Ok(Value::Integer(i64::from_be_bytes(bytes)))
            }
            Some(1) => Ok(Value::Text(
                String::from_utf8(data[1..].to_vec()).map_err(|_| bad())?,
            )),
            Some(2) => Ok(Value::Bytes(data[1..].to_vec())),
            _ => Err(bad()),
        }
    }
}

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ColumnDef {
    /// Column name.
    pub(crate) name: String,
    /// Column type.
    pub(crate) column_type: ColumnType,
}

/// A table schema: an ordered list of typed columns. Column ids are the
/// positions in this list and become the `column_id` component of universal
/// keys.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Table name.
    pub(crate) table: String,
    /// Ordered column definitions.
    pub(crate) columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(table: impl Into<String>, columns: Vec<(&str, ColumnType)>) -> Self {
        Schema {
            table: table.into(),
            columns: columns
                .into_iter()
                .map(|(name, column_type)| ColumnDef {
                    name: name.to_string(),
                    column_type,
                })
                .collect(),
        }
    }

    /// The column id (universal-key component) of a named column.
    pub(crate) fn column_id(&self, name: &str) -> Result<u32> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| i as u32)
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }

    /// Check that a record's values match the schema's column types.
    pub(crate) fn validate(&self, record: &Record) -> Result<()> {
        for (name, value) in &record.values {
            let id = self.column_id(name)?;
            let def = &self.columns[id as usize];
            if value.column_type() != def.column_type {
                return Err(DbError::TypeMismatch {
                    column: name.clone(),
                    expected: def.column_type.name(),
                });
            }
        }
        Ok(())
    }
}

/// A record (row): a primary key plus named column values.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Record {
    /// Primary key of the row.
    pub primary_key: String,
    /// Column values.
    pub values: BTreeMap<String, Value>,
}

impl Record {
    /// Create an empty record for a primary key.
    pub fn new(primary_key: impl Into<String>) -> Self {
        Record {
            primary_key: primary_key.into(),
            values: BTreeMap::new(),
        }
    }

    /// Builder-style setter.
    pub fn with(mut self, column: impl Into<String>, value: Value) -> Self {
        self.values.insert(column.into(), value);
        self
    }

    /// Access one column's value.
    pub fn get(&self, column: &str) -> Option<&Value> {
        self.values.get(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            "orders",
            vec![
                ("customer", ColumnType::Text),
                ("amount", ColumnType::Integer),
                ("payload", ColumnType::Bytes),
            ],
        )
    }

    #[test]
    fn value_encoding_roundtrip() {
        for value in [
            Value::Integer(-42),
            Value::Integer(i64::MAX),
            Value::Text("hello κόσμος".to_string()),
            Value::Bytes(vec![0, 1, 2, 255]),
            Value::Text(String::new()),
        ] {
            assert_eq!(Value::decode(&value.encode()).unwrap(), value);
        }
        assert!(Value::decode(&[9, 9]).is_err());
        assert!(Value::decode(&[]).is_err());
        assert!(Value::decode(&[0, 1, 2]).is_err());
    }

    #[test]
    fn column_ids_follow_declaration_order() {
        let s = schema();
        assert_eq!(s.column_id("customer").unwrap(), 0);
        assert_eq!(s.column_id("amount").unwrap(), 1);
        assert_eq!(s.column_id("payload").unwrap(), 2);
        assert!(matches!(
            s.column_id("missing"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn record_validation() {
        let s = schema();
        let good = Record::new("order-1")
            .with("customer", Value::Text("alice".into()))
            .with("amount", Value::Integer(250));
        assert!(s.validate(&good).is_ok());

        let wrong_type = Record::new("order-2").with("amount", Value::Text("oops".into()));
        assert!(matches!(
            s.validate(&wrong_type),
            Err(DbError::TypeMismatch { .. })
        ));

        let unknown = Record::new("order-3").with("color", Value::Text("red".into()));
        assert!(matches!(
            s.validate(&unknown),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn record_accessors() {
        let r = Record::new("pk").with("a", Value::Integer(1));
        assert_eq!(r.get("a"), Some(&Value::Integer(1)));
        assert_eq!(r.get("b"), None);
        assert_eq!(r.primary_key, "pk");
    }
}
