//! Typed attribute values for property-graph vertices and edges.
//!
//! TigerGraph vertices carry key-value attribute properties (§2.1). The
//! reproduction keeps a small closed set of types — the ones the paper's
//! examples use (`INT`, `STRING`, plus the numeric types LDBC needs) — with
//! schema checking at insert time.

use tv_common::{TvError, TvResult};

/// Declared type of a vertex/edge attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Double,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl AttrType {
    /// GSQL keyword for this type.
    #[must_use]
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            AttrType::Int => "INT",
            AttrType::Double => "DOUBLE",
            AttrType::Str => "STRING",
            AttrType::Bool => "BOOL",
        }
    }
}

/// Runtime attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl AttrValue {
    /// The type of this value.
    #[must_use]
    pub(crate) fn attr_type(&self) -> AttrType {
        match self {
            AttrValue::Int(_) => AttrType::Int,
            AttrValue::Double(_) => AttrType::Double,
            AttrValue::Str(_) => AttrType::Str,
            AttrValue::Bool(_) => AttrType::Bool,
        }
    }

    /// Integer accessor.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// String accessor.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Double(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Ordered attribute schema of a vertex or edge type.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttrSchema {
    names: Vec<String>,
    types: Vec<AttrType>,
}

impl AttrSchema {
    /// Build from `(name, type)` pairs; duplicate names are rejected.
    pub fn new(fields: impl IntoIterator<Item = (String, AttrType)>) -> TvResult<Self> {
        let mut s = AttrSchema::default();
        for (name, ty) in fields {
            s.push(name, ty)?;
        }
        Ok(s)
    }

    /// Append a field; duplicate names are rejected.
    pub(crate) fn push(&mut self, name: String, ty: AttrType) -> TvResult<()> {
        if self.names.contains(&name) {
            return Err(TvError::Schema(format!("duplicate attribute '{name}'")));
        }
        self.names.push(name);
        self.types.push(ty);
        Ok(())
    }

    /// Number of attributes: the row arity every write is checked
    /// against. Nothing asks whether a schema is empty, so there is no
    /// `is_empty`.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Column index of `name`.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Declared type of column `idx`.
    #[must_use]
    pub fn type_of(&self, idx: usize) -> Option<AttrType> {
        self.types.get(idx).copied()
    }

    /// Check a full row against the schema.
    pub(crate) fn check_row(&self, row: &[AttrValue]) -> TvResult<()> {
        if row.len() != self.len() {
            return Err(TvError::Schema(format!(
                "expected {} attributes, got {}",
                self.len(),
                row.len()
            )));
        }
        for (i, v) in row.iter().enumerate() {
            if v.attr_type() != self.types[i] {
                return Err(TvError::Schema(format!(
                    "attribute '{}' expects {}, got {}",
                    self.names[i],
                    self.types[i].keyword(),
                    v.attr_type().keyword()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> AttrSchema {
        AttrSchema::new([
            ("id".to_string(), AttrType::Int),
            ("name".to_string(), AttrType::Str),
            ("score".to_string(), AttrType::Double),
            ("active".to_string(), AttrType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn index_and_type_lookup() {
        let s = schema();
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.type_of(2), Some(AttrType::Double));
        assert_eq!(s.type_of(9), None);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let r = AttrSchema::new([
            ("a".to_string(), AttrType::Int),
            ("a".to_string(), AttrType::Str),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn check_row_validates_types_and_arity() {
        let s = schema();
        let good = vec![
            AttrValue::Int(1),
            AttrValue::Str("x".into()),
            AttrValue::Double(0.5),
            AttrValue::Bool(true),
        ];
        assert!(s.check_row(&good).is_ok());

        let wrong_type = vec![
            AttrValue::Str("oops".into()),
            AttrValue::Str("x".into()),
            AttrValue::Double(0.5),
            AttrValue::Bool(true),
        ];
        assert!(s.check_row(&wrong_type).is_err());

        assert!(s.check_row(&good[..2]).is_err());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(AttrValue::Int(3).as_int(), Some(3));
        assert_eq!(AttrValue::Str("a".into()).as_str(), Some("a"));
        assert_eq!(AttrValue::Str("a".into()).as_int(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttrValue::Int(-2).to_string(), "-2");
        assert_eq!(AttrValue::Str("hi".into()).to_string(), "hi");
    }
}
