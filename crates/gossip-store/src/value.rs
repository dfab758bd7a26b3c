//! Field accessors for decoding journaled rows.
//!
//! The vendored `serde::json::Value` is a bare enum with no lookup helpers;
//! every replay path needs "get field `x` of this object as an
//! `f64`/`u64`/`&str`".  [`ValueExt`] provides those as a small extension
//! trait; the store's record decoders and `gossip-bench`'s row decoders
//! are built on it instead of on nested pattern matches.

use serde::json::Value;

/// Lookup and coercion helpers on [`Value`].
pub trait ValueExt {
    /// Looks up a field of an object by key (first match; journal records
    /// never carry duplicate keys).
    fn get(&self, key: &str) -> Option<&Value>;
    /// The value as a finite float.
    fn as_f64(&self) -> Option<f64>;
    /// The value as an unsigned integer, if it is a number with an exact
    /// `u64` representation.
    fn as_u64(&self) -> Option<u64>;
    /// The value as a string slice.
    fn as_str(&self) -> Option<&str>;
    /// The value as a boolean.
    fn as_bool(&self) -> Option<bool>;
    /// The value as an array slice.
    fn as_array(&self) -> Option<&[Value]>;

    /// Field lookup + unsigned-integer coercion in one step.
    fn field_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }
    /// Field lookup + string coercion in one step.
    fn field_str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }
}

impl ValueExt for Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            // Journal numbers come through f64, which is exact for the
            // integer counts the tiers store (all far below 2^53).
            // `u64::MAX as f64` rounds up to 2^64 itself, so the bound is
            // strict: 2^64 must not saturate to `u64::MAX`.
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Object(vec![
            ("n".to_string(), Value::Number(1000.0)),
            ("ratio".to_string(), Value::Number(0.25)),
            (
                "name".to_string(),
                Value::String("dumbbell-500".to_string()),
            ),
            ("ok".to_string(), Value::Bool(true)),
            (
                "rows".to_string(),
                Value::Array(vec![Value::Number(1.0), Value::Number(2.0)]),
            ),
        ])
    }

    #[test]
    fn accessors_coerce_matching_types() {
        let v = sample();
        assert_eq!(v.field_u64("n"), Some(1000));
        assert_eq!(v.get("ratio").and_then(ValueExt::as_f64), Some(0.25));
        assert_eq!(v.field_str("name"), Some("dumbbell-500"));
        assert_eq!(v.get("ok").and_then(ValueExt::as_bool), Some(true));
        assert_eq!(
            v.get("rows")
                .and_then(ValueExt::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn accessors_reject_mismatched_types() {
        let v = sample();
        assert_eq!(v.field_u64("ratio"), None, "fractional number is not a u64");
        let two_pow_64 = serde_json::from_str("18446744073709551616").unwrap();
        assert_eq!(two_pow_64.as_u64(), None, "2^64 overflows a u64");
        assert_eq!(v.field_str("n"), None);
        assert_eq!(v.get("name").and_then(ValueExt::as_f64), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("n"), None);
    }
}
