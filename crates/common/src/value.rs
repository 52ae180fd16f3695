//! The SQL value model.
//!
//! [`Value`] carries every scalar VeriDB understands. Two properties matter
//! more than in an ordinary database because verification hangs off them:
//!
//! - **Total order.** `⟨key, nKey⟩` chains are ordered lists; `Value`
//!   therefore implements a deterministic total order (floats use IEEE
//!   `total_cmp`, `Null` sorts first, cross-type comparisons order by a
//!   fixed type rank). The order must be identical on the client and in the
//!   enclave or completeness evidence would not verify.
//! - **Canonical encoding.** Set digests are PRFs over encoded bytes, so
//!   [`Value::encode`] produces exactly one byte string per value.

use crate::codec::{put_bytes, put_f64, put_i64, Reader};
use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Str,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "INT"),
            ColumnType::Float => write!(f, "FLOAT"),
            ColumnType::Str => write!(f, "TEXT"),
            ColumnType::Date => write!(f, "DATE"),
        }
    }
}

/// A single SQL scalar value.
#[derive(Debug)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. Ordered with `f64::total_cmp` so the order is total.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Days since the Unix epoch. Kept distinct from `Int` so date literals
    /// (`DATE '1994-01-01'`) compare only against date columns.
    Date(i32),
}

impl Clone for Value {
    fn clone(&self) -> Self {
        match self {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(*i),
            Value::Float(f) => Value::Float(*f),
            Value::Str(s) => Value::Str(s.clone()),
            Value::Date(d) => Value::Date(*d),
        }
    }

    /// A string copied over a string reuses the destination's buffer, so a
    /// key buffer overwritten row after row does not allocate per row.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Value::Str(dst), Value::Str(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// Fixed rank used to order values of different types; within a rank the
/// natural order applies. Comparing across types is needed because chains
/// hold the ⊥/⊤ sentinels plus user keys of one declared type, but a
/// malicious host could splice foreign-typed bytes in — ordering must stay
/// total even then so evidence checks can reject rather than panic.
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 1, // ints and floats compare numerically
        Value::Date(_) => 2,
        Value::Str(_) => 3,
    }
}

impl Value {
    /// The [`ColumnType`] this value inhabits, or `None` for NULL.
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Str(_) => Some(ColumnType::Str),
            Value::Date(_) => Some(ColumnType::Date),
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and numeric comparisons.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(Error::Type(format!("{other} is not numeric"))),
        }
    }

    /// Integer view; floats are rejected (no silent truncation).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(Error::Type(format!("{other} is not an integer"))),
        }
    }

    /// String view.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::Type(format!("{other} is not a string"))),
        }
    }

    /// Date view (days since epoch).
    pub fn as_date(&self) -> Result<i32> {
        match self {
            Value::Date(d) => Ok(*d),
            other => Err(Error::Type(format!("{other} is not a date"))),
        }
    }

    /// Coerce this value to `ty`, if a lossless coercion exists
    /// (Int → Float, Int → Date). NULL coerces to any type.
    pub fn coerce(self, ty: ColumnType) -> Result<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (v @ Value::Int(_), ColumnType::Int) => Ok(v),
            (Value::Int(i), ColumnType::Float) => Ok(Value::Float(i as f64)),
            (Value::Int(i), ColumnType::Date) => Ok(Value::Date(i as i32)),
            (v @ Value::Float(_), ColumnType::Float) => Ok(v),
            (v @ Value::Str(_), ColumnType::Str) => Ok(v),
            (v @ Value::Date(_), ColumnType::Date) => Ok(v),
            (v, ty) => Err(Error::Type(format!("cannot coerce {v} to {ty}"))),
        }
    }

    /// Canonical byte encoding (tag byte + payload). See module docs.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                put_i64(buf, *i);
            }
            Value::Float(f) => {
                buf.push(2);
                put_f64(buf, *f);
            }
            Value::Str(s) => {
                buf.push(3);
                put_bytes(buf, s.as_bytes());
            }
            Value::Date(d) => {
                buf.push(4);
                put_i64(buf, *d as i64);
            }
        }
    }

    /// Encode into a fresh buffer.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        self.encode(&mut buf);
        buf
    }

    /// Decode one value from `r`, advancing it.
    pub fn decode(r: &mut Reader<'_>) -> Result<Value> {
        match r.get_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(r.get_i64()?)),
            2 => Ok(Value::Float(r.get_f64()?)),
            3 => {
                let bytes = r.get_bytes()?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|e| Error::Codec(format!("invalid utf8: {e}")))?;
                Ok(Value::Str(s.to_owned()))
            }
            4 => Ok(Value::Date(r.get_i64()? as i32)),
            tag => Err(Error::Codec(format!("unknown value tag {tag}"))),
        }
    }

    /// Parse a `YYYY-MM-DD` literal into days since 1970-01-01
    /// (proleptic Gregorian; no external time crate needed).
    pub fn parse_date(s: &str) -> Result<Value> {
        let parts: Vec<&str> = s.split('-').collect();
        if parts.len() != 3 {
            return Err(Error::Parse(format!("bad date literal: {s}")));
        }
        let y: i64 = parts[0]
            .parse()
            .map_err(|_| Error::Parse(format!("bad year in date: {s}")))?;
        let m: i64 = parts[1]
            .parse()
            .map_err(|_| Error::Parse(format!("bad month in date: {s}")))?;
        let d: i64 = parts[2]
            .parse()
            .map_err(|_| Error::Parse(format!("bad day in date: {s}")))?;
        if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return Err(Error::Parse(format!("date out of range: {s}")));
        }
        Ok(Value::Date(days_from_civil(y, m, d) as i32))
    }

    /// Render a date value back to `YYYY-MM-DD`.
    pub fn format_date(days: i32) -> String {
        let (y, m, d) = civil_from_days(days as i64);
        format!("{y:04}-{m:02}-{d:02}")
    }
}

/// Howard Hinnant's `days_from_civil` algorithm.
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m + 9) % 12; // March = 0
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state); // hash-compatible with eq across Int/Float
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{}", Value::format_date(*d)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_sane() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(2.0) == Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Date(10) < Value::Date(11));
        // cross-type: int-family < date < str
        assert!(Value::Int(i64::MAX) < Value::Date(0));
        assert!(Value::Date(i32::MAX) < Value::Str(String::new()));
    }

    #[test]
    fn nan_ordering_is_total() {
        let nan = Value::Float(f64::NAN);
        let inf = Value::Float(f64::INFINITY);
        assert!(nan > inf); // total_cmp places +NaN above +inf
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn encode_decode_round_trip() {
        let vals = vec![
            Value::Null,
            Value::Int(-7),
            Value::Float(3.25),
            Value::Str("VeriDB ✓".into()),
            Value::Date(8766),
        ];
        for v in vals {
            let buf = v.encode_to_vec();
            let mut r = Reader::new(&buf);
            let back = Value::decode(&mut r).unwrap();
            assert_eq!(v, back);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn canonical_encoding_is_deterministic() {
        let a = Value::Str("x".into()).encode_to_vec();
        let b = Value::Str("x".into()).encode_to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn date_parsing_matches_known_anchors() {
        assert_eq!(Value::parse_date("1970-01-01").unwrap(), Value::Date(0));
        assert_eq!(Value::parse_date("1970-01-02").unwrap(), Value::Date(1));
        assert_eq!(Value::parse_date("1969-12-31").unwrap(), Value::Date(-1));
        // TPC-H range anchor: 1992-01-01 is 8035 days after epoch.
        assert_eq!(Value::parse_date("1992-01-01").unwrap(), Value::Date(8035));
        assert_eq!(Value::parse_date("2000-03-01").unwrap(), Value::Date(11017));
    }

    #[test]
    fn date_round_trips_through_format() {
        for days in [-1000, -1, 0, 1, 8035, 11017, 20000] {
            let s = Value::format_date(days);
            assert_eq!(Value::parse_date(&s).unwrap(), Value::Date(days));
        }
    }

    #[test]
    fn bad_dates_rejected() {
        assert!(Value::parse_date("1994").is_err());
        assert!(Value::parse_date("1994-13-01").is_err());
        assert!(Value::parse_date("1994-00-01").is_err());
        assert!(Value::parse_date("1994-01-40").is_err());
        assert!(Value::parse_date("abcd-ef-gh").is_err());
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(3).coerce(ColumnType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(Value::Null.coerce(ColumnType::Str).unwrap(), Value::Null);
        assert!(Value::Str("x".into()).coerce(ColumnType::Int).is_err());
        assert!(Value::Float(1.5).coerce(ColumnType::Int).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut r = Reader::new(&[99u8]);
        assert!(Value::decode(&mut r).is_err());
        let mut r = Reader::new(&[3u8, 2, 0, 0, 0, 0xff, 0xfe]); // invalid utf8
        assert!(Value::decode(&mut r).is_err());
    }
}
