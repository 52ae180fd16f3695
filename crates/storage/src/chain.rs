//! Chain keys: the ordered key space of a `⟨key, nKey⟩` chain.
//!
//! A chain's key space is the column's value domain extended with the two
//! sentinels `⊥` (below everything) and `⊤` (above everything) from
//! Definition 4.2. Secondary chains additionally need *unique* keys even
//! when column values repeat — the paper's chains assume distinct keys —
//! so a secondary chain key is the composite `(column value, primary key)`
//! ordered lexicographically. A range predicate `[lo, hi]` on the column
//! translates to the composite range `[(lo), ((hi, ⊤))]` using the
//! prefix-is-smaller comparison implemented here.

use std::cmp::Ordering;
use veridb_common::codec::Reader;
use veridb_common::{Error, Result, Value};

/// A (possibly composite) concrete chain key: the column value, then the
/// primary key on secondary chains. Every chain key has one or two
/// components, so both live inline; a decoded record's keys then cost no
/// heap allocation unless a component is itself a string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompositeKey(Value, Option<Value>);

impl CompositeKey {
    /// Single-component key.
    pub fn single(v: Value) -> Self {
        CompositeKey(v, None)
    }

    /// Two-component key (secondary chains: `(column value, primary key)`).
    pub fn pair(v: Value, pk: Value) -> Self {
        CompositeKey(v, Some(pk))
    }

    /// The leading component (the column value).
    pub fn head(&self) -> &Value {
        &self.0
    }

    /// The components in order.
    fn components(&self) -> impl Iterator<Item = &Value> {
        std::iter::once(&self.0).chain(&self.1)
    }
}

impl PartialOrd for CompositeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompositeKey {
    /// Lexicographic, with a strict prefix ordering *before* any extension:
    /// `(5) < (5, anything)`. This makes `(lo)` a lower bound for every
    /// record whose column value is `lo`. `Option` orders `None` first,
    /// which is exactly the prefix rule.
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0).then_with(|| self.1.cmp(&other.1))
    }
}

impl std::fmt::Display for CompositeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.1 {
            None => write!(f, "{}", self.0),
            Some(pk) => write!(f, "({},{pk})", self.0),
        }
    }
}

/// A point in a chain's extended key space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ChainKey {
    /// This record does not participate in the chain (the `−` dashes of
    /// Figure 6: a sentinel of one chain is absent from the others).
    Absent,
    /// `⊥`: below every concrete key.
    NegInf,
    /// A concrete key.
    Val(CompositeKey),
    /// `⊤`: above every concrete key.
    PosInf,
}

impl ChainKey {
    /// A single-value key.
    pub fn val(v: Value) -> Self {
        ChainKey::Val(CompositeKey::single(v))
    }

    /// A `(column value, primary key)` composite.
    pub fn pair(v: Value, pk: Value) -> Self {
        ChainKey::Val(CompositeKey::pair(v, pk))
    }

    /// The concrete composite, if any.
    pub fn as_val(&self) -> Option<&CompositeKey> {
        match self {
            ChainKey::Val(k) => Some(k),
            _ => None,
        }
    }

    /// True for `⊥`.
    pub fn is_neg_inf(&self) -> bool {
        matches!(self, ChainKey::NegInf)
    }

    /// True for `⊤`.
    pub fn is_pos_inf(&self) -> bool {
        matches!(self, ChainKey::PosInf)
    }

    /// True for a concrete key.
    pub fn is_val(&self) -> bool {
        matches!(self, ChainKey::Val(_))
    }

    fn rank(&self) -> u8 {
        match self {
            ChainKey::Absent => 0, // never ordered against others in practice
            ChainKey::NegInf => 1,
            ChainKey::Val(_) => 2,
            ChainKey::PosInf => 3,
        }
    }

    /// Canonical encoding.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ChainKey::Absent => buf.push(0),
            ChainKey::NegInf => buf.push(1),
            ChainKey::Val(k) => {
                buf.push(2);
                buf.push(1 + k.1.is_some() as u8);
                for v in k.components() {
                    v.encode(buf);
                }
            }
            ChainKey::PosInf => buf.push(3),
        }
    }

    /// Decode one chain key.
    pub fn decode(r: &mut Reader<'_>) -> Result<ChainKey> {
        match r.get_u8()? {
            0 => Ok(ChainKey::Absent),
            1 => Ok(ChainKey::NegInf),
            2 => {
                let n = r.get_u8()?;
                if n == 0 || n > 2 {
                    return Err(Error::Codec(format!("bad composite arity {n}")));
                }
                let head = Value::decode(r)?;
                let pk = if n == 2 {
                    Some(Value::decode(r)?)
                } else {
                    None
                };
                Ok(ChainKey::Val(CompositeKey(head, pk)))
            }
            3 => Ok(ChainKey::PosInf),
            t => Err(Error::Codec(format!("unknown chain key tag {t}"))),
        }
    }
}

impl PartialOrd for ChainKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ChainKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (ChainKey::Val(a), ChainKey::Val(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl std::fmt::Display for ChainKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainKey::Absent => write!(f, "−"),
            ChainKey::NegInf => write!(f, "⊥"),
            ChainKey::Val(k) => write!(f, "{k}"),
            ChainKey::PosInf => write!(f, "⊤"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::rng::{check, Rng};

    #[test]
    fn sentinel_ordering() {
        let k = ChainKey::val(Value::Int(0));
        assert!(ChainKey::NegInf < k);
        assert!(k < ChainKey::PosInf);
        assert!(ChainKey::NegInf < ChainKey::PosInf);
    }

    #[test]
    fn prefix_sorts_before_extension() {
        let lo = CompositeKey::single(Value::Int(5));
        let rec = CompositeKey::pair(Value::Int(5), Value::Int(1));
        assert!(lo < rec);
        let hi = CompositeKey::pair(Value::Int(5), Value::Int(i64::MAX));
        assert!(rec < hi);
        // and a smaller column value sorts wholly below
        let below = CompositeKey::pair(Value::Int(4), Value::Int(999));
        assert!(below < lo);
    }

    #[test]
    fn encode_decode_round_trip() {
        let keys = vec![
            ChainKey::Absent,
            ChainKey::NegInf,
            ChainKey::PosInf,
            ChainKey::val(Value::Int(42)),
            ChainKey::pair(Value::Str("abc".into()), Value::Int(7)),
        ];
        for k in keys {
            let mut buf = Vec::new();
            k.encode(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(ChainKey::decode(&mut r).unwrap(), k);
        }
    }

    #[test]
    fn decode_rejects_bad_arity_and_tag() {
        let mut r = Reader::new(&[2u8, 0]);
        assert!(ChainKey::decode(&mut r).is_err());
        let mut r = Reader::new(&[9u8]);
        assert!(ChainKey::decode(&mut r).is_err());
    }

    #[test]
    fn encoding_is_pinned() {
        // PRF inputs and pinned digests hash these bytes: tag 2, arity,
        // then each component's canonical value encoding.
        let mut buf = Vec::new();
        ChainKey::val(Value::Int(42)).encode(&mut buf);
        assert_eq!(buf, [2, 1, 1, 42, 0, 0, 0, 0, 0, 0, 0]);
        buf.clear();
        ChainKey::pair(Value::Date(9000), Value::Int(7)).encode(&mut buf);
        assert_eq!(
            buf,
            [2, 2, 4, 0x28, 0x23, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn decode_rejects_arity_zero_and_three() {
        let mut three = vec![2u8, 3];
        for v in [1, 2, 3] {
            Value::Int(v).encode(&mut three);
        }
        for bytes in [vec![2u8, 0], three] {
            let err = ChainKey::decode(&mut Reader::new(&bytes)).unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "{err:?}");
        }
    }

    fn component(rng: &mut Rng) -> Value {
        match rng.gen_range(0..4u64) {
            0 => Value::Null,
            1 => Value::Int(rng.gen_range(0..3i64)),
            2 => Value::Date(rng.gen_range(0..3i32)),
            _ => Value::Str(rng.string("ab", 0..3)),
        }
    }

    fn key(rng: &mut Rng) -> CompositeKey {
        let head = component(rng);
        if rng.gen_bool(0.5) {
            CompositeKey::single(head)
        } else {
            CompositeKey::pair(head, component(rng))
        }
    }

    #[test]
    fn inline_order_is_lexicographic_with_prefix_first() {
        check(512, |rng| {
            let (a, b) = (key(rng), key(rng));
            // The rule as stated over component lists: slice order is
            // lexicographic, and a strict prefix sorts first.
            let (ca, cb): (Vec<&Value>, Vec<&Value>) =
                (a.components().collect(), b.components().collect());
            assert_eq!(a.cmp(&b), ca.cmp(&cb), "{a} vs {b}");
            assert_eq!(a == b, ca == cb, "{a} vs {b}");
        });
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(ChainKey::NegInf.to_string(), "⊥");
        assert_eq!(ChainKey::PosInf.to_string(), "⊤");
        assert_eq!(ChainKey::Absent.to_string(), "−");
        assert_eq!(ChainKey::val(Value::Int(3)).to_string(), "3");
    }
}
