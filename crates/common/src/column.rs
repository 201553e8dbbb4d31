//! Typed columnar storage: the backing store of [`crate::Batch`].
//!
//! A [`Column`] keeps one column's values in a contiguous typed vector
//! (`Vec<i64>`, `Vec<f64>`, …) plus a packed [`NullMask`], instead of one
//! boxed [`Value`] per cell. That is what makes the polystore's CAST data
//! plane cheap: columns are shared between batches behind `Arc`s
//! (copy-on-write), shipped without per-cell re-boxing, and encoded to the
//! wire as contiguous byte runs.
//!
//! Columns are *value-driven*, not schema-driven: a column starts in the
//! layout its schema hint suggests, but the first value that does not fit
//! the layout degrades the whole column to [`ColumnData::Mixed`] (a plain
//! `Vec<Value>`). The logical contents are therefore always exactly the
//! values that were pushed — batches built from heterogeneous or untyped
//! island results behave bit-for-bit like the old row-major storage did.

use crate::value::{DataType, Value};

/// A packed validity bitmap: bit `i` set means row `i` is NULL.
///
/// For typed columns the data vector keeps a default placeholder (`0`,
/// `0.0`, `""`) in NULL slots so offsets stay trivial; the mask is the
/// source of truth for NULL-ness.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NullMask {
    words: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullMask {
    /// An empty mask.
    pub fn new() -> Self {
        NullMask::default()
    }

    /// An all-valid (no NULLs) mask over `len` rows.
    pub fn all_valid(len: usize) -> Self {
        NullMask {
            words: vec![0; len.div_ceil(64)],
            len,
            nulls: 0,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// True when at least one row is NULL.
    pub fn any(&self) -> bool {
        self.nulls > 0
    }

    /// Whether row `i` is NULL. Out-of-range rows read as not-NULL.
    pub fn is_null(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Append one row to the mask.
    pub fn push(&mut self, null: bool) {
        if self.len % 64 == 0 {
            self.words.push(0);
        }
        if null {
            *self.words.last_mut().expect("word just ensured") |= 1 << (self.len % 64);
            self.nulls += 1;
        }
        self.len += 1;
    }

    /// Append every row of `other`.
    pub fn append(&mut self, other: &NullMask) {
        if !other.any() {
            // the common all-valid case appends only zero bits, and bits
            // past the old length are already zero — just grow the words
            self.len += other.len;
            self.words.resize(self.len.div_ceil(64), 0);
            return;
        }
        for i in 0..other.len {
            self.push(other.is_null(i));
        }
    }

    /// A new mask whose row `k` is this mask's row `idx[k]` (sort/permute/
    /// filter).
    pub fn gather(&self, idx: &[usize]) -> NullMask {
        if !self.any() {
            return NullMask::all_valid(idx.len());
        }
        let mut out = NullMask::new();
        for &i in idx {
            out.push(self.is_null(i));
        }
        out
    }
}

/// The typed payload of a [`Column`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit IEEE floats (stored raw; NaN/-0.0 bit patterns survive).
    Float(Vec<f64>),
    /// UTF-8 strings.
    Text(Vec<String>),
    /// Milliseconds since the epoch.
    Timestamp(Vec<i64>),
    /// Fallback for untyped or heterogeneous columns: one [`Value`] per
    /// row, exactly as pushed (NULLs appear inline as [`Value::Null`]).
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }
}

/// One column of a [`crate::Batch`]: typed payload + NULL bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: NullMask,
}

impl Column {
    /// An empty column laid out for `hint` ([`DataType::Null`] → mixed).
    pub fn new(hint: DataType) -> Self {
        Self::with_capacity(hint, 0)
    }

    /// An empty column laid out for `hint`, pre-sized for `cap` rows.
    pub fn with_capacity(hint: DataType, cap: usize) -> Self {
        let data = match hint {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Text => ColumnData::Text(Vec::with_capacity(cap)),
            DataType::Timestamp => ColumnData::Timestamp(Vec::with_capacity(cap)),
            DataType::Null => ColumnData::Mixed(Vec::with_capacity(cap)),
        };
        Column {
            data,
            nulls: NullMask::new(),
        }
    }

    /// A non-nullable Int column.
    pub fn from_ints(v: Vec<i64>) -> Self {
        let nulls = NullMask::all_valid(v.len());
        Column {
            data: ColumnData::Int(v),
            nulls,
        }
    }

    /// A non-nullable Float column.
    pub fn from_floats(v: Vec<f64>) -> Self {
        let nulls = NullMask::all_valid(v.len());
        Column {
            data: ColumnData::Float(v),
            nulls,
        }
    }

    /// A non-nullable Bool column.
    pub fn from_bools(v: Vec<bool>) -> Self {
        let nulls = NullMask::all_valid(v.len());
        Column {
            data: ColumnData::Bool(v),
            nulls,
        }
    }

    /// A non-nullable Text column.
    pub fn from_texts(v: Vec<String>) -> Self {
        let nulls = NullMask::all_valid(v.len());
        Column {
            data: ColumnData::Text(v),
            nulls,
        }
    }

    /// A non-nullable Timestamp column.
    pub fn from_timestamps(v: Vec<i64>) -> Self {
        let nulls = NullMask::all_valid(v.len());
        Column {
            data: ColumnData::Timestamp(v),
            nulls,
        }
    }

    /// Build a column from values, sniffing the layout: if every non-NULL
    /// value shares one type (and at least one is non-NULL), the column is
    /// typed with a NULL bitmap; otherwise it stays mixed.
    pub fn from_values(values: Vec<Value>) -> Self {
        let mut ty = None;
        for v in &values {
            if v.is_null() {
                continue;
            }
            match ty {
                None => ty = Some(v.data_type()),
                Some(t) if t == v.data_type() => {}
                Some(_) => {
                    ty = None;
                    break;
                }
            }
        }
        let Some(ty) = ty else {
            let nulls = values.iter().fold(NullMask::new(), |mut m, v| {
                m.push(v.is_null());
                m
            });
            return Column {
                data: ColumnData::Mixed(values),
                nulls,
            };
        };
        let mut col = Column::with_capacity(ty, values.len());
        for v in values {
            col.push(v);
        }
        col
    }

    /// Assemble a column from a typed payload and its NULL bitmap (the
    /// decode path of the columnar wire codec). The mask must cover exactly
    /// the payload's rows.
    ///
    /// # Panics
    /// Panics if `nulls.len() != data.len()`.
    pub fn from_parts(data: ColumnData, nulls: NullMask) -> Self {
        assert_eq!(
            nulls.len(),
            data.len(),
            "null mask must cover the payload exactly"
        );
        Column { data, nulls }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The NULL bitmap.
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// Whether row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.is_null(i)
    }

    /// The value of row `i` (Text is cloned).
    ///
    /// # Panics
    /// Panics when `i` is out of range, like slice indexing.
    pub fn value(&self, i: usize) -> Value {
        assert!(i < self.len(), "row {i} out of range (len {})", self.len());
        if self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Text(v) => Value::Text(v[i].clone()),
            ColumnData::Timestamp(v) => Value::Timestamp(v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Approximate heap footprint of the column's payload in bytes —
    /// fixed-width lanes at their natural size, strings at their UTF-8
    /// length plus a small per-string overhead. Used for cache budgeting,
    /// where "roughly right and cheap" beats exact accounting.
    pub fn approx_bytes(&self) -> usize {
        let payload = match &self.data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Text(v) => v.iter().map(|s| s.len() + 24).sum(),
            ColumnData::Mixed(v) => v
                .iter()
                .map(|val| match val {
                    Value::Text(s) => s.len() + 40,
                    _ => 16,
                })
                .sum(),
        };
        payload + self.nulls.len().div_ceil(8)
    }

    /// Iterate the column's values in row order (Text cloned per item).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(|i| self.value(i))
    }

    /// All values, cloned.
    pub fn values(&self) -> Vec<Value> {
        self.iter().collect()
    }

    /// Consume the column into its values, moving payloads out (no Text
    /// clone for uniquely owned columns).
    pub fn into_values(self) -> Vec<Value> {
        let nulls = self.nulls;
        match self.data {
            ColumnData::Bool(v) => pack(v, &nulls, Value::Bool),
            ColumnData::Int(v) => pack(v, &nulls, Value::Int),
            ColumnData::Float(v) => pack(v, &nulls, Value::Float),
            ColumnData::Text(v) => pack(v, &nulls, Value::Text),
            ColumnData::Timestamp(v) => pack(v, &nulls, Value::Timestamp),
            ColumnData::Mixed(v) => v,
        }
    }

    /// Append one value. A value the current layout cannot hold degrades
    /// the column to [`ColumnData::Mixed`] first, so pushes never fail and
    /// never alter what was stored.
    pub fn push(&mut self, v: Value) {
        match (&mut self.data, v) {
            (_, Value::Null) => self.push_null(),
            (ColumnData::Bool(col), Value::Bool(b)) => {
                col.push(b);
                self.nulls.push(false);
            }
            (ColumnData::Int(col), Value::Int(i)) => {
                col.push(i);
                self.nulls.push(false);
            }
            (ColumnData::Float(col), Value::Float(f)) => {
                col.push(f);
                self.nulls.push(false);
            }
            (ColumnData::Text(col), Value::Text(s)) => {
                col.push(s);
                self.nulls.push(false);
            }
            (ColumnData::Timestamp(col), Value::Timestamp(t)) => {
                col.push(t);
                self.nulls.push(false);
            }
            (ColumnData::Mixed(col), v) => {
                self.nulls.push(v.is_null());
                col.push(v);
            }
            (_, v) => {
                self.make_mixed();
                self.push(v);
            }
        }
    }

    /// Append a NULL row.
    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Text(v) => v.push(String::new()),
            ColumnData::Mixed(v) => v.push(Value::Null),
        }
        self.nulls.push(true);
    }

    /// Concatenate another column below this one. Same layouts extend in
    /// place; differing layouts degrade to mixed first.
    pub fn append(&mut self, other: Column) {
        match (&mut self.data, other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend(b),
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend(b),
            (ColumnData::Text(a), ColumnData::Text(b)) => a.extend(b),
            (ColumnData::Timestamp(a), ColumnData::Timestamp(b)) => a.extend(b),
            (ColumnData::Mixed(a), b) => {
                let other = Column {
                    data: b,
                    nulls: other.nulls.clone(),
                };
                a.extend(other.into_values());
            }
            (_, b) => {
                self.make_mixed();
                let other = Column {
                    data: b,
                    nulls: other.nulls.clone(),
                };
                self.append(other);
                return;
            }
        }
        self.nulls.append(&other.nulls);
    }

    /// A new column whose row `k` is this column's row `idx[k]` (the
    /// gather primitive behind sorting).
    pub fn gather(&self, idx: &[usize]) -> Column {
        let nulls = self.nulls.gather(idx);
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::Text(v) => ColumnData::Text(idx.iter().map(|&i| v[i].clone()).collect()),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(idx.iter().map(|&i| v[i]).collect()),
            ColumnData::Mixed(v) => ColumnData::Mixed(idx.iter().map(|&i| v[i].clone()).collect()),
        };
        Column { data, nulls }
    }

    /// The narrowest [`DataType`] admitting every value: `Some(t)` when the
    /// values agree on one (typed layouts answer in O(1)), `Some(Null)` for
    /// all-NULL columns, `None` when the values conflict. Mirrors the
    /// unification rule schema narrowing has always used.
    pub fn natural_type(&self) -> Option<DataType> {
        match &self.data {
            ColumnData::Mixed(values) => {
                let mut acc = DataType::Null;
                for v in values {
                    acc = acc.unify(v.data_type())?;
                }
                Some(acc)
            }
            _ if self.nulls.null_count() == self.len() => Some(DataType::Null),
            ColumnData::Bool(_) => Some(DataType::Bool),
            ColumnData::Int(_) => Some(DataType::Int),
            ColumnData::Float(_) => Some(DataType::Float),
            ColumnData::Text(_) => Some(DataType::Text),
            ColumnData::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Borrow the raw Int payload (`None` unless the layout is Int). NULL
    /// slots hold `0`; consult [`Column::nulls`].
    pub fn as_ints(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the raw Float payload (`None` unless the layout is Float).
    pub fn as_floats(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the raw Bool payload (`None` unless the layout is Bool).
    pub fn as_bools(&self) -> Option<&[bool]> {
        match &self.data {
            ColumnData::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the raw Text payload (`None` unless the layout is Text).
    pub fn as_texts(&self) -> Option<&[String]> {
        match &self.data {
            ColumnData::Text(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the raw Timestamp payload (`None` unless the layout is
    /// Timestamp).
    pub fn as_timestamps(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Timestamp(v) => Some(v),
            _ => None,
        }
    }

    fn make_mixed(&mut self) {
        if matches!(self.data, ColumnData::Mixed(_)) {
            return;
        }
        let taken = std::mem::replace(&mut self.data, ColumnData::Mixed(Vec::new()));
        let col = Column {
            data: taken,
            nulls: self.nulls.clone(),
        };
        self.data = ColumnData::Mixed(col.into_values());
    }
}

/// Rebuild values from a typed payload, honoring the NULL mask.
fn pack<T>(v: Vec<T>, nulls: &NullMask, wrap: impl Fn(T) -> Value) -> Vec<Value> {
    v.into_iter()
        .enumerate()
        .map(|(i, x)| {
            if nulls.is_null(i) {
                Value::Null
            } else {
                wrap(x)
            }
        })
        .collect()
}

impl PartialEq for Column {
    /// Logical equality: same length and pairwise-equal values (using
    /// [`Value`]'s coercive equality), regardless of layout — an Int
    /// column equals a mixed column holding the same integers.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_mask_bits_across_words() {
        let mut m = NullMask::new();
        for i in 0..130 {
            m.push(i % 3 == 0);
        }
        assert_eq!(m.len(), 130);
        assert_eq!(m.null_count(), 44);
        for i in 0..130 {
            assert_eq!(m.is_null(i), i % 3 == 0, "bit {i}");
        }
        assert!(!m.is_null(1000), "out of range reads as valid");
        // appending carries bits across word boundaries, on both the
        // null-carrying path and the all-valid fast path
        let mut a = NullMask::new();
        for i in 0..70 {
            a.push(i % 3 == 0);
        }
        a.append(&m);
        a.append(&NullMask::all_valid(70));
        assert_eq!(a.len(), 70 + 130 + 70);
        for i in 0..70 {
            assert_eq!(a.is_null(i), i % 3 == 0);
        }
        for i in 0..130 {
            assert_eq!(a.is_null(70 + i), m.is_null(i));
        }
        for i in 0..70 {
            assert!(!a.is_null(200 + i));
        }
        assert_eq!(a.null_count(), 24 + 44);
    }

    #[test]
    fn gather_equals_the_bit_by_bit_result() {
        let bit_by_bit = |m: &NullMask, idx: &[usize]| {
            idx.iter().fold(NullMask::new(), |mut out, &i| {
                out.push(m.is_null(i));
                out
            })
        };
        let build = |null: fn(usize) -> bool| {
            (0..130).fold(NullMask::new(), |mut m, i| {
                m.push(null(i));
                m
            })
        };
        // repeats, reversal, and a run that crosses both word boundaries
        let idx: Vec<usize> = (0..130).rev().chain([0, 0, 64, 129, 63]).collect();
        for mask in [build(|_| false), build(|_| true), build(|i| i % 3 == 0)] {
            for idx in [&idx[..], &idx[..64], &[]] {
                let got = mask.gather(idx);
                assert_eq!(got, bit_by_bit(&mask, idx));
                assert_eq!(got.len(), idx.len());
            }
        }
    }

    #[test]
    fn typed_push_and_null_placeholders() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(7));
        c.push_null();
        c.push(Value::Int(9));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(7));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.as_ints().unwrap(), &[7, 0, 9]);
        assert!(c.nulls().is_null(1));
    }

    #[test]
    fn mismatched_push_degrades_to_mixed_losslessly() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(1));
        c.push_null();
        c.push(Value::Text("x".into()));
        assert!(c.as_ints().is_none());
        assert_eq!(
            c.values(),
            vec![Value::Int(1), Value::Null, Value::Text("x".into())]
        );
    }

    #[test]
    fn timestamp_and_int_layouts_stay_distinct() {
        let mut c = Column::new(DataType::Timestamp);
        c.push(Value::Timestamp(5));
        c.push(Value::Int(6));
        assert!(c.as_timestamps().is_none(), "degraded to mixed");
        assert_eq!(c.values(), vec![Value::Timestamp(5), Value::Int(6)]);
    }

    #[test]
    fn from_values_sniffs_uniform_type() {
        let c = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(c.as_ints().unwrap(), &[1, 0, 3]);
        assert_eq!(c.natural_type(), Some(DataType::Int));
        let c = Column::from_values(vec![Value::Int(1), Value::Float(2.0)]);
        assert!(c.as_ints().is_none());
        assert_eq!(c.natural_type(), Some(DataType::Float), "unified");
        let c = Column::from_values(vec![Value::Null, Value::Null]);
        assert_eq!(c.natural_type(), Some(DataType::Null));
        let c = Column::from_values(vec![Value::Bool(true), Value::Text("x".into())]);
        assert_eq!(c.natural_type(), None, "conflicting types");
    }

    #[test]
    fn append_same_and_cross_layout() {
        let mut a = Column::from_ints(vec![1, 2]);
        a.append(Column::from_ints(vec![3]));
        assert_eq!(a.as_ints().unwrap(), &[1, 2, 3]);
        a.append(Column::from_texts(vec!["x".into()]));
        assert_eq!(
            a.values(),
            vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Text("x".into())
            ]
        );
    }

    #[test]
    fn gather_permutes_with_nulls() {
        let mut c = Column::new(DataType::Text);
        c.push(Value::Text("a".into()));
        c.push_null();
        c.push(Value::Text("c".into()));
        let g = c.gather(&[2, 0, 1]);
        assert_eq!(
            g.values(),
            vec![
                Value::Text("c".into()),
                Value::Text("a".into()),
                Value::Null
            ]
        );
    }

    #[test]
    fn into_values_moves_payload() {
        let c = Column::from_texts(vec!["a".into(), "b".into()]);
        assert_eq!(
            c.into_values(),
            vec![Value::Text("a".into()), Value::Text("b".into())]
        );
    }

    #[test]
    fn logical_equality_ignores_layout() {
        let typed = Column::from_ints(vec![1, 2]);
        let mixed = Column::from_parts(
            ColumnData::Mixed(vec![Value::Int(1), Value::Int(2)]),
            NullMask::all_valid(2),
        );
        assert_eq!(typed, mixed);
    }
}
