//! The one reader and the one writer of every spec vocabulary: scenarios,
//! sweeps and fault plans in TOML, and the line a churn trace, the WAL and
//! a snapshot's pending batch share.
//!
//! A type that crosses a file boundary implements [`Keys`]: one function
//! that visits each of its keys once, naming the key, the slot that holds
//! its value and the value's [`Kind`].  A [`Form`] drives that visit one
//! of four ways — read a TOML table, write one, read a line, write one —
//! so a key is declared in one place.  A variant's name (`family`, `kind`,
//! `op`, `param`) is a [`Tag`]: one [`Named`] table per type, read in both
//! directions.
//!
//! Reading is checked.  A read is typed and fails with the key's path
//! (`topology.n: …`); it never wraps a number, never falls back to a
//! default on a value of the wrong type, and [`Item::table`] refuses a key
//! no read asked for, so a misspelling is an error rather than a default.
//! Whether the decoded spec can run is [`crate::Scenario::validate`]'s call.

use crate::spec::SpecError;
use std::fmt::{Display, Write as _};
use std::mem::discriminant;
use toml::{Table, Value};

/// What a visit of one key, or of a whole key list, returns.
pub(crate) type Visit = Result<(), SpecError>;

/// One value and the path it was read from (`phases[1].faults.loss`).
pub(crate) struct Item<'a> {
    path: String,
    value: &'a Value,
}

/// A table being decoded by [`Item::table`], which records each key asked.
pub(crate) struct Fields<'a> {
    path: String,
    table: &'a Table,
    asked: Vec<&'static str>,
}

impl<'a> Item<'a> {
    /// The document root.
    pub(crate) fn root(value: &'a Value) -> Self {
        let path = String::new();
        Item { path, value }
    }

    /// An error about this value, prefixed with its path.
    pub(crate) fn err(&self, message: impl Display) -> SpecError {
        SpecError::new(format!("{}: {message}", self.path))
    }

    fn expected(&self, what: &str) -> SpecError {
        match self.value {
            Value::Table(_) => self.err(format!("expected {what}, got a table")),
            other => self.err(format!("expected {what}, got {other}")),
        }
    }

    /// A non-negative integer that fits `T`.
    pub(crate) fn uint<T: TryFrom<i64>>(&self) -> Result<T, SpecError> {
        let fits = match *self.value {
            Value::Integer(i) => T::try_from(i).ok(),
            _ => None,
        };
        fits.ok_or_else(|| self.expected("a non-negative integer"))
    }

    /// A seed: any 64-bit pattern.  TOML integers are signed, so a seed of
    /// 2⁶³ or more is written as the negative integer with the same bits.
    pub(crate) fn seed(&self) -> Result<u64, SpecError> {
        match *self.value {
            Value::Integer(i) => Ok(i as u64),
            _ => Err(self.expected("an integer seed")),
        }
    }

    pub(crate) fn string(&self) -> Result<String, SpecError> {
        match self.value {
            Value::String(s) => Ok(s.clone()),
            _ => Err(self.expected("a string")),
        }
    }

    /// An array, each element decoded by `read`.
    pub(crate) fn each<T>(
        &self,
        mut read: impl FnMut(&Item<'a>) -> Result<T, SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        let Value::Array(values) = self.value else {
            return Err(self.expected("an array"));
        };
        let item = |(k, value)| Item {
            path: format!("{}[{k}]", self.path),
            value,
        };
        values.iter().enumerate().map(|e| read(&item(e))).collect()
    }

    /// A table decoded by `read`; a key `read` did not ask for is an error.
    pub(crate) fn table<T>(
        &self,
        read: impl FnOnce(&mut Fields<'a>) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        let Value::Table(table) = self.value else {
            return Err(self.expected("a table"));
        };
        let mut fields = Fields {
            path: self.path.clone(),
            table,
            asked: Vec::new(),
        };
        let decoded = read(&mut fields)?;
        match table.keys().find(|k| !fields.asked.contains(&k.as_str())) {
            None => Ok(decoded),
            Some(k) => Err(SpecError::new(format!(
                "{}: unknown key (this table takes {})",
                fields.path_of(k),
                fields.asked.join(", ")
            ))),
        }
    }

    /// Is this an integer (as opposed to a float, say)?
    pub(crate) fn is_integer(&self) -> bool {
        matches!(self.value, Value::Integer(_))
    }
}

impl<'a> Fields<'a> {
    fn path_of(&self, key: &str) -> String {
        match self.path.as_str() {
            "" => key.to_string(),
            path => format!("{path}.{key}"),
        }
    }

    /// The value under `key`, if there is one.
    pub(crate) fn opt(&mut self, key: &'static str) -> Option<Item<'a>> {
        self.asked.push(key);
        let path = self.path_of(key);
        self.table.get(key).map(|value| Item { path, value })
    }

    /// The value under `key`; a missing key is an error.
    pub(crate) fn req(&mut self, key: &'static str) -> Result<Item<'a>, SpecError> {
        self.opt(key)
            .ok_or_else(|| SpecError::new(format!("{}: missing", self.path_of(key))))
    }
}

/// A type that crosses a file boundary, as the list of its keys.
pub(crate) trait Keys: Clone {
    /// What reading starts from: each optional key holds its default (a
    /// required key holds a placeholder the read replaces).
    fn blank() -> Self;

    /// Visit each key once, in file order.  The slots are `&mut` so that
    /// one visit serves reading; writing visits a copy.
    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit;

    /// Read the line form: one word per key, the tag first.
    fn from_line(line: &str) -> Result<Self, String> {
        let (mut value, mut words) = (Self::blank(), line.split_whitespace());
        let read = value.keys(&mut Form::ReadLine(&mut words));
        match (read, words.next()) {
            (Err(e), _) => Err(e.message),
            (Ok(()), Some(extra)) => Err(format!("{extra:?} is one operand too many")),
            (Ok(()), None) => Ok(value),
        }
    }

    /// Write the line form: one allocation while the line fits 32 bytes.
    fn to_line(&self) -> String {
        let mut line = String::with_capacity(32);
        let written = self.clone().keys(&mut Form::WriteLine(&mut line));
        written.expect("writing cannot fail");
        line
    }
}

/// One visit of a [`Keys`] type, in one direction.
pub(crate) enum Form<'f, 'a> {
    /// Each key's value is read from the table into its slot.
    Read(&'f mut Fields<'a>),
    /// Each slot's value is written into the table under its key.
    Write(&'f mut Table),
    /// Each key's value is the line's next word.
    ReadLine(&'f mut std::str::SplitWhitespace<'a>),
    /// Each slot's value is the line's next word, after a space.
    WriteLine(&'f mut String),
}

impl Form<'_, '_> {
    /// A key reading requires.
    pub(crate) fn req<T>(&mut self, key: &'static str, slot: &mut T, kind: impl Kind<T>) -> Visit {
        self.visit(key, slot, &kind, true)
    }

    /// A key reading may find absent: `slot` then keeps its default.
    pub(crate) fn opt<T>(&mut self, key: &'static str, slot: &mut T, kind: impl Kind<T>) -> Visit {
        self.visit(key, slot, &kind, false)
    }

    /// [`Form::opt`], left out of a written table while `slot` is `default`.
    pub(crate) fn opt_unless<T>(
        &mut self,
        key: &'static str,
        slot: &mut T,
        default: T,
        kind: impl Kind<T>,
    ) -> Visit
    where
        T: PartialEq,
    {
        match self {
            Form::Write(_) if *slot == default => Ok(()),
            _ => self.visit(key, slot, &kind, false),
        }
    }

    fn visit<T>(
        &mut self,
        key: &'static str,
        slot: &mut T,
        kind: &impl Kind<T>,
        req: bool,
    ) -> Visit {
        match self {
            Form::Read(fields) => {
                let item = if req {
                    Some(fields.req(key)?)
                } else {
                    fields.opt(key)
                };
                if let Some(item) = item {
                    *slot = kind.read(&item)?;
                }
            }
            Form::Write(table) => {
                table.insert(key.to_string(), kind.write(slot));
            }
            Form::ReadLine(words) => {
                let word = words
                    .next()
                    .ok_or_else(|| SpecError::new(format!("missing {key}")))?;
                *slot = kind.parse(word)?;
            }
            Form::WriteLine(line) => {
                if !line.is_empty() {
                    line.push(' ');
                }
                kind.print(slot, line);
            }
        }
        Ok(())
    }
}

/// How one key's value is read and written.
pub(crate) trait Kind<T> {
    /// The value at `item`.
    fn read(&self, item: &Item<'_>) -> Result<T, SpecError>;
    /// The TOML form of `value` (`&mut` to visit a sub-table's keys).
    fn write(&self, value: &mut T) -> Value;
    /// The value a word of a line spells: only integers and names have one.
    fn parse(&self, _word: &str) -> Result<T, SpecError> {
        unreachable!("a line holds integers and names only")
    }
    /// Append the word of `value` to a line.
    fn print(&self, _value: &T, _line: &mut String) {
        unreachable!("a line holds integers and names only")
    }
}

/// A non-negative integer that fits the slot ([`Item::uint`]).
pub(crate) struct Uint;
/// Any 64-bit pattern ([`Item::seed`]).
pub(crate) struct Seed;
/// A finite number; an integer reads as the float it names.
pub(crate) struct Float;
/// A string.
pub(crate) struct Text;
/// `true` or `false`.
pub(crate) struct Flag;
/// An `[a, b]` pair of non-negative integers.
pub(crate) struct Pair;
/// An array, each element of the inner kind.
pub(crate) struct List<K>(pub(crate) K);
/// A sub-table: a [`Keys`] type.
pub(crate) struct Sub;
/// A name from the slot type's [`Named`] table.
pub(crate) struct Tag;

impl<T> Kind<T> for Uint
where
    T: Copy + TryFrom<i64> + TryInto<u64> + std::str::FromStr<Err: Display> + Display,
{
    fn read(&self, item: &Item<'_>) -> Result<T, SpecError> {
        item.uint()
    }
    fn write(&self, value: &mut T) -> Value {
        // 2⁶³ and more are written as negative integers, which `read`
        // refuses: the ∞ sentinel never round-trips into a weight.
        Value::Integer((*value).try_into().unwrap_or(u64::MAX) as i64)
    }
    fn parse(&self, word: &str) -> Result<T, SpecError> {
        let bad = |e| SpecError::new(format!("bad operand {word:?}: {e}"));
        word.parse().map_err(bad)
    }
    fn print(&self, value: &T, line: &mut String) {
        let _ = write!(line, "{value}");
    }
}

impl Kind<u64> for Seed {
    fn read(&self, item: &Item<'_>) -> Result<u64, SpecError> {
        item.seed()
    }
    fn write(&self, value: &mut u64) -> Value {
        Value::Integer(*value as i64)
    }
}

impl Kind<f64> for Float {
    fn read(&self, item: &Item<'_>) -> Result<f64, SpecError> {
        match *item.value {
            Value::Float(x) if x.is_finite() => Ok(x),
            Value::Integer(i) => Ok(i as f64),
            _ => Err(item.expected("a finite number")),
        }
    }
    fn write(&self, value: &mut f64) -> Value {
        Value::Float(*value)
    }
}

impl Kind<String> for Text {
    fn read(&self, item: &Item<'_>) -> Result<String, SpecError> {
        item.string()
    }
    fn write(&self, value: &mut String) -> Value {
        Value::String(value.clone())
    }
}

impl Kind<bool> for Flag {
    fn read(&self, item: &Item<'_>) -> Result<bool, SpecError> {
        match *item.value {
            Value::Boolean(b) => Ok(b),
            _ => Err(item.expected("true or false")),
        }
    }
    fn write(&self, value: &mut bool) -> Value {
        Value::Boolean(*value)
    }
}

impl Kind<(usize, usize)> for Pair {
    fn read(&self, item: &Item<'_>) -> Result<(usize, usize), SpecError> {
        match item.each(Item::uint)?[..] {
            [a, b] => Ok((a, b)),
            _ => Err(item.expected("an [a, b] pair")),
        }
    }
    fn write(&self, (a, b): &mut (usize, usize)) -> Value {
        Value::Array(vec![Uint.write(a), Uint.write(b)])
    }
}

impl<T, K: Kind<T>> Kind<Vec<T>> for List<K> {
    fn read(&self, item: &Item<'_>) -> Result<Vec<T>, SpecError> {
        item.each(|element| self.0.read(element))
    }
    fn write(&self, values: &mut Vec<T>) -> Value {
        Value::Array(values.iter_mut().map(|v| self.0.write(v)).collect())
    }
}

impl<T: Keys> Kind<T> for Sub {
    fn read(&self, item: &Item<'_>) -> Result<T, SpecError> {
        let mut value = T::blank();
        item.table(|fields| value.keys(&mut Form::Read(fields)))?;
        Ok(value)
    }
    fn write(&self, value: &mut T) -> Value {
        let mut table = Table::new();
        let written = value.keys(&mut Form::Write(&mut table));
        written.expect("writing cannot fail");
        Value::Table(table)
    }
}

impl<T: Named> Kind<T> for Tag {
    fn read(&self, item: &Item<'_>) -> Result<T, SpecError> {
        T::from_name(&item.string()?).map_err(|e| item.err(e.message))
    }
    fn write(&self, value: &mut T) -> Value {
        Value::String(value.name().to_string())
    }
    fn parse(&self, word: &str) -> Result<T, SpecError> {
        T::from_name(word)
    }
    fn print(&self, value: &T, line: &mut String) {
        line.push_str(value.name());
    }
}

/// A type spelled by name: its one table, read in both directions.
pub(crate) trait Named: Sized {
    /// Each name and the value it reads as.  A variant's keys follow its
    /// name, so the payload here is their defaults.
    fn names() -> impl Iterator<Item = (&'static str, Self)>;

    /// The value `name` names.
    fn from_name(name: &str) -> Result<Self, SpecError> {
        let known = || Self::names().map(|(n, _)| n).collect::<Vec<_>>().join(", ");
        match Self::names().find(|(n, _)| *n == name) {
            Some((_, value)) => Ok(value),
            None => Err(SpecError::new(format!(
                "{name:?} is not one of {}",
                known()
            ))),
        }
    }

    /// The name of `self`'s variant.
    fn name(&self) -> &'static str {
        let variant = discriminant(self);
        let mut names = Self::names().filter(|(_, v)| discriminant(v) == variant);
        names.next().expect("every variant is named").0
    }
}

/// Read a TOML document as a [`Keys`] type.
pub(crate) fn read_toml<T: Keys>(input: &str) -> Result<T, SpecError> {
    let value = toml::from_str(input).map_err(|e| SpecError::new(format!("invalid TOML: {e}")))?;
    Sub.read(&Item::root(&value))
}

/// Write a [`Keys`] type as a TOML document.
pub(crate) fn write_toml<T: Keys>(value: &T) -> String {
    Sub.write(&mut value.clone()).to_string()
}
