//! The one reader every TOML spec is decoded through: scenarios, sweeps
//! and fault plans.  A read is typed and fails with the key's path
//! (`topology.n: …`); it never wraps a number, never falls back to a
//! default on a value of the wrong type, and [`Item::table`] refuses a key
//! no read asked for, so a misspelling is an error rather than a default.
//! Whether the decoded spec can run is [`crate::Scenario::validate`]'s call.

use crate::spec::SpecError;
use toml::{Table, Value};

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
    pub(crate) fn err(&self, message: impl std::fmt::Display) -> SpecError {
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

    /// A finite number; an integer reads as the float it names.
    pub(crate) fn float(&self) -> Result<f64, SpecError> {
        match *self.value {
            Value::Float(x) if x.is_finite() => Ok(x),
            Value::Integer(i) => Ok(i as f64),
            _ => Err(self.expected("a finite number")),
        }
    }

    pub(crate) fn string(&self) -> Result<String, SpecError> {
        match self.value {
            Value::String(s) => Ok(s.clone()),
            _ => Err(self.expected("a string")),
        }
    }

    pub(crate) fn boolean(&self) -> Result<bool, SpecError> {
        match *self.value {
            Value::Boolean(b) => Ok(b),
            _ => Err(self.expected("true or false")),
        }
    }

    /// A string `parse` accepts; its error is reported at this value's path.
    pub(crate) fn parse<T>(
        &self,
        parse: impl FnOnce(&str) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        parse(&self.string()?).map_err(|e| self.err(e.message))
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

    /// An `[a, b]` pair of non-negative integers.
    pub(crate) fn pair(&self) -> Result<(usize, usize), SpecError> {
        match self.each(Item::uint)?[..] {
            [a, b] => Ok((a, b)),
            _ => Err(self.expected("an [a, b] pair")),
        }
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

    /// `read` of the value under `key`, or `default` when the key is absent
    /// (not when its value has the wrong type).
    pub(crate) fn or<T>(
        &mut self,
        key: &'static str,
        default: T,
        read: impl FnOnce(&Item<'a>) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        self.opt(key).map_or(Ok(default), |item| read(&item))
    }
}
