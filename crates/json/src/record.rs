//! Record shapes declared once. A [`record!`](crate::record) declaration
//! is a shape's ordinary Rust type definition; from it the macro
//! generates the shape's four codecs — the stream writer, the tree
//! writer, the tree-free [`Cursor`] reader and the tree reader — and, for
//! an enum, its kind table. Each field is spelled through [`Field`], the
//! codec trait every field type implements once.

use std::sync::Arc;

use crate::{parse, write_escaped, write_num, Cursor, Json, TextSink};

/// How a value is spelled as one field of a declared record: the four
/// codecs [`record!`](crate::record) composes a record's from.
///
/// `S` names the spelling. A type has one unless a field says otherwise
/// with `#[json(with = S)]`: a [`Named`] runtime preference in an event,
/// an [`OrDefault`] flag a hand-written schema may leave out.
///
/// Three readings agree on every value: `write` streams the text
/// `to_tree().to_string()` prints, `read` reads that text back without a
/// tree (and nothing else: any other spelling is `None`), and
/// `from_tree` reads the same value from the parsed text.
pub trait Field<S = Plain>: Sized {
    /// Streams the value's text into `out`.
    fn write<W: TextSink + ?Sized>(&self, out: &mut W);
    /// The value as a tree.
    fn to_tree(&self) -> Json;
    /// Reads back exactly what [`Field::write`] streams.
    fn read(r: &mut Cursor<'_>) -> Option<Self>;
    /// Reads field `key` from the tree of the object holding it: `value`
    /// is the field's value, `None` when the object has no such field.
    ///
    /// # Errors
    ///
    /// What is wrong with the field, naming `key`.
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String>;
}

/// A type's one spelling: the default for every field.
#[derive(Debug)]
pub struct Plain;

/// A field a hand-written record may leave out: absent reads as the
/// type's default; present, it must be well formed.
#[derive(Debug)]
pub struct OrDefault;

/// A closed set spelled by its Rust variant names (`AllReduce`), beside
/// the tag it has in a [`Plain`] field (`all-reduce`).
#[derive(Debug)]
pub struct Named;

/// Reads a whole record from `text`: the tree-free reader first, and on
/// any other spelling the parser and the tree reader — so the result, or
/// the error, is what the tree reader makes of `text` either way.
///
/// # Errors
///
/// The parse error, or the first malformed field.
pub fn from_text<T: Field>(text: &str) -> Result<T, String> {
    let mut r = Cursor::new(text);
    match T::read(&mut r) {
        Some(value) if r.at_end() => Ok(value),
        // A record is read whole, so no key names it.
        _ => T::from_tree(Some(&parse(text).map_err(|e| e.to_string())?), ""),
    }
}

impl Field for f64 {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        write_num(*self, out);
    }
    fn to_tree(&self) -> Json {
        Json::Num(*self)
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        r.num()
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        let n = value.and_then(Json::as_f64);
        n.ok_or_else(|| format!("missing or non-numeric field '{key}'"))
    }
}

impl Field for u64 {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        write_num(*self as f64, out);
    }
    fn to_tree(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        r.u64()
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        let n = value.and_then(Json::as_u64);
        n.ok_or_else(|| format!("missing or non-integer field '{key}'"))
    }
}

impl Field for u32 {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        write_num(f64::from(*self), out);
    }
    fn to_tree(&self) -> Json {
        Json::Num(f64::from(*self))
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        r.u32()
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        let n = <u64 as Field>::from_tree(value, key)?;
        u32::try_from(n).map_err(|_| format!("field '{key}' exceeds u32"))
    }
}

impl Field for bool {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn to_tree(&self) -> Json {
        Json::Bool(*self)
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        r.eat("true")
            .then_some(true)
            .or_else(|| r.eat("false").then_some(false))
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        let b = value.and_then(Json::as_bool);
        b.ok_or_else(|| format!("missing or non-boolean field '{key}'"))
    }
}

impl Field for String {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        write_escaped(self, out);
    }
    fn to_tree(&self) -> Json {
        Json::Str(self.clone())
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        r.str().map(str::to_owned)
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        let s = value.and_then(Json::as_str).map(str::to_owned);
        s.ok_or_else(|| format!("missing or non-string field '{key}'"))
    }
}

/// A string many holders share, read into one allocation.
impl Field for Arc<str> {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        write_escaped(self, out);
    }
    fn to_tree(&self) -> Json {
        Json::from(&**self)
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        r.str().map(Arc::from)
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        let s = value.and_then(Json::as_str).map(Arc::from);
        s.ok_or_else(|| format!("missing or non-string field '{key}'"))
    }
}

/// `null` when absent, so an absent field reads as `None` too.
impl<T: Field> Field for Option<T> {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        match self {
            Some(value) => value.write(out),
            None => out.push_str("null"),
        }
    }
    fn to_tree(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_tree)
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        if r.eat("null") {
            return Some(None);
        }
        T::read(r).map(Some)
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        match value {
            None | Some(Json::Null) => Ok(None),
            Some(_) => T::from_tree(value, key).map(Some),
        }
    }
}

/// A slice many holders share, spelled as the array it holds. Each
/// reader allocates it once, at its length: the cursor counts the items
/// before it reads them (`Cursor::items`), the tree has them counted,
/// and a `Range` or slice iterator is `TrustedLen`, so the collect sizes
/// the slice before filling it. An item that fails to read leaves a
/// default in its place, and the read fails.
impl<T: Field + Default> Field for Arc<[T]> {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        out.push_str("[");
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(",");
            }
            item.write(out);
        }
        out.push_str("]");
    }
    fn to_tree(&self) -> Json {
        Json::Arr(self.iter().map(T::to_tree).collect())
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        let len = r.items()?;
        r.lit("[")?;
        let mut whole = true;
        let items: Arc<[T]> = (0..len)
            .map(|i| {
                whole = whole && (i == 0 || r.eat(","));
                let item = if whole { T::read(r) } else { None };
                whole = item.is_some();
                item.unwrap_or_default()
            })
            .collect();
        (whole && r.eat("]")).then_some(items)
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        let items = value.and_then(Json::as_arr);
        let items = items.ok_or_else(|| format!("missing or non-array field '{key}'"))?;
        let mut error = None;
        let items: Arc<[T]> = items
            .iter()
            .map(|item| {
                T::from_tree(Some(item), key).unwrap_or_else(|e| {
                    error.get_or_insert(e);
                    T::default()
                })
            })
            .collect();
        error.map_or(Ok(items), Err)
    }
}

/// A two-element array.
impl<A: Field, B: Field> Field for (A, B) {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        out.push_str("[");
        self.0.write(out);
        out.push_str(",");
        self.1.write(out);
        out.push_str("]");
    }
    fn to_tree(&self) -> Json {
        Json::Arr(vec![self.0.to_tree(), self.1.to_tree()])
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        r.lit("[")?;
        let a = A::read(r)?;
        r.lit(",")?;
        let b = B::read(r)?;
        r.lit("]")?;
        Some((a, b))
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        match value.and_then(Json::as_arr) {
            Some([a, b]) => Ok((A::from_tree(Some(a), key)?, B::from_tree(Some(b), key)?)),
            _ => Err(format!("field '{key}' is not a pair")),
        }
    }
}

/// Spelled as the value it shares.
impl<T: Field> Field for Arc<T> {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        T::write(self, out);
    }
    fn to_tree(&self) -> Json {
        T::to_tree(self)
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        T::read(r).map(Arc::new)
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        T::from_tree(value, key).map(Arc::new)
    }
}

impl<T: Field + Default> Field<OrDefault> for T {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        <T as Field>::write(self, out);
    }
    fn to_tree(&self) -> Json {
        <T as Field>::to_tree(self)
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        <T as Field>::read(r)
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        match value {
            None => Ok(T::default()),
            Some(_) => <T as Field>::from_tree(value, key),
        }
    }
}

/// The two readers of a closed set's name, shared by the [`Field`] impls
/// [`record!`](crate::record) generates for a tag enum: `name` spells a
/// member, `all` lists them.
#[doc(hidden)]
pub mod tags {
    use crate::{Cursor, Json};

    /// The member `r`'s next string names.
    pub fn read<T: Copy>(r: &mut Cursor<'_>, all: &[T], name: fn(T) -> &'static str) -> Option<T> {
        let read = r.str()?;
        all.iter().copied().find(|&m| name(m) == read)
    }

    /// The member field `key` names.
    ///
    /// # Errors
    ///
    /// The field is not a string, or names no member.
    pub fn from_tree<T: Copy>(
        value: Option<&Json>,
        key: &str,
        all: &[T],
        name: fn(T) -> &'static str,
    ) -> Result<T, String> {
        let read = value.and_then(Json::as_str);
        let read = read.ok_or_else(|| format!("missing or non-string field '{key}'"))?;
        let member = all.iter().copied().find(|&m| name(m) == read);
        member.ok_or_else(|| format!("unknown {key} '{read}'"))
    }
}

/// Declares a record shape once: the item is the shape's ordinary type
/// definition — docs and derives pass through — and the macro adds its
/// JSON codecs beside it.
///
/// Every record gets inherent `write_json` (the stream writer),
/// `to_json` (the tree writer), `read_json` (the [`Cursor`] reader),
/// `from_json` (the tree reader) and `from_text` ([`from_text`]), plus a
/// [`Field`] impl so it nests in another record. Keys follow field order;
/// each key is one literal joined at compile time with the text around
/// it, so a writer pushes, and a reader checks, one string per field.
///
/// - **A struct** is an object of its fields. A field takes
///   `#[json(rename = "key")]` to differ from its Rust name and
///   `#[json(with = Spelling)]` to be spelled other than [`Plain`].
/// - **An enum of unit variants** is a tag: each variant is spelled as
///   the string after its `=`, or its name when it has none. It gets
///   `ALL`, `tag` and `from_tag`, and a [`Named`] spelling beside the
///   plain one.
/// - **An enum with data** names each variant's kind after its `=`, and
///   gets `KINDS`, `kind` and `ordinal`. A leading `#[json(tag = "k")]`
///   puts the kind inside the object (`{"k":"kind",…}`);
///   `#[json(tag = "k", content = "c")]` does so for unit and one-field
///   tuple variants, the field under key `c`; `#[json(external)]` wraps
///   the fields in the variant's name (`{"Variant":{…}}`).
///
/// ```
/// tacc_json::record! {
///     #[json(tag = "kind")]
///     /// A node operation.
///     #[derive(Debug, PartialEq)]
///     pub enum Op {
///         /// Take a node out of service.
///         Drain { node: u32 } = "drain",
///     }
/// }
/// let text = r#"{"kind":"drain","node":3}"#;
/// assert_eq!(Op::Drain { node: 3 }.to_json().to_string(), text);
/// assert_eq!(Op::from_text(text), Ok(Op::Drain { node: 3 }));
/// ```
#[macro_export]
macro_rules! record {
    // ---- Spelled defaults ----------------------------------------------
    (@key $field:tt) => { stringify!($field) };
    (@key $field:tt $key:literal) => { $key };
    (@with) => { $crate::Plain };
    (@with $with:ty) => { $with };

    // ---- What an enum's mode puts around a variant's fields -------------
    // `@open` leads every variant's text, `@head` follows it with the
    // variant's own name, `@sep` goes between the head and the first
    // key, `@close` ends the record.
    (@open [tag = $tag:literal]) => { concat!("{\"", $tag, "\":\"") };
    (@open [external]) => { "{\"" };
    (@head [tag = $tag:literal] $variant:ident $kind:literal) => { concat!($kind, "\"") };
    (@head [external] $variant:ident $kind:literal) => { concat!(stringify!($variant), "\":{") };
    (@sep [tag = $tag:literal]) => { "," };
    (@sep [external]) => { "" };
    (@close [tag = $tag:literal]) => { "}" };
    (@close [external]) => { "}}" };
    (@name [tag = $tag:literal] $variant:ident $kind:literal) => { $kind };
    (@name [external] $variant:ident $kind:literal) => { stringify!($variant) };
    (@tree [tag = $tag:literal] $variant:ident $kind:literal [$($field:expr),*]) => {
        $crate::obj(vec![($tag, $crate::Json::from($kind)) $(, $field)*])
    };
    (@tree [external] $variant:ident $kind:literal [$($field:expr),*]) => {
        $crate::obj(vec![(stringify!($variant), $crate::obj(vec![$($field),*]))])
    };
    // The variant's name and the object holding its fields.
    (@split [tag = $tag:literal] $value:ident) => {
        $value.req_str($tag).map(|name| (name, $value))
    };
    (@split [external] $value:ident) => {
        match $value {
            $crate::Json::Obj(fields) => match fields.as_slice() {
                [(name, body)] => Ok((name.as_str(), body)),
                _ => Err("not a single-variant object".to_owned()),
            },
            _ => Err("not a single-variant object".to_owned()),
        }
    };
    (@what [tag = $tag:literal]) => { $tag };
    (@what [external]) => { "variant" };

    // ---- One object's fields: the stream writer and the cursor reader ---
    // The first key joins the literal before it; every later key carries
    // its comma.
    (@write $out:ident [$($pre:expr),*] $sep:expr, $close:expr;) => {
        $out.push_str(concat!($($pre,)* $close))
    };
    (@write $out:ident [$($pre:expr),*] $sep:expr, $close:expr;
        [$m:tt $b:ident $k:expr; $t:ty; $s:ty] $([$rm:tt $rb:ident $rk:expr; $rt:ty; $rs:ty])*
    ) => {{
        $out.push_str(concat!($($pre,)* $sep, "\"", $k, "\":"));
        <$t as $crate::Field<$s>>::write($b, $out);
        $(
            $out.push_str(concat!(",\"", $rk, "\":"));
            <$rt as $crate::Field<$rs>>::write($rb, $out);
        )*
        $out.push_str($close);
    }};
    (@read $r:ident [$($ctor:tt)*] [$($pre:expr),*] $sep:expr, $close:expr;) => {
        if $r.eat(concat!($($pre,)* $close)) {
            return Some($($ctor)* {});
        }
    };
    (@read $r:ident [$($ctor:tt)*] [$($pre:expr),*] $sep:expr, $close:expr;
        [$m:tt $b:ident $k:expr; $t:ty; $s:ty] $([$rm:tt $rb:ident $rk:expr; $rt:ty; $rs:ty])*
    ) => {
        if $r.eat(concat!($($pre,)* $sep, "\"", $k, "\":")) {
            let $b = <$t as $crate::Field<$s>>::read($r)?;
            $(
                $r.lit(concat!(",\"", $rk, "\":"))?;
                let $rb = <$rt as $crate::Field<$rs>>::read($r)?;
            )*
            $r.lit($close)?;
            return Some($($ctor)* { $m: $b $(, $rm: $rb)* });
        }
    };

    // ---- What every record gets -----------------------------------------
    (@record $name:ident) => {
        impl $name {
            /// Reads the record from its text: the tree-free reader
            /// first, the tree reader for any other spelling.
            ///
            /// # Errors
            ///
            /// The parse error, or the first malformed field.
            pub fn from_text(text: &str) -> Result<Self, String> {
                $crate::from_text(text)
            }
        }

        impl $crate::Field for $name {
            fn write<W: $crate::TextSink + ?Sized>(&self, out: &mut W) {
                self.write_json(out);
            }
            fn to_tree(&self) -> $crate::Json {
                self.to_json()
            }
            fn read(r: &mut $crate::Cursor<'_>) -> Option<Self> {
                Self::read_json(r)
            }
            fn from_tree(value: Option<&$crate::Json>, key: &str) -> Result<Self, String> {
                Self::from_json(value.ok_or_else(|| format!("missing field '{key}'"))?)
            }
        }
    };

    // ---- A struct, its fields normalized to `[member binding key; type; spelling]`
    (@struct $name:ident; $([$m:tt $b:ident $k:expr; $t:ty; $s:ty])*) => {
        impl $name {
            /// Streams the record's text into `out`: byte for byte what
            /// `to_json().to_string()` prints, with no tree between.
            pub fn write_json<W: $crate::TextSink + ?Sized>(&self, out: &mut W) {
                let Self { $($m: $b),* } = self;
                $crate::record!(@write out ["{"] "", "}"; $([$m $b $k; $t; $s])*);
            }

            /// The record as a JSON tree.
            pub fn to_json(&self) -> $crate::Json {
                let Self { $($m: $b),* } = self;
                $crate::obj(vec![$(($k, <$t as $crate::Field<$s>>::to_tree($b))),*])
            }

            /// Reads back the text [`Self::write_json`] streams, with no
            /// tree; `None` for any other spelling.
            pub fn read_json(r: &mut $crate::Cursor<'_>) -> Option<Self> {
                $crate::record!(@read r [Self] ["{"] "", "}"; $([$m $b $k; $t; $s])*);
                None
            }

            /// Reads the record from its JSON tree.
            ///
            /// # Errors
            ///
            /// The first malformed field.
            pub fn from_json(value: &$crate::Json) -> Result<Self, String> {
                Ok(Self { $($m: <$t as $crate::Field<$s>>::from_tree(value.get($k), $k)?),* })
            }
        }
        $crate::record!(@record $name);
    };

    // ---- An enum with data, its variants normalized to `[Variant "kind"] [fields]`
    (@enum $name:ident $mode:tt;
        $([$variant:ident $kind:literal] [$([$m:tt $b:ident $k:expr; $t:ty; $s:ty])*])*
    ) => {
        impl $name {
            /// Every variant's kind, in declaration order.
            pub const KINDS: &'static [&'static str] = &[$($kind),*];

            /// The variant's kind: its stable name on the wire.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $kind,)*
                }
            }

            /// The variant's position in declaration order: the index of
            /// its kind in [`Self::KINDS`].
            pub fn ordinal(&self) -> usize {
                enum Ordinal {
                    $($variant,)*
                }
                match self {
                    $(Self::$variant { .. } => Ordinal::$variant as usize,)*
                }
            }

            /// Streams the record's text into `out`: byte for byte what
            /// `to_json().to_string()` prints, with no tree between.
            pub fn write_json<W: $crate::TextSink + ?Sized>(&self, out: &mut W) {
                match self {
                    $(Self::$variant { $($m: $b),* } => $crate::record!(@write out
                        [$crate::record!(@open $mode), $crate::record!(@head $mode $variant $kind)]
                        $crate::record!(@sep $mode), $crate::record!(@close $mode);
                        $([$m $b $k; $t; $s])*),)*
                }
            }

            /// The record as a JSON tree.
            pub fn to_json(&self) -> $crate::Json {
                match self {
                    $(Self::$variant { $($m: $b),* } => $crate::record!(@tree $mode $variant $kind
                        [$(($k, <$t as $crate::Field<$s>>::to_tree($b))),*]),)*
                }
            }

            /// Reads back the text [`Self::write_json`] streams, with no
            /// tree; `None` for any other spelling.
            pub fn read_json(r: &mut $crate::Cursor<'_>) -> Option<Self> {
                r.lit($crate::record!(@open $mode))?;
                $($crate::record!(@read r [Self::$variant]
                    [$crate::record!(@head $mode $variant $kind)]
                    $crate::record!(@sep $mode), $crate::record!(@close $mode);
                    $([$m $b $k; $t; $s])*);)*
                None
            }

            /// Reads the record from its JSON tree.
            ///
            /// # Errors
            ///
            /// An unknown variant, or its first malformed field.
            pub fn from_json(value: &$crate::Json) -> Result<Self, String> {
                let (name, body) = $crate::record!(@split $mode value)?;
                $(if name == $crate::record!(@name $mode $variant $kind) {
                    return Ok(Self::$variant {
                        $($m: <$t as $crate::Field<$s>>::from_tree(body.get($k), $k)?),*
                    });
                })*
                Err(format!("unknown {} '{name}'", $crate::record!(@what $mode)))
            }
        }
        $crate::record!(@record $name);
    };

    // ---- A closed set's two spellings -----------------------------------
    (@tags $name:ident, $spelling:ty, $spell:expr) => {
        impl $crate::Field<$spelling> for $name {
            fn write<W: $crate::TextSink + ?Sized>(&self, out: &mut W) {
                $crate::write_escaped($spell(*self), out);
            }
            fn to_tree(&self) -> $crate::Json {
                $crate::Json::from($spell(*self))
            }
            fn read(r: &mut $crate::Cursor<'_>) -> Option<Self> {
                $crate::tags::read(r, &Self::ALL, $spell)
            }
            fn from_tree(value: Option<&$crate::Json>, key: &str) -> Result<Self, String> {
                $crate::tags::from_tree(value, key, &Self::ALL, $spell)
            }
        }
    };

    // ---- Entry: unit and one-field tuple variants, adjacently tagged -----
    (
        #[json(tag = $tag:literal, content = $content:literal)]
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vattr:meta])* $variant:ident $(($ty:ty))? = $kind:literal),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $($(#[$vattr])* $variant $(($ty))?,)*
        }
        $crate::record!(@enum $name [tag = $tag];
            $([$variant $kind] [$([0 content $content; $ty; $crate::Plain])?])*);
    };

    // ---- Entry: struct-like and unit variants, tagged or external -------
    (
        #[json($($mode:tt)+)]
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vattr:meta])*
                $variant:ident $({
                    $(
                        $(#[doc = $fdoc:literal])*
                        $(#[json(rename = $key:literal)])?
                        $(#[json(with = $with:ty)])?
                        $field:ident: $ty:ty
                    ),* $(,)?
                })? = $kind:literal
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $(
                $(#[$vattr])*
                $variant $({ $($(#[doc = $fdoc])* $field: $ty,)* })?,
            )*
        }
        $crate::record!(@enum $name [$($mode)+];
            $([$variant $kind] [$($([
                $field $field $crate::record!(@key $field $($key)?);
                $ty; $crate::record!(@with $($with)?)
            ])*)?])*);
    };

    // ---- Entry: a struct --------------------------------------------------
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[doc = $fdoc:literal])*
                $(#[json(rename = $key:literal)])?
                $(#[json(with = $with:ty)])?
                $fvis:vis $field:ident: $ty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[doc = $fdoc])* $fvis $field: $ty,)*
        }
        $crate::record!(@struct $name; $([
            $field $field $crate::record!(@key $field $($key)?);
            $ty; $crate::record!(@with $($with)?)
        ])*);
    };

    // ---- Entry: a tag enum ------------------------------------------------
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vattr:meta])* $variant:ident $(= $tag:literal)?),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $($(#[$vattr])* $variant,)*
        }

        impl $name {
            /// Every member, in declaration order.
            pub const ALL: [Self; [$(stringify!($variant)),*].len()] = [$(Self::$variant),*];

            /// The member's name in a record.
            pub fn tag(self) -> &'static str {
                match self {
                    $(Self::$variant => $crate::record!(@key $variant $($tag)?),)*
                }
            }

            /// The member [`Self::tag`] spells as `tag`.
            pub fn from_tag(tag: &str) -> Option<Self> {
                Self::ALL.into_iter().find(|member| member.tag() == tag)
            }
        }
        $crate::record!(@tags $name, $crate::Plain, Self::tag);
        $crate::record!(@tags $name, $crate::Named, |member| match member {
            $(Self::$variant => stringify!($variant),)*
        });
    };
}
