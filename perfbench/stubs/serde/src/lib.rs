//! Typecheck stub of `serde`: marker traits every type satisfies, and (with
//! the `derive` feature) derives that expand to nothing. The tacc crates
//! derive these on their schema and report types; the service and replay
//! paths serialise through the hand-rolled `tacc_core::wire` instead.

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub trait DeserializeOwned: Sized {}
    impl<T> DeserializeOwned for T {}
}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
