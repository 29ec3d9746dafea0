//! Typecheck stub of `serde_json`: every call returns `Err`, which
//! `tacc_workload::serde_json_functional()` detects. The benchmark never
//! reaches one: schemas are built with `TaskSchema::builder` and travel as
//! `tacc_core::wire::Json`.

use serde::{Deserialize, Serialize};

#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json is a typecheck-only stub in this build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn to_string_pretty<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn from_str<'a, T: Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error)
}
