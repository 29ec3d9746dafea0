//! Typecheck stub of `rand` 0.8: only the `RngCore` trait, which
//! `tacc_sim::DetRng` implements with its own xoshiro256++ arithmetic. No
//! generator, distribution or seeding code from `rand` exists here, so none
//! can run on a measured path.

/// Error type of `RngCore::try_fill_bytes` (never constructed).
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("rand stub error")
    }
}

impl std::error::Error for Error {}

/// The core random-number-generator trait, as in `rand_core` 0.6.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}
