//! Typecheck stub of `serde_derive`: both derives accept `#[serde(..)]`
//! attributes and expand to nothing; the stub `serde` traits are implemented
//! for every type already.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
