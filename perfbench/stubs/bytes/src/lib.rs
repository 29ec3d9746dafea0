//! Typecheck stub: the tacc crates name `bytes` in their manifests and call nothing from it.
