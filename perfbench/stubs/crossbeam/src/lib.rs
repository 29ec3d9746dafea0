//! Typecheck stub: the tacc crates name `crossbeam` in their manifests and call nothing from it.
