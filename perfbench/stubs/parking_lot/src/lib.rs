//! Typecheck stub: the tacc crates name `parking_lot` in their manifests and call nothing from it.
