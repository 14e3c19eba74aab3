//! Clean fixture registry.

pub const MODEL_BUILDS: &str = "model.builds";
