// The fixture library's root: the files beside `src/` are its modules.
pub mod bad;
pub mod clean;
pub mod same_crate;
pub mod suppressed;
