//! Empty crate, kept only for the frozen `benchmark/` package.
//!
//! This crate held a deterministic thread pool for the CPU kernels. No
//! workload ran faster on it, so the pool and its callers were removed and
//! every CPU kernel is serial. `benchmark/Cargo.lock` still lists
//! `rsqp-par` as a dependency of `rsqp-sparse`, `rsqp-linsys` and
//! `rsqp-solver`, and `cargo --locked` rejects a lockfile that no longer
//! matches the manifests, so the crate and those three edges stay until a
//! change to the benchmark drops them from its lockfile.
