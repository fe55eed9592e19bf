//! # nilm-bench
//!
//! Hosts `bench_gateway_rps`, the socket-level throughput benchmark of the
//! networked gateway (`benches/bench_gateway_rps.rs`), which writes and
//! validates `BENCH_gateway.json`:
//!
//! ```text
//! cargo bench -p nilm_bench --bench bench_gateway_rps -- --smoke
//! ```
//!
//! The paper's figures and tables are reproduced by `nilm_eval`'s `run_all`,
//! not here.
