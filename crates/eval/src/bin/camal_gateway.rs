//! `camal_gateway` — the one serving binary: train the demo zoo, serve it
//! over HTTP with cross-request micro-batching, hammer it with a
//! socket-level load generator, run one in-process fleet pass, or run the
//! self-contained demo and chaos gates.
//!
//! ```text
//! camal_gateway train   [--smoke|--quick|--full] [--zoo DIR] [--out DIR]
//! camal_gateway serve   [--zoo DIR] [--addr HOST:PORT] [--addr-file PATH]
//!                       [--queue N] [--max-coalesce N] [--batch N]
//!                       [--deadline-ms N] [--trace]
//! camal_gateway loadgen --addr HOST:PORT [--connections N] [--requests N]
//!                       [--houses N] [--request-windows N]
//!                       [--detail full|summary] [--pipeline N]
//!                       [--no-keepalive] [--max-errors N] [--max-p99-ms F]
//!                       [--latency-json PATH] [--out DIR]
//! camal_gateway fleet   [--smoke|--quick|--full] [--houses N] [--days N]
//!                       [--threads T] [--max-loaded N] [--zoo DIR] [--out DIR]
//! camal_gateway demo    [--smoke|--quick|--full] [--houses N] [--days N]
//!                       [--threads T] [--request-windows N] [--requests N]
//!                       [--connections N] [--bench-windows N] [--zoo DIR]
//!                       [--out DIR]
//! camal_gateway chaos   [--smoke|--quick|--full] [--requests N]
//!                       [--connections N] [--rate-pct N] [--deadline-ms N]
//!                       [--zoo DIR] [--out DIR]
//! ```
//!
//! `train` fits the three-key demo zoo (`refit:kettle`, `refit:microwave`,
//! `ukdale:dishwasher`) on the mixed ResNet + TransApp grid and writes
//! `<dataset>_<appliance>.ckpt` files into the zoo (default
//! `<out>/zoo`). `serve` scans the zoo into a
//! [`camal::registry::ModelRegistry`], warms every checkpoint, binds
//! (port 0 = ephemeral; `--addr-file` writes the bound address for
//! scripts), and serves `GET /healthz`, `GET /readyz`, `GET /metrics`
//! (`?format=prometheus` for text exposition), `GET /v1/models`,
//! `GET /debug/trace?id=<trace>` and `POST /v1/localize` until
//! `POST /admin/shutdown`. `--trace` turns request tracing on from the
//! start (equivalent to `NILM_TRACE=1`); slow-request logging comes from
//! the `NILM_LOG=slow[:ms]` environment variable. `loadgen` fires
//! localize requests for `refit:kettle` over real sockets and emits a
//! validated requests/s + latency report; `--max-errors` / `--max-p99-ms`
//! turn the run into a hard CI gate. `fleet` runs one in-process
//! `camal::fleet` pass of every zoo model over a simulated multi-dataset
//! fleet (`--houses` per dataset template, `--max-loaded` bounding the
//! resident models) and writes `camal_gateway_fleet.json`; a single
//! checkpoint is simply a one-file zoo. `demo` trains once and runs every
//! serving gate in one process (see [`nilm_eval::serving::demo`]).
//! `chaos` trains the kettle model, arms the `batcher.panic` and
//! `persist.load.corrupt` fault points at `--rate-pct` (default 10%) and
//! proves a ≥200-request load completes with zero hangs and zero 500s —
//! only 200s and 503s-with-`Retry-After` — and that the gateway heals to
//! byte-identical responses after the faults are disarmed. `demo` and
//! `chaos` also take `serve`'s gateway flags.
//!
//! The logic lives in [`nilm_eval::serving`]; the server itself is
//! [`nilm_serve`].

use camal::registry::ModelRegistry;
use nilm_eval::runner::Scale;
use nilm_eval::serving::{self, arg_parse, arg_value};
use nilm_serve::Gateway;

/// Scans the zoo directory into `registry`, failing when it holds no
/// checkpoint.
fn scan_zoo(registry: &mut ModelRegistry, args: &[String]) -> usize {
    let zoo = serving::zoo_dir(args);
    let found = registry
        .register_dir(&zoo)
        .unwrap_or_else(|e| panic!("cannot scan zoo {}: {e}", zoo.display()));
    assert!(
        !found.is_empty(),
        "no <dataset>_<appliance>.ckpt checkpoints under {}; run train first",
        zoo.display()
    );
    found.len()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("demo");
    let scale = Scale::from_args(&args);
    match mode {
        "train" => {
            serving::train_zoo(&scale, &serving::zoo_dir(&args), &serving::zoo_keys());
        }
        "serve" => {
            if args.iter().any(|a| a == "--trace") {
                nilm_obs::trace::set_enabled(true);
            }
            let mut registry = ModelRegistry::unbounded();
            let models = scan_zoo(&mut registry, &args);
            let server = Gateway::start(registry, serving::gateway_config(&args))
                .unwrap_or_else(|e| panic!("cannot start gateway: {e}"));
            let addr = server.addr();
            println!("gateway listening on {addr} ({models} model(s) warmed)");
            println!("shut down with: curl -X POST http://{addr}/admin/shutdown");
            if let Some(path) = arg_value(&args, "--addr-file") {
                std::fs::write(&path, addr.to_string())
                    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            }
            server.wait();
            println!("gateway shut down cleanly");
        }
        "loadgen" => {
            let addr = arg_value(&args, "--addr")
                .unwrap_or_else(|| panic!("loadgen needs --addr HOST:PORT"));
            let doc = serving::loadgen_run(&addr, &args);
            serving::write_summary(&doc, &args, "camal_gateway_loadgen");
        }
        "fleet" => {
            let mut registry = ModelRegistry::new(arg_parse(&args, "--max-loaded").unwrap_or(0));
            scan_zoo(&mut registry, &args);
            let (_, _, doc) = serving::fleet_serve(&mut registry, &scale, &args);
            serving::write_summary(&doc, &args, "camal_gateway_fleet");
        }
        "demo" => serving::demo(&scale, &args),
        "chaos" => serving::chaos(&scale, &args),
        other => {
            eprintln!("unknown mode {other:?}; use train, serve, loadgen, fleet, demo or chaos");
            std::process::exit(2);
        }
    }
}
