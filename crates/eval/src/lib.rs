//! # nilm-eval
//!
//! The experiment harness: regenerates every table and figure of the CamAL
//! paper's evaluation section on the synthetic dataset templates. Each
//! experiment lives in [`experiments`]; the one binary that runs them is
//! `run_all`, with one target per output table
//! (`cargo run -p nilm_eval --release --bin run_all -- [--smoke|--quick|--full] [TARGET...]`).
//!
//! | Experiment | `run_all` targets |
//! |---|---|
//! | Fig. 1 / Fig. 5 label sweep | `fig5_label_sweep` |
//! | Table II complexity | `table2_params` |
//! | Table III weak comparison | `table3_weak` |
//! | Fig. 6(a) window length | `fig6a_window_length` |
//! | Fig. 6(b) detection vs localization | `fig6b_det_vs_loc` |
//! | Fig. 6(c) ensemble size | `fig6c_n_resnets` |
//! | Table IV ablation | `table4_ablation` |
//! | Fig. 7 scalability | `fig7a_train_time`, `fig7b_epoch_scaling`, `fig7c_throughput` |
//! | Fig. 8 possession only | `fig8_possession` |
//! | Fig. 9 costs | `fig9a_costs`, `fig9b_storage` |
//! | Fig. 10 soft labels | `fig10_soft_labels` |
//! | Extensions (backbone, post-processing) | `ext_backbone`, `ext_postprocess` |
//!
//! Beyond the figures, [`serving`] backs `camal_gateway`, the one serving
//! binary: it trains the three-appliance demo zoo, serves it over the
//! networked HTTP gateway ([`nilm_serve`]), drives it with the socket-level
//! loadgen, runs in-process fleet passes, and gates all of it against one
//! `camal::stream::serve` oracle (`demo`, `chaos`). `run_all` with no target
//! runs every experiment and then the serving demo. REPRODUCING.md at the
//! repo root tabulates all targets with runtimes and output schemas.
//!
//! ## Example
//!
//! Every experiment is parameterised by a [`runner::Scale`] preset, which
//! also derives the matching CamAL configuration:
//!
//! ```
//! use nilm_eval::runner::Scale;
//!
//! let scale = Scale::smoke();
//! let cfg = scale.camal_config();
//! assert_eq!(cfg.n_ensemble, scale.n_ensemble);
//! assert_eq!(cfg.kernels, scale.kernels);
//! ```

pub mod complexity;
pub mod cost;
pub mod experiments;
pub mod output;
pub mod runner;
pub mod serving;

use output::Table;
use std::path::{Path, PathBuf};

/// Results directory (override with `--out <dir>`).
pub fn results_dir(args: &[String]) -> PathBuf {
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Prints a table and saves it as `<dir>/<name>.csv`. A failed write is
/// returned, so a reproduction whose tables never reached disk fails.
pub fn emit(table: &Table, dir: &Path, name: &str) -> std::io::Result<()> {
    table.print();
    let path = table.save_csv(dir, name)?;
    println!("saved {}", path.display());
    Ok(())
}
