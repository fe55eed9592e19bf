//! Runs every experiment at the chosen scale — the one-command
//! reproduction — then the serving demo (`camal_gateway demo`), so the
//! "run everything" entry point also gates the persistence / streaming /
//! fleet / network-gateway paths. The demo always runs at smoke scale: it
//! is a correctness gate (bit-identical reload, stream-vs-batch,
//! fleet-vs-serve and gateway-vs-serve equivalence, micro-batching >
//! sequential), not a figure, so its runtime stays bounded regardless of
//! the experiment scale (see REPRODUCING.md).

use nilm_eval::runner::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    println!("Running the full CamAL reproduction suite (scale: {})\n", scale.name);
    nilm_eval::emit(&nilm_eval::experiments::table2::run(0), &args, "table2_params");
    nilm_eval::emit(&nilm_eval::experiments::fig9::run_costs(), &args, "fig9a_costs");
    nilm_eval::emit(&nilm_eval::experiments::fig9::run_storage(), &args, "fig9b_storage");
    nilm_eval::emit(&nilm_eval::experiments::table3::run(&scale, 1), &args, "table3_weak");
    nilm_eval::emit(&nilm_eval::experiments::fig5::run(&scale, None), &args, "fig5_label_sweep");
    nilm_eval::emit(
        &nilm_eval::experiments::fig6::run_window_length(&scale),
        &args,
        "fig6a_window_length",
    );
    nilm_eval::emit(
        &nilm_eval::experiments::fig6::run_detection_vs_localization(&scale),
        &args,
        "fig6b_det_vs_loc",
    );
    nilm_eval::emit(
        &nilm_eval::experiments::fig6::run_ensemble_size(&scale),
        &args,
        "fig6c_n_resnets",
    );
    nilm_eval::emit(&nilm_eval::experiments::table4::run(&scale, 1), &args, "table4_ablation");
    nilm_eval::emit(
        &nilm_eval::experiments::fig7::run_training_time(&scale),
        &args,
        "fig7a_train_time",
    );
    nilm_eval::emit(
        &nilm_eval::experiments::fig7::run_epoch_scaling(&scale),
        &args,
        "fig7b_epoch_scaling",
    );
    nilm_eval::emit(
        &nilm_eval::experiments::fig7::run_throughput(&scale),
        &args,
        "fig7c_throughput",
    );
    nilm_eval::emit(&nilm_eval::experiments::fig8::run(&scale), &args, "fig8_possession");
    nilm_eval::emit(&nilm_eval::experiments::fig10::run(&scale), &args, "fig10_soft_labels");
    nilm_eval::emit(
        &nilm_eval::experiments::extensions::run_backbone(&scale),
        &args,
        "ext_backbone",
    );
    nilm_eval::emit(
        &nilm_eval::experiments::extensions::run_postprocess(&scale),
        &args,
        "ext_postprocess",
    );

    println!("\nServing demo (smoke scale): camal_gateway demo ...");
    nilm_eval::serving::demo(&Scale::smoke(), &args);

    println!("\nAll experiments complete.");
}
