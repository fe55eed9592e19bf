#!/usr/bin/env bash
# CI gate for the CamAL reproduction workspace.
#
# Mirrors the tier-1 verify (`cargo build --release && cargo test -q`) and
# adds formatting, full-target compilation, the release-only timing claims
# and warning-free documentation. Run from the repository root:
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # skip the release build (debug build + tests only)
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo check --workspace --all-targets (bins, examples, tests)"
cargo check --workspace --all-targets

if [ "$MODE" != "quick" ]; then
    step "cargo build --release"
    cargo build --release
fi

step "cargo test -q (unit, integration, property, doc tests)"
cargo test -q

step "cargo test -q --workspace (vendored dependency stand-ins included)"
cargo test -q --workspace

if [ "$MODE" != "quick" ]; then
    # The GEMM/naive conv equivalence property tests sweep enough shapes to
    # be slow in debug; run them (and the rest of nilm_tensor) optimized,
    # with a multi-thread worker pool so the parallel fan-outs are exercised.
    step "cargo test -p nilm_tensor --release (RAYON_NUM_THREADS=4)"
    RAYON_NUM_THREADS=4 cargo test -q -p nilm_tensor --release

    # Kernel-oracle sweep: the dispatch-layer property suite once per forced
    # backend, plus once with SIMD disabled to pin the portable microkernel.
    # Backend selection has one precedence: a per-layer override
    # (`Conv1d::set_backend`), then the forced backend (`NILM_BACKEND` or
    # `dispatch::set_forced_backend`), then a fixed shape rule (naive for a
    # shallow or tiny lowered GEMM, simd otherwise). Together with the
    # unforced run above this oracle-checks every path that selector can
    # pick in production, exactly. The SIMD-off leg runs what a host without
    # exact SIMD kernels runs, and what the removed `gemm` backend selected:
    # the lowered convolution plus the portable microkernel, forward,
    # backward and plain GEMM. `fused_inference` pins the fused conv + BN +
    # ReLU block (the inference epilogue and the train-mode forward and
    # backward) to the unfused chain on each of those paths.
    for BK in naive simd; do
        step "kernel oracle sweep: NILM_BACKEND=$BK"
        NILM_BACKEND=$BK cargo test -q -p nilm_tensor --release \
            --test kernel_oracle --test conv_gemm_equivalence --test fused_inference
    done
    step "kernel oracle sweep: NILM_BACKEND=simd NILM_SIMD=off (portable microkernel)"
    NILM_BACKEND=simd NILM_SIMD=off cargo test -q -p nilm_tensor --release \
        --test kernel_oracle --test conv_gemm_equivalence --test fused_inference

    # The reproduction entry point: the three targets that train nothing must
    # each write their CSV, and an unknown target must fail the run.
    step "run_all --smoke table2_params fig9a_costs fig9b_storage (+ unknown target rejected)"
    RA_DIR=target/ci-run-all
    rm -rf "$RA_DIR"
    ./target/release/run_all --smoke --out "$RA_DIR" table2_params fig9a_costs fig9b_storage
    for T in table2_params fig9a_costs fig9b_storage; do
        [ -s "$RA_DIR/$T.csv" ] || { echo "run_all did not write $RA_DIR/$T.csv"; exit 1; }
    done
    if ./target/release/run_all --smoke --out "$RA_DIR" no_such_target; then
        echo "run_all accepted an unknown target"; exit 1
    fi

    # The backends' speed claim: at `Scale::bench` geometry the lowered
    # convolution runs the paper-width ResNet's train-mode backward at
    # least 3x, and CamAL inference more than 2x, faster than naive.
    step "cargo test -p nilm_eval --release --test backend_speed (lowered >= 3x naive backward, > 2x inference)"
    cargo test -q -p nilm_eval --release --test backend_speed

    # Checkpoint compatibility: the committed v2 fixture must keep loading
    # (and serving bit-identically) through the v3 reader.
    step "cargo test -p camal --test checkpoint_compat --release (v2 fixture compat)"
    cargo test -q -p camal --test checkpoint_compat --release

    # Thread-count sweep: the worker pool's own contract (thread reuse, no
    # worker at width 1, panics, nested and concurrent fan-outs), then the
    # shard-invariance, coalescing, ensemble-selection, deterministic-fault
    # and gateway byte-identity claims must hold on one core (shards run
    # serially), on two truly parallel ones, and oversubscribed at four.
    # The gateway runs one pass loop per pool slot, and the pass loops
    # decode localize requests, so the same sweep runs its chaos,
    # concurrency and tracing suites with one decoding loop (passes never
    # overlap) and with two and four (they do, and trace contexts are set
    # on several pass threads at once).
    for T in 1 2 4; do
        step "thread sweep RAYON_NUM_THREADS=$T: rayon worker pool"
        RAYON_NUM_THREADS=$T cargo test -q -p rayon --release
        step "thread sweep RAYON_NUM_THREADS=$T: fleet_serving, chaos_core, ensemble, gateway_concurrency, chaos, obs_trace"
        RAYON_NUM_THREADS=$T cargo test -q -p camal --release --test fleet_serving --test chaos_core
        RAYON_NUM_THREADS=$T cargo test -q -p camal --release --lib ensemble::
        RAYON_NUM_THREADS=$T cargo test -q -p nilm_serve --release --test gateway_concurrency --test chaos --test obs_trace
    done
    # Gateway bit-identity + HTTP abuse tests under the optimized build —
    # release is the production code path the byte-equality claim is about.
    step "cargo test -p nilm_serve --release (gateway concurrency + HTTP edge cases)"
    cargo test -q -p nilm_serve --release

    # The smoke zoo checkpoint pin (see the gateway smoke below, which runs it
    # at the default width) on one core and oversubscribed at four:
    # Algorithm 1 runs one candidate per worker on serial kernels, or one
    # worker whose kernels fan out, and neither split may change a bit.
    # The SIMD-off leg trains the way a host without exact SIMD kernels
    # does: every simd-backend conv (the unforced trunk) on the portable
    # microkernel.
    for LEG in RAYON_NUM_THREADS=1 RAYON_NUM_THREADS=4 NILM_SIMD=off; do
        step "smoke zoo digest gate $LEG"
        ZOO_T="target/ci-zoo-${LEG//=/-}"
        rm -rf "$ZOO_T" && mkdir -p "$ZOO_T"
        env "$LEG" ./target/release/camal_gateway train --smoke --zoo "$ZOO_T/zoo" --out "$ZOO_T"
        diff <(cd "$ZOO_T/zoo" && sha256sum *.ckpt) crates/eval/tests/fixtures/zoo_smoke.sha256 \
            || { echo "$LEG smoke zoo differs from zoo_smoke.sha256"; exit 1; }
    done

    step "camal_gateway smoke: ephemeral-port serve -> curl round-trip -> graceful shutdown"
    GW_DIR=target/ci-gateway
    rm -rf "$GW_DIR" && mkdir -p "$GW_DIR"
    ./target/release/camal_gateway train --smoke --zoo "$GW_DIR/zoo" --out "$GW_DIR"
    # Checkpoint pin: the smoke zoo must be byte-identical to the committed
    # digests (training is deterministic at any thread count and with SIMD
    # on or off). A change that alters the checkpoints on purpose updates
    # the digest file and says why in CHANGES.md.
    diff <(cd "$GW_DIR/zoo" && sha256sum *.ckpt) crates/eval/tests/fixtures/zoo_smoke.sha256 \
        || { echo "smoke zoo checkpoints differ from crates/eval/tests/fixtures/zoo_smoke.sha256"; exit 1; }
    echo "zoo checkpoints match the pinned digests"
    # One in-process fleet pass over the zoo with at most one model
    # resident, so the registry's lazy load + LRU eviction path runs too.
    ./target/release/camal_gateway fleet --smoke --zoo "$GW_DIR/zoo" --max-loaded 1 --out "$GW_DIR"
    # Serve on an ephemeral port; the whole server is bounded by `timeout`
    # so a wedged gateway cannot hang CI. --addr-file publishes the port.
    # --queue 1024: the reactor load stage below holds 128 x 4 = 512
    # requests in flight; the zero-errors gate needs the queue to admit
    # the whole burst (the default 256 would correctly shed ~half as 503).
    # --trace: request tracing on from the start, so the observability
    # gates below can pull a socket-to-kernel trace out of /debug/trace.
    timeout 120 ./target/release/camal_gateway serve \
        --zoo "$GW_DIR/zoo" --addr 127.0.0.1:0 --addr-file "$GW_DIR/addr.txt" \
        --queue 1024 --trace &
    GW_PID=$!
    for _ in $(seq 1 150); do [ -s "$GW_DIR/addr.txt" ] && break; sleep 0.2; done
    [ -s "$GW_DIR/addr.txt" ] || { echo "gateway never published its address"; kill "$GW_PID" 2>/dev/null; exit 1; }
    GW_ADDR=$(cat "$GW_DIR/addr.txt")
    echo "gateway at $GW_ADDR"
    curl -sfS "http://$GW_ADDR/healthz" -o "$GW_DIR/healthz.json"
    grep -q '"status":"ok"' "$GW_DIR/healthz.json"
    # `train` writes the three-key demo zoo; the gateway must serve all of it.
    curl -sfS "http://$GW_ADDR/v1/models" -o "$GW_DIR/models.json"
    python3 - "$GW_DIR" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1] + "/models.json"))
keys = {m["key"] for m in doc["models"]}
zoo = {"refit:kettle", "refit:microwave", "ukdale:dishwasher"}
assert zoo <= keys, f"gateway serves {sorted(keys)}, missing {sorted(zoo - keys)}"
print("models ok:", sorted(keys))
PY
    # One real localize round-trip: two windows of synthetic kettle data
    # (request.json, reused by the trace gate below), then one request
    # naming two zoo appliances, which must get a result for each.
    python3 - "$GW_DIR" <<'PY'
import json, sys
values = [150 + (1900 if (t // 9) % 4 == 0 else 0) for t in range(256)]
body = {"appliances": ["refit:kettle"], "detail": "summary",
        "households": [{"id": "ci-house", "step_s": 60, "values": values}]}
open(sys.argv[1] + "/request.json", "w").write(json.dumps(body))
body["appliances"] = ["refit:kettle", "ukdale:dishwasher"]
open(sys.argv[1] + "/request2.json", "w").write(json.dumps(body))
PY
    for REQ in request request2; do
        curl -sfS -X POST "http://$GW_ADDR/v1/localize" \
            -H 'Content-Type: application/json' --data @"$GW_DIR/$REQ.json" \
            -o "$GW_DIR/$REQ.out.json"
    done
    # Each response must be parseable JSON with the expected schema tag and
    # a result for every requested appliance.
    python3 - "$GW_DIR" <<'PY'
import json, sys
for req in ("request", "request2"):
    asked = json.load(open(f"{sys.argv[1]}/{req}.json"))["appliances"]
    doc = json.load(open(f"{sys.argv[1]}/{req}.out.json"))
    assert doc["schema"] == "camal_localize/v1", doc
    hh = doc["households"][0]
    assert hh["id"] == "ci-house" and sorted(hh["results"]) == sorted(asked), doc
    print("localize round-trip ok:", json.dumps(hh["results"]))
PY
    # Loadgen against the live server (report JSON re-validated in-process),
    # with the full HDR latency histogram dumped and validated.
    ./target/release/camal_gateway loadgen --addr "$GW_ADDR" \
        --connections 2 --requests 40 --detail summary \
        --latency-json "$GW_DIR/latency_hist.json" --out "$GW_DIR"
    python3 - "$GW_DIR" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1] + "/latency_hist.json"))
assert doc["count"] == 40, doc
assert sum(b["count"] for b in doc["buckets"]) == doc["count"], doc
assert doc["min_ms"] <= doc["p50_ms"] <= doc["p99_ms"] <= doc["max_ms"] * 1.01, doc
print("latency histogram ok:", doc["count"], "samples in", len(doc["buckets"]), "buckets")
PY
    # Reactor load stage: 128 keep-alive connections with pipelined bursts
    # against the epoll event loop. Hard gates: zero non-200 responses and
    # a bounded p99 — an unfair or leaky reactor fails here, not in prod.
    ./target/release/camal_gateway loadgen --addr "$GW_ADDR" \
        --connections 128 --requests 1024 --pipeline 4 --detail summary \
        --max-errors 0 --max-p99-ms 2000 --out "$GW_DIR"
    curl -sfS "http://$GW_ADDR/metrics" -o "$GW_DIR/metrics.json"
    python3 -c "import json,sys; json.load(open('$GW_DIR/metrics.json'))"

    # Observability gates against the live server.
    # 1. Readiness: a warmed gateway answers /readyz 200 with ready=true
    #    (the 503 paths — shutdown drain, dead batcher, saturated queue —
    #    are pinned by the nilm_serve obs_trace integration test).
    curl -sfS "http://$GW_ADDR/readyz" -o "$GW_DIR/readyz.json"
    python3 - "$GW_DIR" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1] + "/readyz.json"))
assert doc["ready"] is True and doc["reason"] is None, doc
assert doc["queue_capacity"] > 0, doc
print("readyz ok:", json.dumps(doc))
PY
    # 2. Trace completeness: a localize request sent with an explicit
    #    X-Camal-Trace-Id must come back out of /debug/trace as one
    #    connected tree covering every pipeline stage down to the kernels.
    TRACE_ID=00000000c0ffee11
    curl -sfS -X POST "http://$GW_ADDR/v1/localize" \
        -H 'Content-Type: application/json' -H "X-Camal-Trace-Id: $TRACE_ID" \
        --data @"$GW_DIR/request.json" -o /dev/null
    # The root span is recorded once the response's last byte is on the
    # wire; give the reactor a beat before reading the trace back.
    sleep 0.3
    curl -sfS "http://$GW_ADDR/debug/trace?id=$TRACE_ID" -o "$GW_DIR/trace.json"
    python3 - "$GW_DIR" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1] + "/trace.json"))
spans = doc["spans"]
names = {s["name"] for s in spans}
required = {"request", "parse", "queue_wait", "decode", "coalesce",
            "preprocess", "infer", "stitch", "write", "kernel"}
missing = required - names
assert not missing, f"trace is missing stages: {sorted(missing)}"
ids = {s["span"] for s in spans}
dangling = [s["name"] for s in spans if s["parent"] != 0 and s["parent"] not in ids]
assert not dangling, f"dangling parent links from: {dangling}"
roots = [s for s in spans if s["parent"] == 0]
assert len(roots) == 1 and roots[0]["name"] == "request", roots
print(f"debug/trace ok: {len(spans)} spans, all stages present, tree connected")
PY
    # 3. Prometheus exposition: every sample belongs to a declared family
    #    (HELP + TYPE), and no series is emitted twice.
    curl -sfS "http://$GW_ADDR/metrics?format=prometheus" -o "$GW_DIR/metrics.prom"
    python3 - "$GW_DIR" <<'PY'
import sys
helps, types, series = set(), set(), set()
for line in open(sys.argv[1] + "/metrics.prom"):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# HELP "):
        helps.add(line.split()[2])
    elif line.startswith("# TYPE "):
        types.add(line.split()[2])
    elif line.startswith("#"):
        continue
    else:
        key = line.rsplit(" ", 1)[0]
        assert key not in series, f"duplicate series: {key}"
        series.add(key)
        name = key.split("{")[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stem = name[: -len(suffix)] if name.endswith(suffix) else None
            if stem and stem in types:
                base = stem
                break
        assert base in types, f"sample {name} has no TYPE line"
        assert base in helps, f"sample {name} has no HELP line"
assert types == helps, f"HELP/TYPE mismatch: {types ^ helps}"
assert any(s.startswith("nilm_request_duration_seconds_bucket") for s in series)
assert any(s.startswith("nilm_stage_duration_seconds_bucket") for s in series)
print(f"prometheus ok: {len(types)} families, {len(series)} series, no duplicates")
PY

    curl -sfS -X POST "http://$GW_ADDR/admin/shutdown" >/dev/null
    wait "$GW_PID"
    echo "gateway shut down cleanly"

    # The demo trains the mixed ResNet + TransApp zoo
    # (`Scale::mixed_camal_config`), so it doubles as the
    # heterogeneous-backbone gate: checkpoint v3 save/load, registry
    # manifest metadata and fleet/gateway serving over mixed members.
    step "camal_gateway demo --smoke (zoo discovery + byte-stable reload, reload bit-identity, 30 s stream == slice_windows/localize_set, fleet == stream::serve for every key, healthz + localize == oracle, concurrent > sequential, mixed steps rejected, JSON validated)"
    cargo run --release -p nilm_eval --bin camal_gateway -- demo --smoke --out target/ci-gateway-demo

    # Chaos smoke: batcher panics + checkpoint corruption at 10% while a
    # ≥200-request load runs. Gates: every request completes (no hangs),
    # statuses are only 200 or 503-with-Retry-After (a single 500 fails),
    # and after disarming the gateway heals to byte-identical responses.
    step "camal_gateway chaos --smoke (fault injection: zero hangs, zero 500s, heals byte-identical)"
    cargo run --release -p nilm_eval --bin camal_gateway -- chaos --smoke --out target/ci-gateway-chaos
fi

# `camal`, `nilm_data`, `nilm_fault`, `nilm_json`, `nilm_models`,
# `nilm_obs` and `nilm_serve` opt into #![warn(missing_docs)]; with rustdoc
# warnings denied this step is the docs gate: any undocumented public item
# in those crates (the backbone zoo — detector/resnet/inception/transapp —
# included) fails CI.
step "docs gate: cargo doc -p camal -p nilm_data -p nilm_fault -p nilm_json -p nilm_models -p nilm_obs -p nilm_serve (missing_docs denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p camal -p nilm_data -p nilm_fault -p nilm_json -p nilm_models -p nilm_obs -p nilm_serve

step "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "OK — all checks passed"
