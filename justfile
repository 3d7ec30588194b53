# Task runner for the trace-processor workspace.
#
# `just build` / `just test` mirror the tier-1 verification command;
# `just loc` prints the net Rust line count the ROADMAP tracks.

# List available recipes.
default:
    @just --list

# Release build of every workspace member (tier-1, part 1).
build:
    cargo build --release

# Full test suite (tier-1, part 2).
test:
    cargo test -q

# Tier-1 verification in one shot.
verify: build test

# Net Rust LOC as the ROADMAP counts it: every `*.rs` under crates, src,
# tests and examples.
loc:
    find crates src tests examples -name '*.rs' | xargs wc -l | tail -1

# Format, lint and rustdoc exactly as CI runs them.
lint:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Paper tables and figures (sequential, full-size workloads).
bench:
    cargo bench -p tp-bench

# Deterministic oracle probe — diff two runs to prove a refactor is
# cycle-identical.
oracle:
    cargo run --release --example oracle_verify

# Perf-trajectory baseline: both workload suites (synthetic + rv) x all
# five CI models, writes BENCH_speed.json (tp-bench/speed/v2; see README
# "Benchmarking"). The rv cells are the file's "rv section"; the sampled
# section is the long-suite fast-forward throughput report.
baseline SIZE="full":
    cargo run --release -p tp-bench --bin baseline -- --size {{SIZE}} --suite all --ffwd-bench

# Fast-forward engine benchmark: interpreter vs superblock on both suites,
# asserting byte-identical TPCK checkpoints per cell; writes
# BENCH_ffwd.json (tp-bench/ffwd/v1, the `sampled` section standalone).
# CI runs the small variant with `--gate 1.0` — the superblock engine must
# never be slower than the interpreter.
ffwd-bench SIZE="long":
    cargo run --release -p tp-bench --bin speed -- --ffwd-bench --size {{SIZE}} --suite all --out BENCH_ffwd.json

# Quick IPC/misprediction table for the RISC-V suite (base model).
rv SIZE="full":
    cargo run --release -p tp-bench --bin speed -- --size {{SIZE}} --suite rv

# Five-model baseline over the RISC-V suite only, with the CI-model
# dominance guard enforced; writes BENCH_speed_rv.json (scratch artifact —
# the checked-in rv numbers live in BENCH_speed.json via `just baseline`).
rv-baseline SIZE="full":
    cargo run --release -p tp-bench --bin baseline -- --size {{SIZE}} --suite rv --guard --out BENCH_speed_rv.json

# CI-model dominance guard on the tiny suite: fails if any CI model loses
# >1% IPC to base on any cell.
guard:
    cargo run --release -p tp-bench --bin baseline -- --size tiny --guard --out BENCH_speed_tiny.json

# Static CFG + post-dominator analysis test battery: the tp-cfg unit
# tests, the dom/pdom fixtures, the CGCI-vs-static differential oracle
# over every workload x model, the 1000-seed fuzzer ground-truth
# exactness test, and the workload corpus lint fixture.
cfg:
    cargo test --release -p tp-cfg
    cargo test --release -p tp-fuzz --test cfg_truth
    cargo test --release --test cfg_oracle --test cfg_lint

# Static control-independence opportunity report (the static ceiling on
# what CGCI/FGCI can exploit). Without WORKLOAD: one summary line per
# workload of both suites; with one: its full branch table. Add --json
# for the tp-bench/cfgstats/v1 document.
cfgstats WORKLOAD="":
    cargo run --release -p tp-bench --bin cfgstats -- {{WORKLOAD}}

# Misprediction outcome-attribution table for one workload under one model
# (base|RET|MLB-RET|FG|FG+MLB-RET); without MODEL, prints every model.
attr WORKLOAD="compress" MODEL="MLB-RET":
    cargo run --release -p tp-bench --bin cistats -- {{WORKLOAD}} {{MODEL}}

# Re-bless the golden-stats corpus after an intentional behaviour change.
bless:
    TP_BLESS=1 cargo test --release --test golden_stats

# Bounded differential fuzz pass, exactly as CI runs it: SEEDS generated
# programs through all five CI models on both frontends against the
# functional oracle (exit non-zero on any divergence).
fuzz-ci SEEDS="500":
    cargo run --release -p tp-bench --bin fuzz -- --count {{SEEDS}}

# Bounded fuzz pass with the window invariants armed after every stage
# (TP_PARANOID: rename, ARB, wakeup-index and register-root checks),
# exactly as CI runs it; CI runs it on both machines (paper|small).
fuzz-paranoid SEEDS="400" MACHINE="paper":
    TP_PARANOID=1 cargo run --release -p tp-bench --bin fuzz -- --count {{SEEDS}} --machine {{MACHINE}} --quiet

# Bounded fuzz pass with the static re-convergence oracle armed: every
# CGCI detection must be classifiable by tp-cfg or the seed diverges.
fuzz-cfg SEEDS="500":
    cargo run --release -p tp-bench --bin fuzz -- --count {{SEEDS}} --cfg-oracle

# Unbounded fuzz loop (Ctrl-C to stop). Every seed is logged on
# divergence, so a failure replays exactly:
#   cargo run --release -p tp-bench --bin fuzz -- --seed N --count 1 --shrink
# MACHINE is paper|small (small saturates the 4-PE window — different
# recovery paths). START offsets the seed range so successive sessions
# explore fresh programs.
fuzz MACHINE="paper" START="0":
    cargo run --release -p tp-bench --bin fuzz -- --count 0 --seed {{START}} --machine {{MACHINE}}

# Sampled-simulation smoke (CI): create/inspect/verify a checkpoint
# (artifact: ckpt_smoke.tpckpt), assert sampled IPC within 5% of full
# detailed runs on the tiny suite, and demonstrate the >= 3x wall-clock
# speedup of sampled execution on the long gcc/go/compress/strhash
# variants, in aggregate and on strhash (a 240K-word data image) alone.
sample-smoke:
    cargo run --release -p tp-bench --bin ckpt -- smoke --out ckpt_smoke.tpckpt

# Sampled baseline over the long suite (the workloads only tractable
# sampled): writes BENCH_sampled.json (tp-bench/sampled/v3).
sample-baseline:
    cargo run --release -p tp-bench --bin baseline -- --sample --size long --out BENCH_sampled.json

# Create a checkpoint: fast-forward WORKLOAD at SIZE for FFWD instructions
# with functional warming, then write the versioned binary checkpoint.
ckpt WORKLOAD="gcc" SIZE="full" FFWD="20000" OUT="ckpt.tpckpt":
    cargo run --release -p tp-bench --bin ckpt -- create --workload {{WORKLOAD}} --size {{SIZE}} --ffwd {{FFWD}} --out {{OUT}}

# Event capture: run WORKLOAD at SIZE under MODEL with the tp-events bus
# attached and write Chrome trace-event JSON (load OUT in
# https://ui.perfetto.dev or chrome://tracing) plus the run's metrics
# (MetricsSink counters and distributions).
# The tracetap bin also resumes TPCK checkpoints (--ckpt PATH) and
# replays fuzzer reproducers (--fuzz-seed S) — see its --help usage.
tracetap WORKLOAD="go" SIZE="tiny" MODEL="MLB-RET" BUDGET="50000" OUT="tracetap.trace.json":
    cargo run --release -p tp-bench --bin tracetap -- --workload {{WORKLOAD}} --size {{SIZE}} --model {{MODEL}} --budget {{BUDGET}} --out {{OUT}} --metrics tracetap.metrics.json

# Disabled-bus overhead guard, exactly as CI runs it: the event bus must
# stay free when no sink is attached (tiny suite, bare vs NullSink,
# attached run <= 1% slower). Also prints the metrics-attached and
# profiler-enabled figures for the record (reported, never gated — those
# configurations pay for observation by design).
events-guard:
    cargo run --release -p tp-bench --bin speed -- --events-guard 1.0

# Metrics/profiling report: every workload of SIZE under all five models
# with the full-interest MetricsSink (reconv distances joined against
# tp-cfg's static ipdoms) and the host stage profiler attached. Add
# `--json PATH` / `--md PATH` for the tp-bench/metrics/v1 document or
# the markdown report, `--sample` for cold/steady/ffwd phase series.
simprof SIZE="tiny" SUITE="synth":
    cargo run --release -p tp-bench --bin simprof -- --size {{SIZE}} --suite {{SUITE}}

# Perf-trend gate, exactly as CI runs it: regenerate a smoke speed grid
# and diff it against the checked-in BENCH_speed.json. Deterministic
# figures (IPC, percentiles) regress hard; host throughput only warns —
# so a different machine never trips the gate, a behaviour change does.
perf-trend BASELINE="BENCH_speed.json":
    cargo run --release -p tp-bench --bin baseline -- --size full --suite all --out BENCH_speed_new.json
    cargo run --release -p tp-bench --bin simprof -- --diff {{BASELINE}} BENCH_speed_new.json --gate --md perf-trend.md
