#!/usr/bin/env bash
# Builds the benchmark and runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# from the root of a checkout. Campaign and ledger dirs fsync on every
# commit, so the benchmark runs with its work dir on a tmpfs: a private
# mount namespace gets a tmpfs mounted over .bench_work/tmpfs inside the
# checkout, and the mount vanishes when the run ends. The binary refuses to
# run when the dir is not on tmpfs.
set -euo pipefail

cargo build --quiet --release --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
work=.bench_work/tmpfs
mkdir -p "$work"

userns=()
if [ "$(id -u)" != 0 ]; then
    userns=(--user --map-root-user)
fi
exec unshare "${userns[@]}" --mount --propagation private \
    sh -c 'mount -t tmpfs -o size=2g,mode=0700 perfbench-tmpfs "$1" && shift && exec "$@"' \
    sh "$work" "$bin" --work-dir "$work" "$@"
