#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds `spine` from source in this
# checkout and runs `spine run "$@"`; the driver appends
# `--workload W --seed N --seconds S --trace 0|1`.
#
# A checkout holds no `.cargo/` (it is gitignored) and this host has no
# crates.io, so when no cargo config is present the offline stand-ins
# under vendor-stubs/ are activated first — the same step the repo's own
# builds use. A checkout that already has a `.cargo/config.toml` (a
# developer's, pointing at a real registry) is left alone.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -f vendor-stubs/activate.sh ]; then
    echo "spine: $root is not a checkout of the repository (no Cargo.toml or vendor-stubs/)" >&2
    exit 2
fi
if [ ! -f .cargo/config.toml ]; then
    bash vendor-stubs/activate.sh >&2
fi
cargo build --release --quiet --manifest-path benches/spine/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benches/spine/target}/release/spine" run "$@"
