#!/usr/bin/env bash
# Every external dependency earns its place (offline; no cargo needed).
# Fails when [workspace.dependencies] names an external crate no member
# manifest uses, when a member manifest names an external crate its own
# sources never mention, or when vendor-stubs/ holds a crate that is not
# a workspace dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

# External crate names declared under the tables matching regex $2 of
# manifest $1 (`graphbolt-*` are the workspace's own path crates).
deps() {
    awk -v want="^\\\\[($2)\\\\]\$" '/^\[/ { on = ($0 ~ want) }
        on && /^[A-Za-z0-9_-]+ *=/ { sub(/ *=.*/, ""); print }' "$1" |
        grep -v '^graphbolt-' || true
}

fail=0
workspace="$(deps Cargo.toml 'workspace\.dependencies')"
declared=""
for manifest in Cargo.toml crates/*/Cargo.toml xtask/Cargo.toml; do
    dir="$(dirname "$manifest")"
    for dep in $(deps "$manifest" '(dev-)?dependencies'); do
        declared="$declared $dep"
        if ! grep -rqw --include='*.rs' "${dep//-/_}" \
            "$dir/src" "$dir/tests" "$dir/examples" "$dir/benches" 2>/dev/null; then
            echo "$manifest: declares \`$dep\`, which its sources never mention"
            fail=1
        fi
    done
done
for dep in $workspace; do
    if ! grep -qw "$dep" <<<"$declared"; then
        echo "Cargo.toml: [workspace.dependencies] names \`$dep\`, which no member uses"
        fail=1
    fi
done
for stub in vendor-stubs/*/; do
    name="$(basename "$stub")"
    if ! grep -qw "$name" <<<"$workspace"; then
        echo "vendor-stubs/$name: not a workspace dependency"
        fail=1
    fi
done
[ "$fail" = 0 ] && echo "dependencies: every one is declared, used and stubbed exactly once"
exit "$fail"
