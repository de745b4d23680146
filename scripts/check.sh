#!/usr/bin/env sh
# Local CI gate: formatting, lints, tests, and the jitlint invariant
# analyzer. Everything must pass before a change lands.
set -eu
cd "$(dirname "$0")/.."

echo '==> cargo fmt --check'
cargo fmt --all -- --check

echo '==> cargo clippy --workspace --all-targets -- -D warnings'
cargo clippy --workspace --all-targets -- -D warnings

echo '==> cargo test --workspace'
cargo test --workspace --quiet

echo '==> bit-identity on the profile that is benchmarked (release codegen vectorises what dev does not)'
cargo test --release -p simgpu --quiet
cargo test --release --test cross_crate --quiet golden_loss_fingerprint

echo '==> public-surface and real-clock ratchets (no crate may exceed its pub-item count in SURFACE.txt, nor the workspace its count of allowed wall-clock sleeps)'
sh scripts/surface.sh --check
# Same idea for real clocks: a new wall-clock wait on a fault path needs a diff to this number, not just a comment.
[ "$(grep -r 'jitlint::allow(virtual_time)' crates --include='*.rs' | grep -vc '^crates/lint/')" -le 3 ] \
    || { echo 'check.sh: more than 3 jitlint::allow(virtual_time) sites outside crates/lint' >&2; exit 1; }

echo '==> jitlint'
cargo run -p lint --quiet

echo '==> jitlint --format json (machine-readable findings)'
cargo run -p lint --quiet -- --format json > target/jitlint.json
echo "    wrote target/jitlint.json"

echo '==> lock-witness test run (instrumented sync primitives)'
rm -f target/lock_witness.txt
JIT_LOCK_WITNESS="$PWD/target/lock_witness.txt" \
    cargo test --workspace --features simcore/lock_witness --quiet

echo '==> jitlint --witness (runtime edges vs static lock graph)'
cargo run -p lint --quiet -- --witness target/lock_witness.txt

echo '==> incident benchmark smoke (stand-alone package builds against the crates; bit-identity gates)'
bash benchmark/run.sh --smoke > target/incident_bench.smoke.txt \
    || { grep -v METRIC target/incident_bench.smoke.txt | tail -n 20 >&2
         echo 'check.sh: benchmark/run.sh --smoke failed (see target/incident_bench.smoke.txt)' >&2; exit 1; }

echo 'check.sh: all gates passed'
