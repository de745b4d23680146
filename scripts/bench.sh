#!/usr/bin/env sh
# Benchmark driver: regenerates both shipped benchmark reports at the
# repository root.
#
#   BENCH_ckpt.json  — monolithic-vs-sharded checkpoint write/read/
#                      assemble throughput at a 64 MiB synthetic
#                      TrainState, plus the delta-mode hit rate.
#   BENCH_coll.json  — slot-vs-ring all-reduce wall time across world
#                      and payload sizes, hier-vs-flat simulated time on
#                      the scale ladder to 2048 ranks, the ring
#                      chunk-size sweep, bucketed-overlap minibatch
#                      time, and pipelined recovery streaming vs the
#                      store round-trip.
#   BENCH_recovery.json — in-network gradient-replication tap overhead
#                      at world {8, 64, 256}, the recovery-scheme
#                      head-to-head (periodic-optimal / user JIT /
#                      transparent JIT / in-network), and the
#                      zero-store-read ledger recovery demo.
#   BENCH_store.json — multi-job coordinator persistence: write-behind
#                      vs blocking at equal durability over both
#                      storage backends, the jobs×ranks throughput
#                      ladder under churn, per-job gate isolation,
#                      backend round-trip bit identity, the restore
#                      matrix (serial vs parallel fetch across backends
#                      × shard counts × delta depths, incl. a placed
#                      fleet rebalanced mid-matrix), and the delta
#                      writer's meta-cache list-traffic savings.
#
# Optional args pass through to the checkpoint bench:
#
#   scripts/bench.sh [payload_mib] [ckpt_out_path]
set -eu
cd "$(dirname "$0")/.."

PAYLOAD_MIB="${1:-64}"
OUT="${2:-BENCH_ckpt.json}"
COLL_OUT="${COLL_OUT:-BENCH_coll.json}"
RECOVERY_OUT="${RECOVERY_OUT:-BENCH_recovery.json}"
STORE_OUT="${STORE_OUT:-BENCH_store.json}"

echo "==> cargo run --release -p bench --bin ckpt_bench -- ${PAYLOAD_MIB} ${OUT}"
cargo run --release --quiet -p bench --bin ckpt_bench -- "${PAYLOAD_MIB}" "${OUT}"

echo "==> cargo run --release -p bench --bin coll_bench -- 6 64 ${COLL_OUT} 2048"
cargo run --release --quiet -p bench --bin coll_bench -- 6 64 "${COLL_OUT}" 2048

echo "==> cargo run --release -p bench --bin recovery_bench -- ${RECOVERY_OUT}"
cargo run --release --quiet -p bench --bin recovery_bench -- "${RECOVERY_OUT}"

echo "==> cargo run --release -p bench --bin store_bench -- 4 6 ${STORE_OUT}"
cargo run --release --quiet -p bench --bin store_bench -- 4 6 "${STORE_OUT}"

echo "bench.sh: wrote ${OUT}, ${COLL_OUT}, ${RECOVERY_OUT}, and ${STORE_OUT}"
