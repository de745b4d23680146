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
cargo test --release -p simcore --quiet
cargo test --release -p proxy --quiet
cargo test --release -p collectives --quiet
cargo test --release -p jitckpt --test codec_golden --quiet
# The state codec: device and host encode to the per-field codec's bytes,
# and a stream cut anywhere decodes as the whole; the checkpoint bytes a
# live job's JIT and periodic writes put in the store; the restore plane.
cargo test --release -p dltrain --test state_codec --quiet
cargo test --release -p jitckpt --test jit_write_golden --test restore_props --quiet
cargo test --release -p baselines --test periodic_write_golden --quiet
# The recovery stream's frame loop: the sender and receiver clocks of one
# state transfer, and the §4.3 frames a migrated victim refuses whole when
# one is missing or bad.
cargo test --release -p jitckpt --test stream_clock_golden --quiet
cargo test --release -p jitckpt --lib --quiet a_missing_or_bad_frame_leaves_the_migrated_device_untouched
cargo test --release --test cross_crate --quiet golden_loss_fingerprint
cargo test --release --test cross_crate --quiet collective_schedules_and_results_are_pinned
cargo test --release --test cross_crate --quiet restart_runners_are_pinned
# A restart job runs its hang action only on a proven hang, and is killed
# on the world's record of its ranks: an ack never outlives its incident,
# and a job is killed once nobody is left who could ack, a rank that erred
# outside its step included, and never while a stuck rank's hang action may
# still ack. A cut recovery stream ends its receiver's wait on the cut, not
# on its patience.
cargo test --release --test cross_crate --quiet an_ack_never_outlives_its_incident
cargo test --release --test cross_crate --quiet a_cell_nobody_can_checkpoint_is_killed_at_once
cargo test --release -p jitckpt --lib --quiet a_rank_that_errs_outside_its_step_still_gets_the_job_killed
cargo test --release -p jitckpt --lib --quiet a_rank_still_in_its_hang_action_holds_the_kill_back
cargo test --release --test cross_crate --quiet a_cut_stream_ends_on_its_cut_not_on_patience
# One job under each policy of the one entry point (`run_job`), against its
# fault-free twin: the same loss bits, and every outcome field as the
# policy has it.
cargo test --release --test cross_crate --quiet one_fault_under_every_policy
# The periodic baseline writes once per cell, from its dp-0 replica, at DP = 2
# and 2D-2P-2T, with every clock where it was; a received stream leaves no
# frame in the world's byte inbox.
cargo test --release --test cross_crate --quiet periodic_checkpoints_are_written_once_per_cell
cargo test --release -p jitckpt --lib --quiet a_received_stream_leaves_no_frame_in_the_world
# A delta checkpoint keeps only the shards it uploaded alive in the store.
cargo test --release --test delta_heap --quiet
# A direct job keeps no replay state: between steps it holds its training
# state, during them at most two gradient buckets beside it, and it caches
# no collective result. (The proxy's empty log before its first minibatch
# is `replay_log_clears_at_minibatch_start`, in the `-p proxy` line above.)
cargo test --release --test direct_heap --quiet
cargo test --release -p dltrain --lib --quiet cached_collective_results_do_not_grow_with_the_step_count
# A transparent round that copies state from a replica (classes (c) and (d))
# holds at most one persistent buffer beside a healthy step, and the
# minibatch after a (d) round holds no result of the one before it.
cargo test --release --test transparent_heap --quiet
# Retention GC never deletes the newest iteration complete for every cell.
cargo test --release -p coordinator --test coordinator --quiet gc_keeps_the_newest_iteration_complete_for_every_cell
cargo test --release --test cross_crate --quiet transparent_reports_are_pinned
# The worker image a replacement node restores, from a live trainer: every
# logged-op kind tiny_dp(2) issues, in its wire order.
cargo test --release --test cross_crate --quiet live_worker_image_is_pinned
# Every row of decide's table, live, against the fault-free twin's loss
# bits. The replica-sync test (validate, then one copy per byte) runs in
# the `-p proxy` line above.
cargo test --release --test cross_crate --quiet every_decide_row_recovers_bit_for_bit
# A round that opens after other cells' ranks finished training: they stay
# members until every rank has, so the round still gathers its quorum.
cargo test --release --test cross_crate --quiet a_round_after_some_ranks_finished_training_recovers_bit_for_bit
# A recovery generation lives for one round: five replica-sync rounds in
# one job, pinned; no rebuilt communicator keeps a rendezvous or replica-sync
# slot once its round closed; each DP-only round bootstraps each distinct
# communicator once.
cargo test --release --test cross_crate --quiet five_replica_sync_rounds_are_pinned
cargo test --release --test cross_crate --quiet a_closed_round_leaves_no_recovery_slot_behind
cargo test --release -p jitckpt --lib --quiet every_dp_only_round_bootstraps_each_distinct_communicator_once
# The replay cache's consumers: each recovers by replaying collectives (and
# pipeline receives) from slots carried across a communicator rebuild, so
# they guard the minibatch commit floor on the profile the benchmark runs.
cargo test --release --test cross_crate --quiet -- --exact \
    multiple_sequential_failures_all_recover_transparently \
    fsdp_hybrid_shard_job_recovers_transparently \
    pipeline_job_survives_mid_stage_failure

echo '==> public-surface, real-clock and unsafe ratchets (no crate may exceed its pub-item count in SURFACE.txt, nor its count of pub items no other file names, nor the workspace its count of allowed wall-clock sleeps, nor crates/*/src its 1 allow(unsafe_code))'
sh scripts/surface.sh --check
# Same idea for real clocks: a new wall-clock wait on a fault path needs a diff to this number, not just a comment.
[ "$(grep -r 'jitlint::allow(virtual_time)' crates --include='*.rs' | grep -vc '^crates/lint/')" -le 1 ] \
    || { echo 'check.sh: more than 1 jitlint::allow(virtual_time) site outside crates/lint' >&2; exit 1; }
# And for unsafe: the one item that allows it is the CRC-64 folding kernel
# (simcore::codec::clmul); another needs this number edited.
[ "$(grep -r 'allow(unsafe_code)' crates/*/src --include='*.rs' | wc -l)" -le 1 ] \
    || { echo 'check.sh: more than 1 allow(unsafe_code) in crates/*/src:' >&2
         grep -rn 'allow(unsafe_code)' crates/*/src --include='*.rs' >&2; exit 1; }

echo '==> jitlint'
cargo run -p lint --quiet

echo '==> jitlint --format json (machine-readable findings)'
cargo run -p lint --quiet -- --format json > target/jitlint.json
echo "    wrote target/jitlint.json"

echo '==> lock-witness test run (instrumented sync primitives record lock-class edges)'
rm -f target/lock_witness.txt
JIT_LOCK_WITNESS="$PWD/target/lock_witness.txt" \
    cargo test --workspace --features simcore/lock_witness --quiet

echo '==> jitlint --witness (no cycle among the lock classes the tests ran)'
cargo run -p lint --quiet -- --witness target/lock_witness.txt

echo '==> incident benchmark smoke (stand-alone package builds against the crates; bit-identity gates)'
# The benchmark's lock file must already hold every dependency of the path
# crates: benchmark/run.sh builds without --locked and would rewrite it.
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml > /dev/null
bash benchmark/run.sh --smoke > target/incident_bench.smoke.txt \
    || { grep -v METRIC target/incident_bench.smoke.txt | tail -n 20 >&2
         echo 'check.sh: benchmark/run.sh --smoke failed (see target/incident_bench.smoke.txt)' >&2; exit 1; }

echo 'check.sh: all gates passed'
