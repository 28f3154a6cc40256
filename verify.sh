#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): after the burst ladder's own stage,
# the build and the full test suite must pass before a change lands, followed
# by hygiene gates (rustfmt, clippy across every target) and an observability
# smoke test that runs a chaos workload end-to-end and round-trips each
# emitted artifact through `cloudburst check-json`. No stage needs a crate
# registry: the root manifest patches every third-party crate to a stand-in
# in the tree.
#
# Usage: ./verify.sh [--offline]
set -euo pipefail
cd "$(dirname "$0")"

CARGO_FLAGS=()
if [[ "${1:-}" == "--offline" ]]; then
    export CARGO_NET_OFFLINE=1
    CARGO_FLAGS+=(--offline)
fi

echo "== ladder: its own tests, then oracle-checked burst sets on the real runtime (FT channel, TCP)"
# The ladder is a workspace of its own over path dependencies and the
# vendored stand-ins. The run exits 0 only when every burst matched its
# serial oracle with no failed operation.
cargo test -q --offline --manifest-path ladder/Cargo.toml --workspace
cargo run --release --offline --quiet --manifest-path ladder/Cargo.toml -- \
    --workload pagerank-ft-5050 --seconds 8 >/dev/null
# The TCP control plane end to end — reactor head, windowed masters, 60 000
# completions per burst or the oracle check fails.
cargo run --release --offline --quiet --manifest-path ladder/Cargo.toml -- \
    --workload grant-storm-tcp --seconds 8 >/dev/null

echo "== hygiene: \`unsafe\` only where it is accounted for"
# core::json's byte scanner, cluster::readiness's libc calls (poll(2) and
# the site CPU confinement's sched_{get,set}affinity(2)) and the k-means
# assignment kernel (apps/src/kmeans_kernel.rs: the calls into its two
# `target_feature` functions behind the CPU checks, and the AVX-512F and
# AVX2 intrinsics its lane types wrap, whose values exist only after those
# checks) and the counting global allocators of tests/alloc_per_job.rs and
# tests/robj_placement.rs (`GlobalAlloc` impls that forward every call to
# `System` unchanged); any other occurrence (in code or comment) fails the
# run.
if grep -rn --include='*.rs' -w unsafe crates src tests examples \
    | grep -v -e '^crates/core/src/json.rs:' -e '^crates/cluster/src/readiness.rs:' \
        -e '^crates/apps/src/kmeans_kernel.rs:' -e '^tests/alloc_per_job.rs:' \
        -e '^tests/robj_placement.rs:'; then
    echo "unsafe outside core/src/json.rs, cluster/src/readiness.rs, apps/src/kmeans_kernel.rs," \
        "tests/alloc_per_job.rs and tests/robj_placement.rs"
    exit 1
fi

echo "== hygiene: one ledger — a fact is counted where its event is folded, nowhere else"
# The run report's counters are `PoolTally::apply` / `SlaveSample::apply` over
# the events the pool and the slaves state through their one `note` call
# (core/src/telemetry.rs, shared with `derive_report`). A direct increment of
# a fault counter anywhere else, or the hand-kept slave accumulator and the
# pool's unread failure map coming back, fails the run.
if grep -rnE 'faults\.[a-z_]+ \+= |abandoned_jobs\.push' crates src \
    | grep -v '^crates/core/src/telemetry.rs:'; then
    echo "a fault counter is incremented outside the fold in core/src/telemetry.rs"
    exit 1
fi
if grep -rn 'SlaveStats\|failure_counts' crates src tests; then
    echo "SlaveStats / failure_counts are back: tally through SlaveSample::apply and PoolTally"
    exit 1
fi
# The live scrape is a render of the same ledger: the head publishes its
# pool's `PoolTally` and each slave its `SlaveSample` to the live ledger of
# their `Metrics` handle, whose registry holds it, and one render (the "live
# ledger" section of core/src/metrics.rs) turns them into the pool's and the
# slaves' ledger families. The pool naming a live instrument, or one of those
# families named anywhere else in the library crates above their test modules
# (a second fold counting them), fails the run. The live view (`--watch`,
# `/debug/*`, the health sampler, the cost meter) reads the same ledger typed
# (`Registry::ledger`), not its scrape: in the binary only `check-metrics`,
# which validates a scrape from outside the program, spells the families, and
# the re-summing of a flattened scrape by family name must not come back.
if grep -nwE 'Metrics|Counter|Gauge' crates/core/src/pool.rs; then
    echo "core/src/pool.rs names a live instrument: the scrape renders the pool's PoolTally"
    exit 1
fi
LEDGER_FAMILIES='cloudburst_pool_[a-z_]+|cloudburst_slave_(jobs|remote_bytes|retries|fetch_busy_seconds|process_busy_seconds)_total'
STRAY=$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r f; do
    awk -v render="$([[ $f == crates/core/src/metrics.rs ]] && echo 1)" '
        /^#\[cfg\(test\)\]/ { exit }
        /^\/\/ The live ledger$/ { inside = render }
        /^\/\/ Exposition parsing/ { inside = 0 }
        !inside { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -E "$LEDGER_FAMILIES" || true)
if [[ -n "$STRAY" ]]; then
    echo "$STRAY"
    echo "a ledger family is named outside the live ledger's one render in core/src/metrics.rs"
    exit 1
fi
STRAY=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^\/\/ check-metrics$/ { inside = 1; next }
    /^\/\/ [a-z]/ { inside = 0 }
    !inside { print FILENAME ":" FNR ": " $0 }' src/bin/cloudburst.rs | grep -E "$LEDGER_FAMILIES" || true)
if [[ -n "$STRAY" ]]; then
    echo "$STRAY"
    echo "the binary names a ledger family outside check-metrics: read Registry::ledger"
    exit 1
fi
if grep -rnwE 'summarize|MetricSums|SiteSums|register_collector' crates src \
    || grep -rnE 'struct Sample\b' crates/core/src src \
    || awk '/^impl Registry \{/ { inside = 1 } /^\}/ { inside = 0 }
        inside && /fn snapshot/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' crates/core/src/metrics.rs; then
    echo "the live view re-sums a flattened scrape again: read Registry::ledger / Registry::total"
    exit 1
fi
# The fold costs nothing only inlined, where the kind is a constant and its
# arm all that is left; `#[inline]` alone was declined (3 % of grant-storm-tcp).
if command -v nm >/dev/null && nm -C ladder/target/release/ladder \
    | grep -E 'PoolTally::apply|SlaveSample::apply|SlaveCtx::note'; then
    echo "the ledger's fold is out of line in the ladder's build: keep it #[inline(always)]"
    exit 1
fi

echo "== hygiene: one record per fetch"
# What a chunk fetch moved and how long it took is recorded once, in the
# slave's ledger (`SlaveSample::apply` over `ChunkFetched`): the cost meter,
# the WAN detector and the sampler's byte count read it typed. The store
# decorator, the link observer, their series or the unread prefetch gauge
# coming back fails the run.
STRAY=$(grep -rnE 'MeteredStore|set_observer|TransferObserver|cloudburst_(store|net)_|cloudburst_pipeline_prefetched' \
    crates src tests examples || true)
if [[ -n "$STRAY" ]]; then
    echo "$STRAY"
    echo "a second record of a fetch is back: fold it in SlaveSample::apply, read Registry::ledger"
    exit 1
fi

echo "== hygiene: two instruments"
# Every count is a fold of events: a slave's hand-offs, settles and dropped
# jobs are its own events, folded by SlaveSample::apply. The registry's only
# instruments are the fetch and process latency histograms; the reactor's
# connection counts and wake-ups are HeadReport fields. The grant layer's
# instruments, counters, gauges, time counters or size histograms coming
# back — or one of the series they rendered — fails the run.
STRAY=$(grep -rnE 'MasterMetrics|fn time_counter|fn size_histogram|struct Gauge|struct Counter|cloudburst_master_(grant_rtt_seconds|window_jobs|starved_seconds_total)|cloudburst_slave_(batch|settle)_jobs\b|cloudburst_head_(conns_opened|conns_reclaimed|wakeups)_total' \
    crates src tests examples || true)
if [[ -n "$STRAY" ]]; then
    echo "$STRAY"
    echo "an instrument beside the ledger is back: state the fact as an event and fold it"
    exit 1
fi

echo "== hygiene: one scaffold, one fetch"
# A burst is written once (`runtime::run_on` over `Transport`; `run_hybrid` and
# `run_hybrid_tcp` only call it) and a chunk is retrieved one way
# (`fetch_range_pooled`). The scoped-thread reassembly and its wrappers coming
# back under any of their names, a `thread::scope` in the fetch path, or a
# second hand-written copy of the scaffold — seen as a second call of what it
# alone calls, above the test modules of crates/cluster/src — fails the run.
if grep -rnwE 'fetch_range|fetch_range_with_retry|fetch_range_observed|fetch_chunk|fetch_chunk_with_retry|fetch_chunk_observed|read_with_retry' \
    crates src tests examples; then
    echo "a deleted fetch entry point is back: fetch through fetch_range_pooled / fetch_chunk_pooled"
    exit 1
fi
if grep -n 'thread::scope' crates/storage/src/fetch.rs; then
    echo "storage/src/fetch.rs spawns threads per fetch again: range reads run on the FetcherPool"
    exit 1
fi
for call in 'HeadOptions::of(' 'merge_site_outcome(' 'run_slave('; do
    CALLS=$(for f in crates/cluster/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
    done | grep -F "$call" || true)
    if [[ $(grep -c . <<<"$CALLS") -gt 1 ]]; then
        echo "$CALLS"
        echo "\`$call..)\` is called more than once: a second run scaffold beside runtime::run_on"
        exit 1
    fi
done

echo "== hygiene: a run pays for what it uses"
# A run learns which sites host data from its files (`DataIndex::host_sites`,
# one look per file), not from a count per chunk, and spawns fetcher threads
# only for chunks that split into ranges: `StoreRouter::pool` is the one place
# a router spawns them, and the runtime has them spawned in `prepare`, on the
# thread that starts the run, only when its largest chunk splits (DESIGN
# §3.4.1). `chunks_per_site(` above the test modules of crates/cluster/src, or
# `FetcherPool::new` anywhere in crates/cluster/src but that one place, fails
# the run.
STRAY=$(for f in crates/cluster/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -F 'chunks_per_site(' || true)
if [[ -n "$STRAY" ]]; then
    echo "$STRAY"
    echo "a run counts chunks per site again: ask DataIndex::host_sites which sites host data"
    exit 1
fi
SPAWNS=$(grep -rnF 'FetcherPool::new' crates/cluster/src || true)
if [[ $(grep -c . <<<"$SPAWNS") -ne 1 ]] || ! grep -q '^crates/cluster/src/router.rs:' <<<"$SPAWNS"; then
    echo "$SPAWNS"
    echo "fetchers are spawned beside StoreRouter::pool: spawn them once, for split chunks only"
    exit 1
fi

echo "== hygiene: one slave"
# A slave's protocol is written once, as `SlaveCore` (core/src/slave.rs): pure
# logic with no clock, channel, thread or lock, carried out by one driver loop
# (`runtime::run_slave`). The job source, its done list and the serial and
# pipelined loops coming back under any of their names, a second
# `fn run_slave`, or the core reaching for a clock, a thread, a channel or a
# lock fails the run.
if grep -rnwE 'JobSource|DoneList|flush_done|run_slave_serial|run_slave_pipelined|prefetch_loop' \
    crates src tests; then
    echo "a deleted slave loop or its job source is back: drive SlaveCore from runtime::run_slave"
    exit 1
fi
if [[ $(grep -rnw 'fn run_slave' crates src | wc -l) -ne 1 ]]; then
    grep -rnw 'fn run_slave' crates src
    echo "there is not exactly one slave loop"
    exit 1
fi
if grep -nE 'Instant|std::thread|crossbeam|Mutex|Atomic' crates/core/src/slave.rs; then
    echo "core/src/slave.rs reaches for a clock, a thread, a channel or a lock: it is sans-IO"
    exit 1
fi
# A hand-off is sized by the quantum alone, bounded by the one constant that
# bounds a master's window (`master::MAX_BDP_JOBS`). The old job-count cap
# coming back under its name, the slave defining a count of its own, or its
# ask clamped by anything else fails the run.
if grep -rnw 'MAX_BATCH' crates src tests; then
    echo "MAX_BATCH is back: a hand-off is bounded by master::MAX_BDP_JOBS alone"
    exit 1
fi
if grep -nE 'const [A-Z_]+: *(usize|u16|u32|u64)' crates/core/src/slave.rs \
    || [[ $(grep -c 'clamp(1, MAX_BDP_JOBS)' crates/core/src/slave.rs) -ne 1 ]]; then
    echo "a second hand-off bound: SlaveCore::ask clamps a quantum's jobs by MAX_BDP_JOBS alone"
    exit 1
fi

echo "== hygiene: one master loop"
# A site's master is written once: `net::serve_site`, a non-blocking loop over
# `MasterPool` that sizes its own grant requests and reaches the head over
# either link — the socket or the in-process head's mailbox — whose answers
# come back into the master's own mailbox. The blocking channel master coming
# back under its name, its policy-sized request message, a reply channel for
# the head's grant (what a blocking master waits on), or a second loop — seen
# as more than one master pool or more than one place that serves a parked
# slave, above the test modules of crates/cluster/src — fails the run.
if grep -rnwE 'fn run_master|RequestJobs' crates src tests examples; then
    echo "the blocking channel master is back: serve every site through net::serve_site"
    exit 1
fi
if grep -rnE '(Sender|Receiver)<(JobBatch|BatchReply)>|bounded::<(JobBatch|BatchReply)>' \
    crates/cluster/src; then
    echo "a reply channel for the head's grant is back: the head answers into the master's mailbox"
    exit 1
fi
for call in 'MasterPool::new(' '.serve_parked('; do
    CALLS=$(for f in crates/cluster/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
    done | grep -F "$call" || true)
    if [[ $(grep -c . <<<"$CALLS") -ne 1 ]]; then
        echo "$CALLS"
        echo "\`$call..)\` is not called exactly once: there is not exactly one master loop"
        exit 1
    fi
done

echo "== hygiene: one way into the head"
# Every message reaches the head as a wire frame, through `HeadCore::on_frame`
# (beside it the core hears only connect, tick, disconnect and finish), and a
# failure is an `AckBatch` entry with `ok: false`. A second entry point on the
# core (`fn request`, `fn settle`), the deleted `Failed` frame, or a reply to
# a `HeadMsg` that may be absent — a fire-and-forget report that skips the
# master — coming back fails the run.
STRAY=$( (awk '/^impl HeadCore \{/ { inside = 1 } /^\}/ { inside = 0 }
        inside && /fn (request|settle)\(/ { print FILENAME ":" FNR ": " $0 }' \
        crates/cluster/src/head_core.rs
    awk '/^pub enum (MasterToHead|HeadMsg) \{/ { inside = 1 } /^\}/ { inside = 0 }
        inside && !/^ *\/\// && /Failed|Option</ { print FILENAME ":" FNR ": " $0 }' \
        crates/cluster/src/wire.rs crates/cluster/src/protocol.rs
    grep -rn 'MasterToHead::Failed' crates src tests examples ladder/src) || true)
if [[ -n "$STRAY" ]]; then
    echo "$STRAY"
    echo "a second way into the head is back: send HeadCore frames, failures as ok: false"
    exit 1
fi

echo "== hygiene: the DES runs the real protocol"
# The simulator is one more driver of the runtime's sans-IO cores: one
# `HeadCore`, a `MasterPool` per site and a `SlaveCore` per slave, and its
# report is `assemble_report` over the slaves' folded events — the function
# the runtimes and `derive_report` end in. A direct call of the head's pool
# methods, a crash budget of its own or a report assembled by hand coming
# back to crates/sim fails the run.
if grep -rnE 'request_for_at|complete_at|reap_expired|\.evacuate\(|\btaken\b|SiteStats \{|Breakdown \{' \
    crates/sim/src; then
    echo "crates/sim copies the head, the slave or the report: drive HeadCore and SlaveCore, report through assemble_report"
    exit 1
fi
for core in HeadCore SlaveCore assemble_report; do
    if ! grep -q "$core" crates/sim/src/multi.rs; then
        echo "crates/sim/src/multi.rs no longer uses $core: the DES must run the real protocol"
        exit 1
    fi
done

echo "== hygiene: one link model"
# Every modelled transfer — a cross-site read, an S3 GET, the reduction-object
# push, a simulated store or WAN leg — is a reservation on netsim's clock-free
# `Pipe` (crates/netsim/src/pipe.rs): on the real clock through `Throttle`, on
# the DES's virtual clock directly. A second reservation rule (des's bank of
# servers, S3's connection semaphore), a hand-written charge, the deleted
# storage-access maps and closed forms, or S3 sleeping outside netsim's clock
# fails the run.
if grep -rnE '\bServers\b|ConnectionLimit|fn service_time|fn sleep_secs|storage_access|with_per_connection|request_response' \
    crates src tests examples; then
    echo "a second link model is back: charge transfers through cloudburst_netsim::Pipe"
    exit 1
fi
if [[ -e crates/des/src/resource.rs ]]; then
    echo "crates/des/src/resource.rs is back: the DES reserves netsim's Pipe"
    exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { exit } { print FNR ": " $0 }' crates/storage/src/s3sim.rs \
    | grep 'thread::sleep'; then
    echo "crates/storage/src/s3sim.rs sleeps outside netsim's clock: reserve its pipes and sleep_until"
    exit 1
fi

echo "== hygiene: one processing path"
# A slave hands every group of fetched units to `Reduction::reduce_units`
# (`runtime::reduce_chunk`) — on the isolated and the re-reduce path through
# `Reduction::reduce_open`, whose default does the same — and keeps an open
# job's fetched chunk, not its decoded units.
# A call of `decode` or `reduce_group` above the test modules of
# crates/cluster/src, or a `Vec<R::Item>` field on `Worker`, fails the run.
CALLS=$(for f in crates/cluster/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -E '\.(decode|reduce_group)\(' || true)
if [[ -n "$CALLS" ]]; then
    echo "$CALLS"
    echo "the slave decodes or reduces beside Reduction::reduce_units: one processing path"
    exit 1
fi
if awk '/^struct Worker</,/^}/' crates/cluster/src/runtime.rs | grep -n 'Vec<R::Item>'; then
    echo "Worker holds decoded units again: keep the open jobs' chunks, reduce through reduce_units"
    exit 1
fi

echo "== hygiene: one isolation path — an open job is accepted or rolled back"
# An isolated job is reduced open (`Reduction::reduce_open`) and ends in one
# `accept` or one `rollback`; a journaling application (PageRank, Gridding)
# writes straight into its accumulator under an undo journal. `fn commit` or
# `fn discard` back in `Reduction`, or a walk over a batch's chunks back in
# crates/apps (a `fn commit`/`fn discard`, `for_each_dst`, `for_each_cell`),
# fails the run.
STRAY=$( (awk '/^pub trait Reduction/ { inside = 1 } /^\}/ { inside = 0 }
        inside && /fn (commit|discard)\(/ { print FILENAME ":" FNR ": " $0 }' \
        crates/core/src/reduction.rs
    grep -rnE 'fn (commit|discard)\(|for_each_dst|for_each_cell' crates/apps) || true)
if [[ -n "$STRAY" ]]; then
    echo "$STRAY"
    echo "the scratch-and-commit lifecycle is back: reduce open, then accept or roll back"
    exit 1
fi

echo "== hygiene: a large reduction object is made resident"
# PageRank's rank vector and Gridding's grid are written at random by every
# job: their storage comes from `core::resident_zeros`, every page backed
# when `make_robj` returns (DESIGN §3.4.2). `vec![0.0; n]` / `vec![0; n]`
# back in either file above its test module — a lazily zeroed object whose
# faults land on each slave's first job — fails the run.
STRAY=$(for f in crates/apps/src/pagerank.rs crates/apps/src/gridding.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -E 'vec!\[0(\.0)?; ' || true)
if [[ -n "$STRAY" ]]; then
    echo "$STRAY"
    echo "RankMass / Grid2D are lazily zeroed again: allocate them with resident_zeros"
    exit 1
fi

echo "== tier-1: cargo build --release"
cargo build --release "${CARGO_FLAGS[@]}"

echo "== tier-1: cargo test -q"
cargo test -q "${CARGO_FLAGS[@]}"

echo "== master window: virtual-clock proptests at 256 cases"
# Conservation, 1..=want jobs per hand-off with wants drawn from 1..=1024, a
# parked slave served as soon as one job lands, the outstanding bound, no
# starvation once warm, the slow-job degeneration to the blocking loop's
# request count, the size of every sized request, the hand-back at any close
# point (a failure prints the scenario to replay) — and, pinned, the request
# sequence at one job per hand-off.
PROPTEST_CASES=256 cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-core --test master_window_props

echo "== the pool: exactly-once proptests at 256 cases"
# The suite that carries the exactly-once gate of the one pool: conservation
# (every job granted and completed once, local before stolen, batches
# consecutive within one file), each chunk merged at exactly one surviving
# site or abandoned under any interleaving of policy-sized and sized grants
# (every size 1..=64), steals, duplicate reports, failures, lease reaps and
# an evacuation, a late completion racing its re-execution, and terminal
# soundness: no terminal grant before every job is done or abandoned.
PROPTEST_CASES=256 cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-core --test pool_props

echo "== the slave: its core on a virtual clock at 256 cases"
# Depth 1 and 3, random grants, failed fetches, panics, refused verdicts,
# revocations in the batch, at the hand-off and while open, a crash budget and
# site death: every granted job ends exactly once (reported, failed back,
# dropped as revoked, or leaked by a crash or a death), the first want is 1
# and every want at most 1024 (the window's bound), each ask handing back the
# emptied batch buffer, no open job outlives a quantum plus the job that
# overran it, nothing is held after leaving.
PROPTEST_CASES=256 cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-core --test slave_core_props
cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-core --lib slave::tests

echo "== k-means kernel: reduce_group and reduce_units against the reference loop, bit for bit"
# Already part of `cargo test` above; named here so a failure says what
# broke: the filter-and-certify kernel, at every width the CPU has and from
# both sources — decoded points, and their encoding read in place from an
# odd byte offset, whole and cut into groups — and the `local_reduce` fold
# must agree on every bit (ties, near-ties an ulp off a bisector, centroids
# f32 cannot hold, subnormal and overflowing squares, NaN and infinite
# coordinates, partial blocks; `the_certificate_holds_at_its_edges` at D = 4
# and 8), stage 1's scores must stay within the error stage 2 charges
# (`stage_one_stays_within_what_stage_two_charges`) and stage 2 must pass
# only where the inequality it stands for holds
# (`stage_two_passes_only_where_its_inequality_holds`), the filter must
# certify all but 1 % of clustered points, also shifted by +1 000 and
# spread over 10⁴ (`the_filter_certifies_shifted_and_widely_spread_clusters`),
# the dispatcher itself must run a kernel on a CPU with AVX2 and FMA
# (`the_dispatcher_runs_a_kernel_wherever_the_cpu_has_one`), every app's
# `reduce_units` must equal `decode` +
# `reduce_group` over any cut of a chunk (fused_units), a whole run must
# `==` the oracle on the classic and the FT path, and the oracle itself must
# still be the plain loop over `units::dist2`. The kernel tests run again in
# release: the ladder runs optimised code, and the tier-1 suite only the
# debug build.
{ cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-apps --lib kmeans::tests \
    && cargo test -q --release "${CARGO_FLAGS[@]}" -p cloudburst-apps --lib kmeans::tests \
    && cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-apps --test fused_units \
    && cargo test -q --release "${CARGO_FLAGS[@]}" -p cloudburst-apps --test fused_units \
    && cargo test -q "${CARGO_FLAGS[@]}" --test e2e_apps kmeans; } \
    || { echo "k-means kernel differs from the reference loop"; exit 1; }

echo "== slave quantum: the driver's hand-back, fencing, the mailbox, batch sizes per transport, verdicts by the quantum"
# Already part of `cargo test` above; named here so a failure says which
# promise of the driver over `SlaveCore` broke: a slave that errors out
# mid-batch settles every granted job exactly once at depth 1 and 3, acked or
# not (scripted master, then both runtimes end to end within a second), a job
# revoked in the slave's batch is
# dropped before its fetch, a request in a dead master's mailbox fails at
# once, jobs of two quanta go one per hand-off and 160-byte jobs a quantum at
# a time, some over 64 and never over 1024. Ack-gated, a hand-off of jobs is settled in one
# exchange: a refused job costs its batch-mates a second reduce and leaves
# nothing open (a scratch or a journal rolled back), a panic leaves the jobs
# open before it mergeable, a job revoked while open is neither reported nor
# merged, a slow job does not sit on its batch-mates' completions, and under
# the FT stack a completion message carries one slow job or a hand-off of
# tiny ones; `reduce_open`/`accept`/`rollback` over several jobs' units hold
# their contract for all five apps, the journal's bit for bit.
cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-cluster --lib -- \
    runtime::tests::a_slave_that_errors_out_mid_batch \
    runtime::tests::a_store_error_mid_batch \
    runtime::tests::a_job_revoked_while_it_waits \
    runtime::tests::a_request_in_the_mailbox \
    runtime::tests::millisecond_jobs_are_taken_one_per_hand_off \
    runtime::tests::tiny_jobs_are_taken_a_quantum_at_a_time \
    runtime::tests::a_refused_job_costs_its_batch_mates \
    runtime::tests::a_refused_job_rolls_a_journal_back \
    runtime::tests::a_panic_in_a_batch \
    runtime::tests::a_job_revoked_while_it_is_open \
    runtime::tests::a_slow_job_does_not_sit \
    runtime::tests::under_fault_tolerance_a_completion_message \
    runtime::tests::ft_run_allocates_reduction_objects_per_worker
cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-apps --test undo_props

echo "== the control plane: heap blocks per job and per exchange, counted"
# Already part of `cargo test` above; named here, and run again in release,
# where a hand-off of tiny jobs is the ladder's 1 024: over TCP and over
# channels, fewer than 0.1 heap blocks per extra job between a 24 000- and a
# 96 000-job run (a lease, a range list or a hand-off buffer per job makes
# one or more), and fewer than one block of 64 KiB or more per 4 096 extra
# jobs on the run's threads (a buffer allocated per exchange makes one per
# hand-off); under fault tolerance fewer than 16 blocks per settle exchange,
# however many jobs it carries (a verdict channel built per settle made 20 on
# TCP). A journaling application's accumulators and journals come from the
# calling thread: no run thread asks for a block of 256 KiB or more. And its
# objects are resident when made (resident_accumulators): a fresh 3.2 MB
# rank vector and a 3.3 MB grid take no more minor faults in their first open
# job than their journal's pages and 16 (a lazily zeroed object takes ≈ 800
# to 1 530) — in release too, where the optimiser could fold a zero fill back
# into a lazily zeroed allocation.
cargo test -q "${CARGO_FLAGS[@]}" --test alloc_per_job --test robj_placement \
    --test resident_accumulators
cargo test -q --release "${CARGO_FLAGS[@]}" --test alloc_per_job --test robj_placement \
    --test resident_accumulators

echo "== the head: its core on a virtual clock, reactor readiness and refusals, the master adapter, the 40 ms link"
# Already part of `cargo test` above; named here so a failure says which
# layer broke: `HeadCore` (silence, duplicates, revocations, no evacuation
# after `Bye`, random schedules), the reactor's readiness wait (split frame,
# write readiness, idle wake-ups) and its refusal of an old peer, the channel
# adapter's smoke, the TCP master's hand-back/heartbeat/old-head tests, and
# the TCP twin of grant_window.
cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-cluster --lib -- head_core::tests head::tests
cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-cluster --test head_core_props \
    --test reactor_readiness --test reactor_refusals
cargo test -q "${CARGO_FLAGS[@]}" -p cloudburst-cluster --lib net::tests
cargo test -q "${CARGO_FLAGS[@]}" --test grant_window

echo "== the simulator: seeded chaos at 256 cases, and the paper's headline"
# A site outage at a random time, up to two worker crashes, a slow worker, a
# slow site and redundancy 1 or 2 on three sites: every chunk merged once at
# a site that survived or abandoned, no grant to a site after its outage, and
# the report the fold of the recorded stream and a pure function of the plan.
PROPTEST_CASES=256 cargo test -q "${CARGO_FLAGS[@]}" --test sim_properties chaos
SUMMARY=$(target/release/cloudburst simulate summary)
echo "$SUMMARY"
if ! grep -q 'average slowdown' <<<"$SUMMARY" || ! grep -q 'scaling efficiency' <<<"$SUMMARY"; then
    echo "cloudburst simulate summary printed no headline"
    exit 1
fi

echo "== hygiene: cargo fmt --check"
# House style lives in rustfmt.toml; drift fails the run.
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "   (rustfmt not installed — skipped)"
fi

echo "== hygiene: cargo clippy --workspace -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace "${CARGO_FLAGS[@]}" -- -D warnings
else
    echo "   (clippy not installed — skipped)"
fi

echo "== smoke: chaos run emits valid, complete observability artifacts"
BIN=target/release/cloudburst
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
"$BIN" generate wordcount --out "$SMOKE/words.bin" --units 60000 --vocab 500
"$BIN" organize --data "$SMOKE/words.bin" --unit-size 16 --chunk-units 512 \
    --files 8 --out "$SMOKE/org" --local-frac 0.5
# The chaos run's copy keeps a quarter of the words local: the local site's
# three workers run dry long before the cloud's shard does, so the run steals
# by its shape. At 0.5 whether a site ran dry first was µs-scale timing, and
# 4 runs in 100 had no steal.
"$BIN" organize --data "$SMOKE/words.bin" --unit-size 16 --chunk-units 512 \
    --files 8 --out "$SMOKE/corg" --local-frac 0.25
# Leases are millisecond-scale: the whole chaos run takes ~10 ms on the
# pooled fetch path, and a lease must be able to expire mid-run.
"$BIN" run wordcount --org "$SMOKE/corg" --local-cores 3 --cloud-cores 3 \
    --time-scale 2e-5 \
    --chaos 'seed=5,storage=0.2,slow=cloud:0:0.5,crash=local:1:2,lease=0.004:0.004:0.02:8,hb=0.05:30' \
    --stats-out "$SMOKE/stats.json" --events-out "$SMOKE/events.jsonl" \
    --trace-out "$SMOKE/trace.json"
# Every artifact must parse with the framework's own validator...
"$BIN" check-json "$SMOKE/stats.json"
# ...the events artifact must also pass the delivery-sequence audit (the
# stamped seq numbers form a gapless 1..=max set — nothing was dropped
# between emission and disk)...
"$BIN" check-json "$SMOKE/events.jsonl" >"$SMOKE/seqcheck.txt"
grep -q 'delivery sequence complete' "$SMOKE/seqcheck.txt" \
    || { echo "events.jsonl failed the delivery-sequence audit"; exit 1; }
"$BIN" check-json "$SMOKE/trace.json"
# ...and the causal analysis must reconstruct the run exhaustively: explain
# exits non-zero unless its seven categories account for the whole
# makespan, cross-checks the makespan and — exactly — the fault and per-site
# ledgers against the stats document, and the machine artifact must carry a
# verdict.
"$BIN" explain "$SMOKE/events.jsonl" --stats "$SMOKE/stats.json" \
    --json "$SMOKE/explain.json"
"$BIN" check-json "$SMOKE/explain.json"
grep -q '"dominant"' "$SMOKE/explain.json" \
    || { echo "explain artifact is missing a dominant verdict"; exit 1; }
# ...the stats must carry the fault ledger...
grep -q '"faults"' "$SMOKE/stats.json"
# ...and the chaos plan's structural consequences must appear in the trace:
# crashed workers' leases get reaped, the slowed slave triggers speculation,
# and the imbalance it creates drives cross-site steals.
for ev in lease-reap speculate steal; do
    grep -q "\"name\":\"$ev\"" "$SMOKE/trace.json" \
        || { echo "trace.json is missing '$ev' events"; exit 1; }
done
echo "   artifacts valid"

echo "== smoke: coded redundancy (r=2) evacuates an outage without re-fetching"
# Same words, organized with every chunk replicated at both sites. The
# cloud dies mid-run; the survivor must finish from its own replicas:
# zero WAN bytes, and the fault ledger counts the re-fetches saved.
"$BIN" organize --data "$SMOKE/words.bin" --unit-size 16 --chunk-units 512 \
    --files 8 --out "$SMOKE/org2" --local-frac 0.5 --redundancy 2
"$BIN" info --org "$SMOKE/org2" >"$SMOKE/info2.txt"
grep -q 'redundancy' "$SMOKE/info2.txt" \
    || { echo "info does not report the coded factor"; exit 1; }
# Per-job delays stretch the run to ~1 s and the 250 ms detection timeout
# leaves real margin: a scheduler stall on a busy box must not be able to
# outlive the heartbeat window and spuriously kill the surviving site.
"$BIN" run wordcount --org "$SMOKE/org2" --local-cores 3 --cloud-cores 3 \
    --time-scale 2e-5 \
    --chaos 'seed=5,outage=cloud@0.1,slow=local:0:0.02,slow=local:1:0.02,slow=local:2:0.02,slow=cloud:0:0.02,slow=cloud:1:0.02,slow=cloud:2:0.02,hb=0.01:0.25' \
    --stats-out "$SMOKE/cstats.json" --events-out "$SMOKE/cevents.jsonl"
"$BIN" check-json "$SMOKE/cstats.json"
# The ledger folded from the events must be the report's, the coded facts
# (replica grants, wins and fences, re-fetches saved) included.
"$BIN" explain "$SMOKE/cevents.jsonl" --stats "$SMOKE/cstats.json" >/dev/null
SAVED=$(grep -o '"saved_refetches":[0-9]*' "$SMOKE/cstats.json" | grep -o '[0-9]*$')
[[ -n "$SAVED" && "$SAVED" -gt 0 ]] \
    || { echo "evacuation saved no re-fetches (saved_refetches=${SAVED:-missing})"; exit 1; }
if grep -o '"remote_bytes":[0-9]*' "$SMOKE/cstats.json" | grep -qv ':0$'; then
    echo "coded run fetched chunk bytes over the WAN"; exit 1
fi
echo "   coded evacuation: $SAVED re-fetches saved, zero WAN bytes"

echo "== smoke: live metrics agree with the report, mid-run and at exit"
# A dataset big enough that the run takes a few seconds at --time-scale 2.0,
# so the /metrics endpoint can be scraped while the burst is in flight.
"$BIN" generate wordcount --out "$SMOKE/big.bin" --units 600000 --vocab 500
"$BIN" organize --data "$SMOKE/big.bin" --unit-size 16 --chunk-units 4096 \
    --files 8 --out "$SMOKE/borg" --local-frac 0.4
MPORT=$((20000 + RANDOM % 20000))
"$BIN" run wordcount --org "$SMOKE/borg" --local-cores 3 --cloud-cores 3 \
    --time-scale 2.0 --chaos 'seed=5,storage=0.1' \
    --watch --metrics-addr "127.0.0.1:$MPORT" \
    --metrics-out "$SMOKE/metrics.prom" --stats-out "$SMOKE/mstats.json" \
    2>"$SMOKE/watch.txt" &
RUN_PID=$!
# Mid-run: the exposition must parse strictly and show live core counters.
"$BIN" check-metrics "http://127.0.0.1:$MPORT/metrics" --retries 20 \
    || { kill "$RUN_PID" 2>/dev/null; cat "$SMOKE/watch.txt"; exit 1; }
wait "$RUN_PID" || { cat "$SMOKE/watch.txt"; exit 1; }
# At exit: the final scrape's ledgers must equal the report exactly.
"$BIN" check-metrics "$SMOKE/metrics.prom" --against-stats "$SMOKE/mstats.json"
# The stats must carry the dollar-cost block and --watch must have printed.
grep -q '"cost"' "$SMOKE/mstats.json"
grep -q '^\[watch ' "$SMOKE/watch.txt" \
    || { echo "no --watch lines on stderr"; cat "$SMOKE/watch.txt"; exit 1; }
echo "   metrics valid"

echo "== smoke: health plane trips on chaos, stays quiet clean, and dumps a black box"
# Sick run: every cloud job takes five times a local one, with a straggler
# threshold tight enough that the detector must trip. The slowness is a
# per-job delay on each worker, not a factor on measured durations: 147 jobs
# at 0.06 s on three local and 0.3 s on three cloud workers cannot finish in
# under 2.4 s however fast the machine, so the run outlasts the probes below
# and the detector's two hysteresis ticks (250 ms each) by construction.
HPORT=$((20000 + RANDOM % 20000))
SICK='seed=5'
for w in 0 1 2; do SICK+=",slow=local:$w:0.06,slow=cloud:$w:0.3"; done
"$BIN" run wordcount --org "$SMOKE/borg" --local-cores 3 --cloud-cores 3 \
    --time-scale 2.0 --chaos "$SICK" --health 'straggler=0.9' \
    --metrics-addr "127.0.0.1:$HPORT" \
    --stats-out "$SMOKE/hstats.json" 2>"$SMOKE/hrun.txt" &
HRUN_PID=$!
# GET one document of the live plane into a file, retried the way
# check-metrics retries its scrape; whatever the status (/healthz answers 503
# while degraded), the body must be valid JSON.
probe() {
    for _ in $(seq 20); do
        if curl -s "http://127.0.0.1:$HPORT$1" >"$2" && "$BIN" check-json "$2" >/dev/null; then
            return 0
        fi
        sleep 0.3
    done
    kill "$HRUN_PID" 2>/dev/null
    echo "$1 unreachable or not JSON"; cat "$SMOKE/hrun.txt"; exit 1
}
# Probe the live introspection plane as soon as the listener answers.
"$BIN" check-metrics "http://127.0.0.1:$HPORT/metrics" --retries 20 \
    || { kill "$HRUN_PID" 2>/dev/null; cat "$SMOKE/hrun.txt"; exit 1; }
probe /debug/pool "$SMOKE/pool.json"
grep -q '"queue_depth"' "$SMOKE/pool.json" && grep -q '"shards"' "$SMOKE/pool.json" \
    || { kill "$HRUN_PID" 2>/dev/null; echo "/debug/pool missing fields"; exit 1; }
probe /debug/sites "$SMOKE/sites.json"
probe /healthz "$SMOKE/healthz.json"
wait "$HRUN_PID" || { cat "$SMOKE/hrun.txt"; exit 1; }
# The chaos run must have tripped at least one detector (recorded in the
# stats document's health block), and the clean run below exactly zero.
TRIPS=$(grep -o '"total_trips":[0-9]*' "$SMOKE/hstats.json" | grep -o '[0-9]*$')
[[ -n "$TRIPS" && "$TRIPS" -gt 0 ]] \
    || { echo "chaos run tripped no health detector (total_trips=${TRIPS:-missing})"; exit 1; }
# The clean run: the sick run's dataset and cores without the chaos, under
# --watch so the sampler feeds the detectors every 250 ms tick. It lasts
# about 1.25 s, five ticks, which leaves room for the two-tick hysteresis
# to trip — it did in 6 of 6 runs when a site that had run out of work
# still counted as a straggler candidate.
"$BIN" run wordcount --org "$SMOKE/borg" --local-cores 3 --cloud-cores 3 \
    --time-scale 2.0 --watch --stats-out "$SMOKE/cleanstats.json" >/dev/null \
    2>"$SMOKE/clean.txt"
TICKS=$(grep -c '^\[watch ' "$SMOKE/clean.txt" || true)
[[ "$TICKS" -ge 3 ]] \
    || { echo "clean run saw $TICKS sampler ticks, not 3"; cat "$SMOKE/clean.txt"; exit 1; }
CLEAN=$(grep -o '"total_trips":[0-9]*' "$SMOKE/cleanstats.json" | grep -o '[0-9]*$')
[[ "$CLEAN" == "0" ]] || {
    echo "clean run tripped a detector (total_trips=${CLEAN:-missing})"
    cat "$SMOKE/clean.txt"
    exit 1
}
echo "   health: chaos trips $TRIPS detector transition(s), clean run 0"
# Fatal chaos: the only processing site dies mid-run, so once the head has
# heard nothing for the heartbeat timeout it abandons what is left and the run
# fails — by construction, not by a race: 118 chunks at 20 ms each on two
# workers take about 1.2 s, and the outage comes at 0.1 s. The black box must
# hold the three post-mortem artifacts in the shapes the offline tooling
# consumes. The crash-<ts>/ dump lands in the run's cwd, so run from $SMOKE
# (with $BIN resolved absolute first).
ABSBIN="$PWD/$BIN"
if ( cd "$SMOKE" && "$ABSBIN" run wordcount --org "$SMOKE/org" --local-cores 2 \
    --cloud-cores 0 --time-scale 2e-3 --metrics-addr "127.0.0.1:$HPORT" \
    --chaos 'seed=5,outage=local@0.1,slow=local:0:0.02,slow=local:1:0.02,hb=0.01:0.05' \
    >/dev/null 2>&1 ); then
    echo "abandoning chaos run unexpectedly passed"; exit 1
fi
BOX=$(ls -d "$SMOKE"/crash-* 2>/dev/null | head -1 || true)
[[ -n "$BOX" ]] || { echo "fatal run left no crash-<ts>/ black box"; exit 1; }
"$BIN" explain "$BOX/events.jsonl" >"$SMOKE/boxexplain.txt"
grep -q 'verdict:' "$SMOKE/boxexplain.txt" \
    || { echo "explain could not read the black-box event window"; exit 1; }
"$BIN" check-metrics "$BOX/metrics.prom"
"$BIN" check-json "$BOX/health.json"
echo "   black box: $(basename "$BOX") readable by explain/check-metrics/check-json"

echo "== bench: pipeline overlap (quick) writes a valid BENCH_runtime.json"
# Stash the committed artifact before the bench rewrites it: the fresh run
# is diffed against this baseline below with a 10% regression gate.
cp BENCH_runtime.json "$SMOKE/bench_base.json"
# The bench itself asserts result-equivalence at every depth; --quick keeps
# Criterion's sampling short while the artifact (written before sampling,
# from a full best-of-7 quantification) stays meaningful.
cargo bench -p cloudburst-bench --bench pipeline_overlap "${CARGO_FLAGS[@]}" -- --quick
"$BIN" check-json BENCH_runtime.json
# Pipelining must never make the S3Sim-heavy scenario slower end to end.
SPEEDUP=$(sed -n 's/.*"speedup":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
[[ -n "$SPEEDUP" ]] || { echo "BENCH_runtime.json is missing 'speedup'"; exit 1; }
awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 1.0) }' \
    || { echo "pipeline overlap regressed: speedup $SPEEDUP < 1.0x"; exit 1; }
echo "   overlap speedup: ${SPEEDUP}x"
# Metrics must stay effectively free: ≤1% on the metered re-run of the
# best pipelined depth.
OVERHEAD=$(sed -n 's/.*"metrics_overhead":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
[[ -n "$OVERHEAD" ]] || { echo "BENCH_runtime.json is missing 'metrics_overhead'"; exit 1; }
awk -v o="$OVERHEAD" 'BEGIN { exit !(o <= 1.01) }' \
    || { echo "metrics overhead regressed: ${OVERHEAD}x > 1.01x"; exit 1; }
echo "   metrics overhead: ${OVERHEAD}x"
# The always-on flight recorder must be just as free: full event emission
# teed into the bounded ring, ≤1% on the same interleaved measurement.
FOVERHEAD=$(sed -n 's/.*"flight_recorder_overhead":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
[[ -n "$FOVERHEAD" ]] \
    || { echo "BENCH_runtime.json is missing 'flight_recorder_overhead'"; exit 1; }
awk -v o="$FOVERHEAD" 'BEGIN { exit !(o <= 1.01) }' \
    || { echo "flight recorder overhead regressed: ${FOVERHEAD}x > 1.01x"; exit 1; }
echo "   flight recorder overhead: ${FOVERHEAD}x"
# The attribution corridor's verdict flip: the traced serial run must be
# WAN-bound and every pipelined run compute-bound (p < f < 2p by
# construction — pipelining hides p of each fetch, leaving f − p < p).
DOMS=$(grep -o '"dominant":"[a-z_]*"' BENCH_runtime.json \
    | sed 's/.*:"\(.*\)"/\1/' | tr '\n' ' ')
[[ "$DOMS" == "wan_fetch compute compute " ]] \
    || { echo "attribution verdicts did not flip with depth: [$DOMS]"; exit 1; }
echo "   attribution verdicts by depth: $DOMS"
# Cross-run regression gate: the fresh artifact vs the committed baseline.
# Gated leaves are the wall-time/latency/speedup metrics; attribution
# shares are informational by key design.
"$BIN" bench-diff "$SMOKE/bench_base.json" BENCH_runtime.json --threshold 10 \
    || { echo "benchmark regressed vs the committed BENCH_runtime.json"; exit 1; }

echo "== bench: coded ablation (quick) writes a valid BENCH_coded.json"
# The bench itself asserts exact results on the real runtime; the artifact
# (full 25-seed DES sweep, written before sampling) carries the tails.
cargo bench -p cloudburst-bench --bench coded_ablation "${CARGO_FLAGS[@]}" -- --quick
"$BIN" check-json BENCH_coded.json
# Proactive replicas must beat (or tie) reactive speculation on the p99
# completion tail of the straggler scenario — the reason r > 1 exists.
RATIO=$(sed -n 's/.*"p99_ratio_coded_over_speculation":\([0-9.eE+-]*\).*/\1/p' BENCH_coded.json)
[[ -n "$RATIO" ]] \
    || { echo "BENCH_coded.json is missing 'p99_ratio_coded_over_speculation'"; exit 1; }
awk -v r="$RATIO" 'BEGIN { exit !(r <= 1.0) }' \
    || { echo "coded p99 trails speculation p99: ratio $RATIO > 1.0"; exit 1; }
echo "   coded p99 / speculation p99: ${RATIO}"

echo "OK"
