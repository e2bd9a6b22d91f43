#!/usr/bin/env sh
# Runs the concurrent serving stack under the dynamic-analysis trio:
#
#   tsan  ThreadSanitizer over every locsvc suite that runs the
#         scheduler from several threads (service_parity, registry_swap,
#         chaos, and tcp_roundtrip, whose concurrent clients arrive
#         through the socket path) and the engine's concurrent_engine
#         suite. They cover the ready queue, which carries each request's
#         claim cursor under the scheduler lock, the per-request output
#         state the workers scatter scores into, and the fault-injection
#         counters shared across workers.
#   asan  AddressSanitizer over the qsimd kernel tests, tinynn's unit
#         tests and quantisation property tests, and the locator's bit
#         pins — the code with raw-pointer SIMD. The property tests drive
#         whole windows through the convolution at lengths around every
#         tile boundary, and the bit pins drive the golden, served and
#         paper shapes: every tile reads and writes the slack rows past a
#         buffer's body, so these are the runs that reach its edges.
#         tinynn's unit tests reach the training kernels through the
#         layers: the batch-norm scalar-oracle test drives the channel
#         sums at 5, 8 and 16 channels and 13 positions (a tail of
#         channels and of positions), and the convolution tests drive the
#         transpose.
#   miri  Miri over qsimd. The AVX2 and AVX-VNNI dispatch report
#         unavailable under the interpreter (see `qsimd::available()` and
#         `qsimd::vnni()`), so this pass covers the scalar fallbacks and
#         the declines of every kernel, where Miri's UB detection is
#         strongest.
#
# Sanitizers need a nightly toolchain (-Zsanitizer, -Zbuild-std) plus
# the rust-src component; Miri needs the miri component. A missing
# prerequisite SKIPS that phase with a warning on stderr and does NOT
# count as a pass. Set SANITIZE_STRICT=1 (as CI does) to turn skips
# into failures so a broken toolchain install cannot go green.
#
# usage: sanitize.sh [all|tsan|asan|miri]    (default: all)

set -eu

if [ "$#" -gt 1 ]; then
    echo "usage: $0 [all|tsan|asan|miri]" >&2
    exit 2
fi
phase="${1:-all}"
strict="${SANITIZE_STRICT:-0}"

# Sanitized builds must restate the workspace's CPU baseline: RUSTFLAGS
# replaces .cargo/config.toml's rustflags wholesale, and losing
# -C target-cpu=x86-64-v3 would silently drop the AVX2 kernels from the
# configuration under test.
cpu="-C target-cpu=x86-64-v3"
# Pinning --target (even to the host triple) keeps RUSTFLAGS off build
# scripts and proc-macros, which must not be instrumented.
triple=x86_64-unknown-linux-gnu

failures=0
skips=0

note() {
    echo "sanitize: $*"
}

# skip <phase> <reason>: records an explicit skip — loudly, and fatally
# under SANITIZE_STRICT=1.
skip() {
    skips=$((skips + 1))
    if [ "$strict" = "1" ]; then
        echo "sanitize: FAIL: $1 skipped under SANITIZE_STRICT=1: $2" >&2
        failures=$((failures + 1))
    else
        echo "sanitize: WARNING: $1 SKIPPED ($2) — this is not a pass" >&2
    fi
}

# ran <phase> <status>: folds one cargo exit status into the tally.
ran() {
    if [ "$2" -ne 0 ]; then
        echo "sanitize: FAIL: $1 reported errors (exit $2)" >&2
        failures=$((failures + 1))
    fi
}

have_nightly() {
    rustup run nightly rustc --version >/dev/null 2>&1
}

# have_component <name>: true if the nightly toolchain has <name> installed.
have_component() {
    rustup component list --toolchain nightly 2>/dev/null \
        | grep -q "^$1.*(installed)"
}

run_tsan() {
    if ! have_nightly; then
        skip tsan "no nightly toolchain (rustup toolchain install nightly)"
        return 0
    fi
    if ! have_component rust-src; then
        skip tsan "nightly lacks rust-src (-Zbuild-std needs it)"
        return 0
    fi
    note "tsan: locsvc service_parity + registry_swap + chaos + tcp_roundtrip, engine concurrent_engine"
    status=0
    RUSTFLAGS="$cpu -Z sanitizer=thread" \
        CARGO_TARGET_DIR=target/sanitize/tsan \
        cargo +nightly test -Z build-std --target "$triple" \
        -p locsvc --test service_parity --test registry_swap --test chaos \
        --test tcp_roundtrip \
        -p sca-locator --test concurrent_engine || status=$?
    ran tsan "$status"
}

run_asan() {
    if ! have_nightly; then
        skip asan "no nightly toolchain (rustup toolchain install nightly)"
        return 0
    fi
    if ! have_component rust-src; then
        skip asan "nightly lacks rust-src (-Zbuild-std needs it)"
        return 0
    fi
    note "asan: qsimd kernel tests + tinynn lib and quant_props + sca-locator f32_bit_pin"
    status=0
    RUSTFLAGS="$cpu -Z sanitizer=address" \
        CARGO_TARGET_DIR=target/sanitize/asan \
        cargo +nightly test -Z build-std --target "$triple" \
        -p qsimd \
        -p tinynn --lib --test quant_props \
        -p sca-locator --test f32_bit_pin || status=$?
    ran asan "$status"
}

run_miri() {
    if ! have_nightly; then
        skip miri "no nightly toolchain (rustup toolchain install nightly)"
        return 0
    fi
    if ! have_component miri; then
        skip miri "nightly lacks the miri component"
        return 0
    fi
    note "miri: qsimd scalar fallbacks"
    status=0
    CARGO_TARGET_DIR=target/sanitize/miri \
        cargo +nightly miri test -p qsimd || status=$?
    ran miri "$status"
}

case "$phase" in
all)
    run_tsan
    run_asan
    run_miri
    ;;
tsan) run_tsan ;;
asan) run_asan ;;
miri) run_miri ;;
*)
    echo "usage: $0 [all|tsan|asan|miri]" >&2
    exit 2
    ;;
esac

if [ "$failures" -gt 0 ]; then
    echo "sanitize: FAILED ($failures failing phase(s))" >&2
    exit 1
fi
if [ "$skips" -gt 0 ]; then
    note "finished with $skips phase(s) SKIPPED — rerun with the missing components installed for full coverage"
else
    note "all phases passed"
fi
