#!/usr/bin/env bash
# No-panic gate for the protocol, system and accelerator layers: a frame
# off the wire, a firmware register poke or a hostile network blob must
# never be able to bring the process down, so production paths in
# crates/protocols, crates/system and crates/accel return
# ProtocolError / BusFault / EngineError instead of panicking.
#
# The gate scans every non-test line (each file is truncated at its
# `#[cfg(test)]` marker) for `.unwrap()`, `.expect(`, `panic!(` and
# `unreachable!(`. A site is allowed only when a justification appears at
# most MAX_DISTANCE lines above it:
#   - a `// invariant:` comment proving the failure is statically
#     impossible, or
#   - a `# Panics` doc section (rustdoc's contract for deliberate panics
#     on caller misuse, e.g. constructor config validation).
# Anything else fails the gate: either convert the site to a Result or
# document the invariant that makes it infallible.
#
# On top of the per-site justification rule, the gate holds a hard
# budget: the total number of non-test panic sites across both crates
# must not exceed MAX_PANIC_SITES. Justified sites still count — the
# budget is a ratchet, so new code has to earn panics by removing old
# ones. Lower the constant when sites are converted; never raise it
# without a review of every remaining site.
#
# This static gate is paired with a dynamic one:
# crates/protocols/tests/decoder_robustness.rs drives every wire
# decoder (Envelope framing plus each §III message and message-enum
# FromBytes impl) with truncated, bit-flipped, tag-swept and seeded
# random inputs, demonstrating at runtime that the decoding paths reach
# none of the budgeted sites — hostile bytes come back as typed
# CodecErrors. Decoder changes must keep both gates green.
#
# Usage: scripts/check_no_panics.sh

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"

MAX_DISTANCE=10
# Audited 2026-10: 16 sites, each behind an `// invariant:` proof or a
# `# Panics` doc contract (mutex poisoning, fixed-size HKDF outputs,
# static memory-map ordering, backlog accounting). The peek-then-pop
# site went with the deleted `system::event` queue: the fleet campaign
# now runs on `rt::sched`'s timer wheel.
# crates/accel joined the gate with zero sites — the batched inference
# path ships typed EngineErrors end to end — so the budget holds.
MAX_PANIC_SITES=16
status=0
site_count=0

for f in crates/protocols/src/*.rs crates/protocols/src/gateway/*.rs crates/system/src/*.rs crates/accel/src/*.rs; do
    # Test-only modules are gated by `#[cfg(test)] mod tests;` in their
    # parent, so the in-file truncation never fires for them.
    [[ "$(basename "$f")" == "tests.rs" ]] && continue
    hits=$(awk -v max="$MAX_DISTANCE" '
        /#\[cfg\(test\)\]/ { exit }
        /invariant:|# Panics/ { guard = NR }
        /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/ {
            if (NR - guard > max) print FILENAME ":" NR ": " $0
        }' "$f")
    if [[ -n "$hits" ]]; then
        echo "$hits"
        status=1
    fi
    n=$(awk '
        /#\[cfg\(test\)\]/ { exit }
        /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/ { c++ }
        END { print c + 0 }' "$f")
    site_count=$((site_count + n))
done

if [[ "$status" -ne 0 ]]; then
    echo "check_no_panics: FAIL: unjustified panic sites in non-test protocol/system code" >&2
    echo "check_no_panics: convert to ProtocolError/BusFault, or precede with an '// invariant:' comment or '# Panics' doc section" >&2
    exit 1
fi

if [[ "$site_count" -gt "$MAX_PANIC_SITES" ]]; then
    echo "check_no_panics: FAIL: $site_count non-test panic sites exceed the budget of $MAX_PANIC_SITES" >&2
    echo "check_no_panics: convert a site to a typed error instead of adding one, or re-audit every site before raising MAX_PANIC_SITES" >&2
    exit 1
fi

echo "check_no_panics: OK: no unjustified panic sites; $site_count/$MAX_PANIC_SITES budget used in crates/protocols, crates/system and crates/accel"
