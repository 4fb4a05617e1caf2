#!/usr/bin/env bash
# The full local gate: formatting, release build, tests, domain lints.
# Offline-safe — nothing here touches the network. CI runs this same
# script, so a clean local run means a clean pipeline.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "no tracked target/ artifacts"
if git ls-files -- 'target/*' | grep -q .; then
  echo "error: build artifacts under target/ are tracked by git:" >&2
  git ls-files -- 'target/*' | head >&2
  echo "fix: git rm -r --cached target  (target/ is covered by .gitignore)" >&2
  exit 1
fi

step "cargo fmt --all -- --check"
cargo fmt --all -- --check

step "cargo build --workspace --release"
cargo build --workspace --release

step "cargo test --workspace -q"
cargo test --workspace -q

step "checkpoint/restore smoke (serve-replay --checkpoint-every / --restore)"
CK_DIR="$(mktemp -d)"
trap 'rm -rf "$CK_DIR"' EXIT
./target/release/navarchos serve-replay \
  --vehicles 10 --days 15 --seed 7 --shards 2 --dirty 99 \
  --checkpoint-every 3000 --checkpoint "$CK_DIR/ck.bin" --verify > /dev/null
test -s "$CK_DIR/ck.bin"
./target/release/navarchos serve-replay \
  --vehicles 10 --days 15 --seed 7 --shards 2 --dirty 99 \
  --restore "$CK_DIR/ck.bin" --verify > /dev/null
# refused FILE MESSAGE: restoring FILE must exit nonzero, naming MESSAGE.
refused() {
  if ./target/release/navarchos serve-replay \
       --vehicles 10 --days 15 --seed 7 --shards 2 --dirty 99 \
       --restore "$1" > /dev/null 2> "$CK_DIR/err.txt"; then
    echo "error: restoring $1 exited 0" >&2
    exit 1
  fi
  grep -q "$2" "$CK_DIR/err.txt" || {
    echo "error: restoring $1 did not report '$2':" >&2
    cat "$CK_DIR/err.txt" >&2
    exit 1
  }
}
# One flipped payload byte must fail the checksum wherever it sits. The
# CRC-32 folds the payload's four quarters as four streams, so flip the
# middle of each quarter, the middle of the file and the last payload
# byte before the 4-byte trailer.
PAYLOAD=$(( $(wc -c < "$CK_DIR/ck.bin") - 4 ))
for AT in $(( PAYLOAD / 8 )) $(( 3 * PAYLOAD / 8 )) $(( (PAYLOAD + 4) / 2 )) \
          $(( 5 * PAYLOAD / 8 )) $(( 7 * PAYLOAD / 8 )) $(( PAYLOAD - 1 )); do
  cp "$CK_DIR/ck.bin" "$CK_DIR/flipped.bin"
  BYTE=$(od -An -tu1 -j "$AT" -N1 "$CK_DIR/flipped.bin" | tr -d ' ')
  printf "\\$(printf '%03o' $(( BYTE ^ 0xFF )))" \
    | dd of="$CK_DIR/flipped.bin" bs=1 seek="$AT" count=1 conv=notrunc 2> /dev/null
  refused "$CK_DIR/flipped.bin" 'checkpoint checksum mismatch'
done
# A version-skewed checkpoint must be refused with the named error.
printf '\x09' | dd of="$CK_DIR/ck.bin" bs=1 seek=28 count=1 conv=notrunc 2> /dev/null
refused "$CK_DIR/ck.bin" 'snapshot version mismatch'

step "cargo run -p xtask -- lint"
cargo run -p xtask -- lint

step "cargo run -p xtask -- analyze"
cargo run -p xtask -- analyze

step "all checks passed"
