#!/bin/sh
# Regenerates the golden bench outputs and compares each byte for byte.
#
#   tests/golden/check_golden.sh <bench-binary-dir> <golden-dir>
#
# Golden files are named <binary>.txt (default arguments) or <binary>.<arg>.txt
# (one argument, e.g. a reduced repetition count). A deliberate re-baseline
# regenerates the file in the same change and lists every moved cell in
# CHANGES.md.
set -u
bin_dir=$1
golden_dir=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for golden in "$golden_dir"/*.txt; do
  name=$(basename "$golden" .txt)
  binary=${name%%.*}
  arg=${name#"$binary"}
  arg=${arg#.}
  # $arg is empty or one word, so leaving it unquoted passes zero or one argument.
  if ! "$bin_dir/$binary" $arg > "$out/$name.txt"; then
    echo "FAIL $name: $binary exited non-zero"
    status=1
  elif cmp -s "$golden" "$out/$name.txt"; then
    echo "ok   $name"
  else
    echo "FAIL $name: output differs from $golden"
    diff "$golden" "$out/$name.txt" | head -n 20
    status=1
  fi
done
exit $status
