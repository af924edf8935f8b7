#!/usr/bin/env bash
# Lists the library functions that no bench, example, tool or cimbench
# reaches, and checks each one against a keep list with a reason.
#
#   scripts/unreached_functions.sh <scratch-dir>
#
# Configures the root project and benchmark/ out of tree in <scratch-dir>
# at -O0 with one section per function and data object, links every bench,
# example, tool and cimbench with --gc-sections, and prints the demangled
# strong (T) symbols of libcim_*.a that are in none of those binaries.
# A function listed here is reached only by tests (or by nothing).
#
# Exits 1 when a printed name is not in scripts/unreached_functions.keep
# (one name per line, under "# <reason>" headings). Keep entries that are
# reached again are reported as stale but do not fail the run.
#
# A cold run is a 2-3 minute -O0 build; it is not part of ctest.
set -euo pipefail
export LC_ALL=C

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <scratch-dir>" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
keep="$repo/scripts/unreached_functions.keep"

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
cmake -S "$repo" -B "$out/root" "${flags[@]}" > "$out/configure.log" 2>&1
cmake -S "$repo/benchmark" -B "$out/cimbench" "${flags[@]}" \
  >> "$out/configure.log" 2>&1

# Every bench and example source is one target of the same name; tool
# targets swap the source name's underscores for dashes.
targets=() bins=()
for f in "$repo"/bench/bench_*.cpp "$repo"/examples/*.cpp "$repo"/tools/*.cpp; do
  dir=$(basename "$(dirname "$f")")
  name=$(basename "$f" .cpp)
  [[ $dir == tools ]] && name=${name//_/-}
  targets+=("$name")
  bins+=("$out/root/$dir/$name")
done
cmake --build "$out/root" -j 4 --target "${targets[@]}" > "$out/build.log" 2>&1
cmake --build "$out/cimbench" -j 4 --target cimbench >> "$out/build.log" 2>&1
bins+=("$out/cimbench/cimbench")

nm --defined-only "${bins[@]}" | awk 'NF == 3 { print $3 }' | sort -u \
  > "$out/reached.sym"
find "$out/root/src" -name 'libcim_*.a' -exec nm --defined-only {} + \
  | awk '$2 == "T" { print $3 }' | sort -u > "$out/library.sym"
comm -23 "$out/library.sym" "$out/reached.sym" | c++filt | sort -u \
  > "$out/unreached.txt"
{ grep -v -e '^#' -e '^[[:space:]]*$' "$keep" || true; } | sort -u \
  > "$out/keep.txt"

cat "$out/unreached.txt"
echo "$(wc -l < "$out/unreached.txt") library functions reached by no binary"

stale=$(comm -13 "$out/unreached.txt" "$out/keep.txt")
if [[ -n $stale ]]; then
  echo "stale keep entries (reached, or gone):"
  echo "$stale" | sed 's/^/  /'
fi
missing=$(comm -23 "$out/unreached.txt" "$out/keep.txt")
if [[ -n $missing ]]; then
  echo "not in $(basename "$keep"):" >&2
  echo "$missing" | sed 's/^/  /' >&2
  exit 1
fi
