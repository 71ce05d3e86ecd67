#!/bin/sh
# Polices the public C API surface (src/core/brew.h):
#  - every brew_* function declared there is called from at least one file
#    under tests/, so no public entry point ships untested;
#  - the persistence symbols are both declared and implemented;
#  - BREW_CACHE_DIR is parsed in exactly one place;
#  - the docs/OBSERVABILITY.md "Quick reference" table lists exactly the
#    BREW_* environment variables src/ reads.
set -eu
cd "$(dirname "$0")/.."

# Every declared function needs a test caller. Declarations are the
# identifiers directly followed by "(" on non-comment lines of the header;
# a call is such an identifier on a non-comment line of a test file.
comment='^[[:space:]]*(//|/?\*)'
untested=""
for sym in $(grep -vE "$comment" src/core/brew.h \
    | grep -oE '(^|[^_[:alnum:]])brew_[_[:alnum:]]+[[:space:]]*\(' \
    | grep -oE 'brew_[_[:alnum:]]+' | sort -u); do
  if ! grep -rhE "(^|[^_[:alnum:]])$sym[[:space:]]*\(" tests \
      | grep -qvE "$comment"; then
    untested="$untested $sym"
  fi
done
if [ -n "$untested" ]; then
  echo "brew.h functions with no caller under tests/:$untested" >&2
  exit 1
fi

# Persistence C API: the declared surface is exactly
# brew_options_set_cache_dir + brew_persist_stats/brew_getpersiststats.
# Both sides must exist (header promise, shim implementation) — a symbol
# declared in brew.h but dropped from brew_c.cpp links everywhere until a
# user actually calls it.
for sym in brew_options_set_cache_dir brew_getpersiststats; do
  for f in src/core/brew.h src/core/brew_c.cpp; do
    if ! grep -qE "(^|[^_[:alnum:]])$sym[[:space:]]*\(" "$f"; then
      echo "$f is missing the persistence API symbol $sym" >&2
      exit 1
    fi
  done
done

# BREW_CACHE_DIR is parsed in exactly one place (SpecManager::Options::
# fromEnv); a second getenv would reintroduce the scattered-env-parsing
# problem brew_options exists to solve. Scripts and docs may mention the
# variable freely — only C/C++ sources are policed.
cache_env_offenders=$(grep -rln 'getenv("BREW_CACHE_DIR")' \
    src examples bench tests stencil 2>/dev/null \
  | grep -v '^src/core/spec_manager\.cpp$' \
  || true)
if [ -n "$cache_env_offenders" ]; then
  echo "BREW_CACHE_DIR parsed outside SpecManager::Options::fromEnv:" >&2
  echo "$cache_env_offenders" >&2
  echo "route cache-dir configuration through brew_options_set_cache_dir" >&2
  exit 1
fi

# One environment-variable table: every BREW_* name passed to getenv on a
# non-comment line under src/ is in the "Quick reference" table of
# docs/OBSERVABILITY.md, and the table lists no name src/ no longer reads.
read_vars=$(grep -rhE 'getenv\("BREW_' src | grep -vE "$comment" \
  | grep -oE 'getenv\("BREW_[A-Z0-9_]+"' \
  | grep -oE 'BREW_[A-Z0-9_]+' | sort -u)
table_vars=$(sed -n '/^## Quick reference/,/^## [^Q]/p' docs/OBSERVABILITY.md \
  | grep -oE '^\|[[:space:]]*`BREW_[A-Z0-9_]+' \
  | grep -oE 'BREW_[A-Z0-9_]+' | sort -u)
if [ -z "$read_vars" ] || [ -z "$table_vars" ]; then
  echo "could not collect BREW_* names from src/ or docs/OBSERVABILITY.md" >&2
  exit 1
fi
env_fail=0
for v in $read_vars; do
  if ! printf '%s\n' $table_vars | grep -qx "$v"; then
    echo "$v is read under src/ but missing from the docs/OBSERVABILITY.md" \
      "Quick reference table" >&2
    env_fail=1
  fi
done
for v in $table_vars; do
  if ! printf '%s\n' $read_vars | grep -qx "$v"; then
    echo "$v is in the docs/OBSERVABILITY.md Quick reference table but no" \
      "longer read under src/" >&2
    env_fail=1
  fi
done
[ "$env_fail" -eq 0 ] || exit 1

echo "every brew.h function has a caller under tests/"
echo "persistence API surface intact (set_cache_dir/getpersiststats)"
echo "environment table matches src/ ($(echo $read_vars | wc -w) BREW_* variables)"
