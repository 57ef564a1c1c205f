#!/usr/bin/env bash
# Full CI pipeline: every gate the repo has, in dependency order, with a
# summary table at the end. Any stage failing fails the run (non-zero
# exit), but later stages still execute so one run reports everything.
#
#   scripts/ci.sh
#
# Stages:
#   release   check.sh            Release build + tier-1 suite, -Werror API
#   asan      check.sh --sanitize Debug + ASan/UBSan over the same suite
#   tsan      check.sh --tsan     Debug + ThreadSanitizer, incl. stress test
#   serve     serve_smoke.sh      real daemon on an ephemeral port + load bench
#   simulate  sim_smoke.sh        online simulator determinism + policy-vs-oracle bench
#   lint      lint.sh             clang-tidy (when present) + grep-lint

set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

declare -a names=() results=() times=()
overall=0

run_stage() { # name, command...
  local name="$1"
  shift
  echo
  echo "==== ci.sh: stage '$name': $* ===="
  local start end
  start=$(date +%s)
  if "$@"; then
    results+=("PASS")
  else
    results+=("FAIL")
    overall=1
  fi
  end=$(date +%s)
  names+=("$name")
  times+=("$((end - start))s")
}

run_stage release "$repo_root/scripts/check.sh"
run_stage asan "$repo_root/scripts/check.sh" --sanitize
run_stage tsan "$repo_root/scripts/check.sh" --tsan
run_stage serve "$repo_root/scripts/serve_smoke.sh"
run_stage simulate "$repo_root/scripts/sim_smoke.sh"
run_stage lint "$repo_root/scripts/lint.sh"
# lint.sh passes without clang-tidy (grep-lint only); say so in the row.
if ! command -v clang-tidy > /dev/null 2>&1 && [[ "${results[-1]}" == PASS ]]; then
  results[-1]="PASS (tidy SKIPPED)"
fi

echo
echo "==== ci.sh summary ===="
printf '%-10s %-19s %s\n' stage result time
for i in "${!names[@]}"; do
  printf '%-10s %-19s %s\n' "${names[$i]}" "${results[$i]}" "${times[$i]}"
done

if (( overall )); then
  echo "ci.sh: FAILED"
else
  echo "ci.sh: OK"
fi
exit "$overall"
