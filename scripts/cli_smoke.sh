#!/usr/bin/env bash
# Console-script smoke: `regap run` on two tiny configs, `regap report` on
# the runs, and three bad inputs with their documented exit codes.
#
# usage: scripts/cli_smoke.sh [WORKDIR]
#
# The command comes from REGAP (default `regap`, the installed console
# script); for a source checkout use REGAP="python -m regap.cli" with src on
# PYTHONPATH.  WORKDIR (default: a fresh temporary directory) receives the
# configs and the run directories.
set -euo pipefail

regap=${REGAP:-regap}
work=${1:-$(mktemp -d)}
mkdir -p "$work"

cat > "$work/lines.cfg" <<CFG
problem = two_subspaces
algorithm = inexact_ap
theta = pi/8
phi = pi/16
seed = 1, 2
out = $work/lines
CFG
cat > "$work/phase.cfg" <<CFG
problem = phase_retrieval
algorithm = regularized_extrapolated
lambda_schedule = surface
object = smooth
shape = 16, 16
photon_scale = 1e3
epsilon_kappa = 1
max_iter = 60
out = $work/phase
CFG
$regap run --config "$work/lines.cfg"
$regap run --config "$work/phase.cfg"
for summary in "$work/lines/seed1" "$work/lines/seed2" "$work/phase"; do
  python3 -m json.tool "$summary/summary.json" > /dev/null
done

# a non-finite number is a configuration error: exit 2, nothing written
cat > "$work/nan.cfg" <<CFG
problem = two_subspaces
algorithm = exact_ap
fixed_point_tolerance = nan
out = $work/nan
CFG
status=0
$regap run --config "$work/nan.cfg" || status=$?
test "$status" -eq 2
test ! -e "$work/nan"

# `regap report` on the two lines runs writes the series and the rates tables
$regap report "$work/lines/seed1" "$work/lines/seed2" --out "$work/report/table.csv"
test -s "$work/report/table.csv"
test -s "$work/report/table_rates.csv"

# a summary.json that is valid JSON but not an object is an input error: exit 4
mkdir -p "$work/broken"
cp "$work/lines/seed1/trace.csv" "$work/broken/"
echo '[]' > "$work/broken/summary.json"
status=0
$regap report "$work/broken" --out "$work/broken.csv" || status=$?
test "$status" -eq 4
test ! -e "$work/broken.csv"

# a config file that is not valid text is an input error: exit 4, nothing written
printf 'problem = two_subspaces\nalgorithm = exact_ap\nout = %s/undecodable\n# \xff\n' \
  "$work" > "$work/undecodable.cfg"
status=0
$regap run --config "$work/undecodable.cfg" || status=$?
test "$status" -eq 4
test ! -e "$work/undecodable"
echo "cli smoke: ok ($work)"
