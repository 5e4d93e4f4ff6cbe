#!/usr/bin/env bash
# Console-script smoke: `regap run` on five small configs, `regap report` on
# the runs (its tables byte-compared with the sweep's own), `regap synth` and
# a custom run on its instance, seven bad inputs with their documented exit
# codes (one is a report of a run directory given twice), and a last pass
# that parses every JSON file written as strict JSON.
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
cat > "$work/box.cfg" <<CFG
problem = box_affine
algorithm = regularized_extrapolated
lambda_schedule = surface
n = 40
m = 20
epsilon_kappa = 1
seed = 1, 2
out = $work/box
CFG
# the Euclidean ball around a line: the boundary solve's closed form
cat > "$work/parallel.cfg" <<CFG
problem = parallel_lines
algorithm = regularized_extrapolated
gap = 1
epsilon = 1
seed = 1, 2
out = $work/parallel
CFG
# exact AP onto the Fourier-magnitude set, which builds its own DFT map
cat > "$work/phase_exact.cfg" <<CFG
problem = phase_retrieval
algorithm = exact_ap
object = smooth
shape = 16, 16
photon_scale = 1e3
max_iter = 50
out = $work/phase_exact
CFG
$regap run --config "$work/lines.cfg"
$regap run --config "$work/phase.cfg"
$regap run --config "$work/box.cfg"
$regap run --config "$work/parallel.cfg"
$regap run --config "$work/phase_exact.cfg"
for summary in "$work/parallel/seed1" "$work/parallel/seed2"; do
  python3 -c 'import json, sys; r = json.load(open(sys.argv[1]))["reason"]
sys.exit(None if r == "fixed_point" else f"reason {r}, expected fixed_point")' "$summary/summary.json"
done
# the box runs end on the affine set: its residual is round-off sized
for summary in "$work/box/seed1" "$work/box/seed2"; do
  python3 -c 'import json, sys; r = json.load(open(sys.argv[1]))["residual_constraint"]
sys.exit(None if abs(r) <= 1e-9 else f"residual_constraint {r} above 1e-9")' "$summary/summary.json"
done
# the interior verdict: the parallel runs stop inside their ball, the box
# runs end on its boundary
for expect in "true parallel/seed1" "true parallel/seed2" "false box/seed1" "false box/seed2"; do
  python3 -c 'import json, sys; v = json.load(open(sys.argv[1]))["interior"]
sys.exit(None if v == (sys.argv[2] == "true") else f"interior {v}, expected {sys.argv[2]}")' \
    "$work/${expect#* }/summary.json" "${expect%% *}"
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

# `regap report` on the two lines runs writes the series and the rates tables,
# rebuilding from disk the bytes `regap run` wrote from its own results
$regap report "$work/lines/seed1" "$work/lines/seed2" --out "$work/report/table.csv"
test -s "$work/report/table.csv"
test -s "$work/report/table_rates.csv"
cmp "$work/report/table.csv" "$work/lines/comparison.csv"
cmp "$work/report/table_rates.csv" "$work/lines/comparison_rates.csv"

# two run directories with one run id are a configuration error: exit 2, no table
status=0
$regap report "$work/lines/seed1" "$work/lines/seed1" --out "$work/twice/table.csv" || status=$?
test "$status" -eq 2
test ! -e "$work/twice"

# a summary.json that is valid JSON but not an object is an input error: exit 4
mkdir -p "$work/broken"
cp "$work/lines/seed1/trace.csv" "$work/broken/"
echo '[]' > "$work/broken/summary.json"
status=0
$regap report "$work/broken" --out "$work/broken.csv" || status=$?
test "$status" -eq 4
test ! -e "$work/broken.csv"

# a summary key of the wrong type (a quoted rate) is an input error too: exit 4, no table
mkdir -p "$work/badrate"
cp "$work/lines/seed1/trace.csv" "$work/badrate/"
python3 -c 'import json, sys; s = json.load(open(sys.argv[1])); s["measured_rate"] = "0.5"
json.dump(s, open(sys.argv[2], "w"))' "$work/lines/seed1/summary.json" "$work/badrate/summary.json"
status=0
$regap report "$work/badrate" --out "$work/badrate.csv" || status=$?
test "$status" -eq 4
test ! -e "$work/badrate.csv"
test ! -e "$work/badrate_rates.csv"

# a config file that is not valid text is an input error: exit 4, nothing written
printf 'problem = two_subspaces\nalgorithm = exact_ap\nout = %s/undecodable\n# \xff\n' \
  "$work" > "$work/undecodable.cfg"
status=0
$regap run --config "$work/undecodable.cfg" || status=$?
test "$status" -eq 4
test ! -e "$work/undecodable"

# `regap synth` writes a 16 x 16 instance, and a custom run reads it back
cat > "$work/synth.cfg" <<CFG
shape = 16, 16
photon_scale = 1e3
object = smooth
CFG
$regap synth --config "$work/synth.cfg" --seed 3 --out "$work/synth/inst.phz"
test -s "$work/synth/inst.phz"
cat > "$work/custom.cfg" <<CFG
problem = custom
algorithm = regularized_extrapolated
instance = $work/synth/inst.phz
epsilon_kappa = 1
lambda_schedule = constant_one
measure_gamma = false
max_iter = 60
out = $work/custom
CFG
$regap run --config "$work/custom.cfg"

# a key synth does not read is a configuration error: exit 2, nothing written
printf 'shape = 16, 16\nmax_iter = 10\n' > "$work/synth_bad.cfg"
status=0
$regap synth --config "$work/synth_bad.cfg" --out "$work/synth_bad/inst.phz" || status=$?
test "$status" -eq 2
test ! -e "$work/synth_bad"

# a seed an instance file cannot store (2**64) is a configuration error too
status=0
$regap synth --seed 18446744073709551616 --out "$work/synth_big/inst.phz" || status=$?
test "$status" -eq 2
test ! -e "$work/synth_big"

# every JSON file written above is strict JSON: NaN and Infinity are refused
python3 - "$work" <<'PY'
import json, pathlib, sys

def refuse(token):
    raise ValueError(f"non-standard JSON constant {token}")

files = sorted(pathlib.Path(sys.argv[1]).rglob("*.json"))
for path in files:
    try:
        json.loads(path.read_text(), parse_constant=refuse)
    except ValueError as exc:
        sys.exit(f"{path}: {exc}")
print(f"strict JSON: {len(files)} files")
PY
echo "cli smoke: ok ($work)"
