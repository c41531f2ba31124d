#!/bin/sh
# Run a fixed corpus of cohexp commands against the package sources in
# SRC and keep everything they print and write in OUTDIR: per command
# NAME, its stdout (NAME.out), stderr (NAME.err) and exit code
# (NAME.status), beside every file it writes.  The corpus writes every
# node kind, every report kind and both experiment settings, at small
# sizes and, for training, at the default sizes too, so two source trees
# that write the same documents leave two OUTDIRs that `diff -r` finds
# equal.
#
# usage: .github/documents.sh SRC OUTDIR
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUTDIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"

# A second set of input documents is malformed, one fault each, so that
# the corpus also records the errors reading them gives.
#
# paths in the corpus are relative to OUTDIR, so that they print alike
# whichever tree runs it
run() {
    name=$1
    shift
    status=0
    PYTHONPATH="$src" python -m cohexp.cli "$@" > "$name.out" 2> "$name.err" || status=$?
    echo "$status" > "$name.status"
}

# -- input documents: one of every node kind a user writes ---------------
mkdir -p in
echo '{"node": "const", "in_arity": 2, "values": [0.3, 0.8]}' > in/const.json
echo '{"node": "coord", "in_arity": 3, "indices": [2, 0]}' > in/coord.json
echo '{"node": "tnorm", "kind": "min"}' > in/tnorm.json
echo '{"node": "tconorm", "kind": "lukasiewicz"}' > in/luk-or.json
echo '{"node": "affine", "matrix": [[0.5, 0.5], [0.25, 0.75]], "bias": [0.0, 0.0], "clamp": false}' > in/affine.json
echo '{"node": "lifted_projection", "in_arity": 2, "projection": {"kind": "quantize", "levels": 3}}' > in/lifted.json
echo '{"node": "compose", "outer": {"node": "tconorm", "kind": "lukasiewicz"}, "inner": {"node": "parallel", "parts": [{"node": "tnorm", "kind": "product"}, {"node": "tnorm", "kind": "lukasiewicz"}]}}' > in/norms4.json
echo '{"node": "piecewise", "regions": [{"conditions": [{"index": 0, "op": "ge", "value": 0.5}], "expr": {"node": "const", "in_arity": 1, "values": [1.0]}}], "default": {"node": "const", "in_arity": 1, "values": [0.4]}}' > in/step.json
echo '{"node": "piecewise", "regions": [{"conditions": [{"index": 0, "op": "le", "value": 0.0}], "expr": {"node": "const", "in_arity": 1, "values": [0.0]}}, {"conditions": [{"index": 0, "op": "ge", "value": 1.0}], "expr": {"node": "const", "in_arity": 1, "values": [1.0]}}], "default": {"node": "const", "in_arity": 1, "values": [0.9]}}' > in/jump.json
echo '{"node": "compose", "outer": {"node": "tconorm", "kind": "lukasiewicz"}, "inner": {"node": "lifted_projection", "in_arity": 2, "projection": {"kind": "threshold", "alpha": 0.5}}}' > in/canonical.json
echo '{"node": "const", "in_arity": 2, "values": [1.0]}' > in/one.json
echo '{"node": "const", "in_arity": 1, "values": [0.2]}' > in/low.json
echo '{"node": "tconorm", "kind": "lukasiewicz", "clmap": true}' > in/stray.json
# a network inline (its reference is dropped unopened) and one by reference
echo '{"node": "mlp", "model": {"layers": [{"weights": [[2.0, -1.0], [-1.0, 2.0]], "bias": [0.0, 0.5], "activation": "prelu", "slope": 0.25}, {"weights": [[1.5, 1.5]], "bias": [-1.0], "activation": "sigmoid"}]}, "weights_ref": "missing.json"}' > in/mlp-both.json
echo '{"layers": [{"weights": [[2.0, -1.0], [-1.0, 2.0]], "bias": [0.0, 0.5], "activation": "prelu", "slope": 0.25}, {"weights": [[1.5, 1.5]], "bias": [-1.0], "activation": "sigmoid"}]}' > in/weights.json
echo '{"node": "mlp", "weights_ref": "weights.json"}' > in/mlp-ref.json
# a normalised row whose sum rounds to 1 + 2**-52: kept unclamped
echo '{"node": "affine", "matrix": [[0.1284403669724771, 0.871559633027523]], "bias": [0.0], "clamp": false}' > in/affine-normalised.json
# a 12-input law with two output columns: its tables have 4 096 rows of two
echo '{"node": "coord", "in_arity": 12, "indices": [0, 5, 11]}' > in/coord12.json
echo '{"node": "coord", "in_arity": 3, "indices": [2, 0]}' > in/coord3.json
# extensions as a user writes them: fibers out of code order, a fiber
# named twice, and a component with no fibers
echo '{"node": "extended", "base": {"node": "tconorm", "kind": "lukasiewicz"}, "projection": {"kind": "quantize", "levels": 3}, "extended_components": [0], "contaminated": [[[2, 1], [0, 0], [2, 1]]]}' > in/extended-q3.json
echo '{"node": "extended", "base": {"node": "coord", "in_arity": 2, "indices": [0, 1]}, "projection": {"kind": "threshold", "alpha": 0.5}, "extended_components": [0, 1], "contaminated": [[], [[1, 0], [0, 1], [1, 0]]]}' > in/extended-coord.json

# -- malformed input documents: one fault each ----------------------------
echo '{"node": "coord", "in_arity": 2}' > in/bad-missing.json
echo '{"node": "affine", "matrix": [0.5, 0.5], "bias": [0.0]}' > in/bad-flat-matrix.json
echo '{"node": "compose", "outer": {"node": "tnorm", "kind": "median"}, "inner": {"node": "coord", "in_arity": 1, "indices": [0, 0]}}' > in/bad-nested.json
echo '{"node": "piecewise", "regions": [{"conditions": [], "expr": {"node": "const", "in_arity": 1, "values": [1.0]}, "exp": null}], "default": {"node": "const", "in_arity": 1, "values": [0.4]}}' > in/bad-region-key.json
echo '{"node": "output_mod", "base": {"node": "tnorm", "kind": "min"}, "projection": 0.5, "fallback": null}' > in/bad-projection.json
echo '{"node": "mlp", "in_arity": 2, "out_arity": 1}' > in/bad-mlp.json
echo '{"node": "piecewise", "regions": [{"conditions": [{"index": 0, "op": "lt"}], "expr": {"node": "const", "in_arity": 1, "values": [1.0]}}], "default": {"node": "const", "in_arity": 1, "values": [0.4]}}' > in/bad-condition.json
echo '{"node": "affine", "matrix": [[1e308, 1e308, -1e308, -1e308]], "bias": [0.25]}' > in/bad-overflow.json
echo '{"node": "extended", "base": {"node": "tconorm", "kind": "lukasiewicz"}, "projection": {"kind": "threshold", "alpha": 0.5}, "extended_components": [0], "contaminated": [[[[0, 1]], [[1, 0]]]]}' > in/bad-fibers.json
echo '{"node": "mlp", "model": {"layers": [{"weights": [[1e308, 1e308, -1e308, -1e308]], "bias": [0.25]}]}}' > in/bad-mlp-overflow.json

# -- experiments: report.json, report.txt, model.json and the CSVs ------
for setting in xor fuzzy-or; do
    run "experiment-$setting" experiment --setting "$setting" --seed 1 --train-size 64 \
        --val-size 32 --test-size 64 --epochs 5 --format structured --outdir "exp-$setting"
    run "experiment-$setting-text" experiment --setting "$setting" --seed 2 --train-size 48 \
        --val-size 16 --test-size 48 --epochs 3 --outdir "exp-$setting-text"
    # at the sizes the benchmark trains
    run "experiment-$setting-default" experiment --setting "$setting" --seed 0 \
        --format structured --outdir "exp-$setting-default"
done
# a last batch shorter than the others (1 000 training points, 13 a batch)
run experiment-xor-ragged experiment --setting xor --seed 0 --batch-size 13 \
    --format structured --outdir exp-xor-ragged
# the seeds a change to training is compared on: xor 0-2, fuzzy-or 0-7,
# at the default sizes (seed 0 of each is above)
for seed in 1 2; do
    run "experiment-xor-seed$seed" experiment --setting xor --seed "$seed" \
        --format structured --outdir "exp-xor-seed$seed"
done
for seed in 1 2 3 4 5 6 7; do
    run "experiment-fuzzy-or-seed$seed" experiment --setting fuzzy-or --seed "$seed" \
        --format structured --outdir "exp-fuzzy-or-seed$seed"
done

# -- expressions written back: a coherent one is written as it is read ---
for node in const coord tnorm lifted; do
    run "repair-$node" repair --expr "in/$node.json" --gamma extend --grid 5 \
        --out-expr "repair-$node.json" --format structured
done
run repair-luk-or-extend repair --expr in/luk-or.json --gamma extend --grid 11 \
    --out-expr repair-luk-or-extend.json --format structured
run repair-luk-or-output-mod repair --expr in/luk-or.json --gamma output-mod --grid 11 \
    --out-expr repair-luk-or-output-mod.json
run repair-luk-or-fallback repair --expr in/luk-or.json --gamma output-mod:in/canonical.json \
    --grid 11 --out-expr repair-luk-or-fallback.json --format structured
run repair-affine repair --expr in/affine.json --gamma extend --quantize 3 --grid 7 \
    --out-expr repair-affine.json --format structured
run repair-norms4 repair --expr in/norms4.json --gamma extend --quantize 4 --random 2000 \
    --seed 3 --out-expr repair-norms4.json --format structured
run repair-step repair --expr in/step.json --gamma output-mod --grid 21 \
    --out-expr repair-step.json --format structured
run repair-mlp repair --expr exp-fuzzy-or/model.json --gamma extend --grid 21 \
    --out-expr repair-mlp.json --format structured
run repair-mlp-text repair --expr exp-xor/model.json --gamma output-mod --grid 21 \
    --out-expr repair-mlp-text.json
# written back in canonical order, duplicates and empty sets kept
for ext in extended-q3 extended-coord; do
    run "repair-$ext" repair --expr "in/$ext.json" --gamma output-mod --grid 5 \
        --out-expr "repair-$ext.json"
done
# refused: the constant fallback disagrees with the projected baseline
run repair-refused repair --expr in/luk-or.json --gamma output-mod:in/one.json \
    --out-expr repair-refused.json
run stray-key check --expr in/stray.json
for bad in missing flat-matrix nested region-key projection mlp condition overflow fibers \
    mlp-overflow; do
    run "bad-$bad" check --expr "in/bad-$bad.json"
done
for mlp in both ref; do
    run "check-mlp-$mlp" check --expr "in/mlp-$mlp.json" --grid 11 --format structured
done

# -- coherence reports ---------------------------------------------------
run check-luk-or check --expr in/luk-or.json --grid 11 --witness-limit 3 --format structured
run check-luk-or-text check --expr in/luk-or.json --grid 11
run check-affine check --expr in/affine.json --quantize 3 --random 500 --seed 2 \
    --format structured --out check-affine.json
run check-affine-normalised check --expr in/affine-normalised.json --grid 3
run check-extended check --expr repair-norms4.json --quantize 4 --random 2000 --seed 3 \
    --format structured
run check-mlp check --expr exp-xor/model.json --grid 33 --witness-limit 2 --format structured
# random samples of several 8 192-point slices, with a ragged last one:
# the table path (9 fibers, 2 components), the per-point path (64**4
# fibers), and a domain extension's scan and verification
run check-affine-slices check --expr in/affine.json --quantize 3 --random 20001 --seed 5 \
    --witness-limit 5 --format structured
run check-norms4-slices check --expr in/norms4.json --quantize 64 --random 20001 --seed 5 \
    --witness-limit 5 --format structured
run repair-norms4-slices repair --expr in/norms4.json --gamma extend --quantize 4 \
    --random 20001 --seed 5 --out-expr repair-norms4-slices.json --format structured

# -- explanations --------------------------------------------------------
run explain-luk-or explain --expr in/luk-or.json --format structured
run explain-extend explain --expr in/luk-or.json --gamma extend --grid 11 --names a,b,c \
    --format structured
run explain-fallback explain --expr in/luk-or.json --gamma output-mod:in/canonical.json \
    --grid 11 --ascii --no-simplify --format structured
run explain-mlp explain --expr exp-fuzzy-or/model.json --gamma extend --grid 21
run explain-affine explain --expr in/affine.json --names p,q --ascii

# -- non-compositionality demos and the functor law ------------------------
run demo-witness demo-noncomp --format structured
run demo-extend demo-noncomp --gamma extend --format structured
run demo-fallback demo-noncomp --gamma output-mod:in/low.json --format structured
run demo-coherent demo-noncomp --g-expr in/step.json --format structured
run demo-text demo-noncomp
run law-violated functor-law --inner in/step.json --outer in/jump.json --format structured
run law-holds functor-law --inner in/canonical.json --outer in/step.json --format structured \
    --out law-holds.json
run law-text functor-law --inner in/step.json --outer in/jump.json
run law-coord12 functor-law --inner in/coord12.json --outer in/coord3.json --format structured
run law-coord12-text functor-law --inner in/coord12.json --outer in/coord3.json
