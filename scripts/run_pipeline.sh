#!/usr/bin/env bash
# End-to-end smoke pipeline: synth -> augment -> index -> train -> eval ->
# compare -> bench. Every stage writes its outputs and a run manifest under
# $OUT (default ./out/pipeline). Exits non-zero if any stage fails.
set -euo pipefail

# This checkout's own package comes first, so the pinned hashes test its code.
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

OUT="${1:-out/pipeline}"
PY="${PYTHON:-python3}"
mkdir -p "$OUT"

$PY -m nlsql synth --out-dir "$OUT" --n-tables 4 --rows 6 --questions 6 --seed 13

$PY -m nlsql validate --data "$OUT/corpus.jsonl" --tables "$OUT/tables.jsonl"

$PY -m nlsql augment --data "$OUT/corpus.jsonl" --tables "$OUT/tables.jsonl" \
    --out "$OUT/augmented.jsonl" --mix-ratio 0.5 --seed 13 --out-dir "$OUT"

$PY -m nlsql index --tables "$OUT/tables.jsonl"

$PY -m nlsql train --data "$OUT/augmented.jsonl" --tables "$OUT/tables.jsonl" \
    --out "$OUT/model.ckpt" --epochs 3 --batch-size 8 --d-model 32 --layers 1 \
    --heads 2 --strategy rand:2 --budget 256 --seed 13 --out-dir "$OUT"

$PY -m nlsql eval --data "$OUT/corpus.jsonl" --tables "$OUT/tables.jsonl" \
    --ckpt "$OUT/model.ckpt" --strategy rand:2 --budget 256 \
    --out "$OUT/eval.json" --seed 13 --out-dir "$OUT"

$PY -m nlsql compare --data "$OUT/corpus.jsonl" --tables "$OUT/tables.jsonl" \
    --ckpt "$OUT/model.ckpt" --strategies "none,rand:2,rel:2,em1:1" \
    --budget 256 --out "$OUT/comparison.json" --seed 13 --out-dir "$OUT"

$PY -m nlsql bench --strategy rel:3 --rows 500,2000 --queries 20 \
    --out "$OUT/bench.json" --seed 13 --out-dir "$OUT"

echo "pipeline complete: $OUT"

# Fixed-seed outputs: equal hashes before and after a refactor mean it kept
# augmentation, training, evaluation and comparison byte-identical. They are
# printed in sha256sum's format; scripts/pipeline.sha256 pins them, so
#   (cd OUT && sha256sum -c /path/to/scripts/pipeline.sha256)
# verifies a run.
(cd "$OUT" && $PY -c 'import hashlib, sys
for p in sys.argv[1:]:
    print(hashlib.sha256(open(p, "rb").read()).hexdigest(), p, sep="  ")' \
    augmented.jsonl model.ckpt model.history.json eval.json \
    eval.predictions.jsonl comparison.json)
