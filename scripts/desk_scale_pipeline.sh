#!/bin/sh
# Desk-scale demo of the whole pipeline on a (64,32) code under SCL-4.
# Finishes in a few minutes on a laptop; artifacts land in runs/desk/.
# Monte Carlo stages use POLARLAB_THREADS workers, by default one per
# online CPU; outputs are the same at any count.
set -eu

OUT=${1:-runs/desk}
THREADS=${POLARLAB_THREADS:-$(getconf _NPROCESSORS_ONLN)}
mkdir -p "$OUT"

polarlab construct --n 64 --k 32 --ebn0 3.2 --out "$OUT/mask.txt"

polarlab simulate --mask "$OUT/mask.txt" --ebn0 0.8:6.0:0.4 \
    --list-size 4 --target-errors 100 --max-frames 400000 \
    --threads "$THREADS" --out "$OUT/baseline"

polarlab dataset --n 64 --k 32 --ebn0 3.2 --design-ebn0 3.2 \
    --range-r 7 --count-d 620 --list-size 4 --target-errors 50 \
    --max-frames 100000 --threads "$THREADS" --seed 5 \
    --out "$OUT/dataset.txt"

polarlab train --dataset "$OUT/dataset.txt" --epochs 300 \
    --hidden 128 --depth 3 --gap 3 --seed 1 --out "$OUT/model.txt"

polarlab eval --model "$OUT/model.txt" --dataset "$OUT/dataset.txt"

polarlab search --model "$OUT/model.txt" --dataset "$OUT/dataset.txt" \
    --iters 5000 --mu 0.1 --restarts 32 --topk 4 --target-errors 300 \
    --max-frames 600000 --threads "$THREADS" --seed 9 \
    --out "$OUT/candidates.txt"

echo "artifacts in $OUT"
