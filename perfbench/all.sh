#!/bin/sh
# Run every workload once, untraced, and print its end-to-end metrics.
#   sh perfbench/all.sh [seed] [seconds]
for w in train_arith sweep_eval gsot_long; do
    python3 perfbench/run.py --workload "$w" --seed "${1:-1}" \
        --seconds "${2:-30}" --trace 0 || exit 1
done
