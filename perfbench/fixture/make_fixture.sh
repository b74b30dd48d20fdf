#!/usr/bin/env bash
# Trains the checkpoint that the restore workloads load, with the turbdiff CLI
# at fixed seeds and flags, and keeps only its student weights.
#
#   bash perfbench/fixture/make_fixture.sh WORKDIR     (from the repo root)
#
# WORKDIR receives the corpus and the full checkpoints; the stripped student
# goes to perfbench/fixture/restore.ckpt.  Put the printed sha256 into
# FIXTURE_SHA256 in perfbench/workloads.py.  With OpenBLAS at its default
# threads this took 17 minutes on a 2-vCPU Xeon VM.
set -euo pipefail
work=${1:?usage: make_fixture.sh WORKDIR}
export PYTHONPATH=src
td="python3 -m turbdiff.cli"

$td gen-data --out "$work/data" --count 2048 --seed 7
$td train --stage weak --data "$work/data" --out "$work/weak.ckpt" \
    --steps 2500 --batch-size 8 --lr 3e-4 --seed 1
$td train --stage strong --data "$work/data" --teacher "$work/weak.ckpt" \
    --out "$work/strong.ckpt" --steps 2500 --batch-size 8 --lr 3e-4 --seed 2
python3 - "$work/strong.ckpt" perfbench/fixture/restore.ckpt <<'PY'
import sys
from turbdiff.formats import load_checkpoint, save_checkpoint
ckpt = load_checkpoint(sys.argv[1])
save_checkpoint(sys.argv[2], ckpt.student, meta=ckpt.meta)
PY
sha256sum perfbench/fixture/restore.ckpt
