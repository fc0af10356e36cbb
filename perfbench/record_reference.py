"""Record the reference outputs that ``run.py`` compares every repetition with.

Usage (from the repository root)::

    python3 perfbench/record_reference.py [workload ...]

Runs each named workload (default: all) once per input seed, untraced, and
writes the numeric outputs to ``perfbench/reference/<workload>.json.gz``.
Recording refuses outputs whose pass flags are false.  Re-record only on
purpose: the stored numbers define ``result_dev = 0``.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

import run
import workloads


def record(name: str) -> None:
    seeds = sorted({workloads.input_seed(name, s) for s in range(workloads.VARIANTS)})
    outputs = {}
    work = run.WORK / "record" / name
    shutil.rmtree(work, ignore_errors=True)
    for seed in seeds:
        out = work / f"seed-{seed}"
        rep = run.run_child(name, seed, False, out, run.REP_TIMEOUT_S)
        if rep["problems"]:
            raise SystemExit(f"{name} seed {seed}: {rep['problems']}")
        numbers, flags = workloads.output_numbers(name, out)
        failed = [label for label, ok in flags if not ok]
        if failed:
            raise SystemExit(f"{name} seed {seed}: failed flags {failed}")
        outputs[str(seed)] = numbers
        print(f"{name} seed {seed}: {len(numbers)} numbers, {rep['wall_s']:.2f} s", flush=True)
    run.REFERENCE.mkdir(exist_ok=True)
    with open(run.REFERENCE / f"{name}.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write((json.dumps(outputs, separators=(",", ":")) + "\n").encode())
    shutil.rmtree(work)


if __name__ == "__main__":
    for workload in sys.argv[1:] or workloads.NAMES:
        record(workload)
