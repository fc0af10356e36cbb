"""One repetition of one workload, in its own process.

Usage: ``python3 perfbench/child.py <job.json>`` (started by ``run.py``).

The job file names the workload, its input seed, the ``src`` directory to
import ``densagg`` from, the output directory, whether to trace, and the
parent's ``time.monotonic()`` just before it started this process.  The child
generates the inputs, makes the timed call once, writes the outputs and a
``result.json``, and exits with the program's exit code.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    out = Path(job["out"])
    sys.path.insert(0, job["src"])
    import workloads
    from tracer import Tracer, installed_wrappers, summarize

    prepared = workloads.prepare(job["workload"], job["input_seed"], out)
    tracer = Tracer() if job["trace"] else None
    setup_s = time.monotonic() - job["spawned"]

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    if tracer:
        tracer.install()
    try:
        code = prepared.run()
    finally:
        if tracer:
            tracer.uninstall()
    wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    prepared.save()

    result = {
        "exit_code": code,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "setup_s": setup_s,
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "work": prepared.work,
        "versions": _versions(),
    }
    if tracer:
        result["per_layer"], result["covered_s"] = summarize(tracer.spans)
        result["wrappers_left"] = installed_wrappers()
        with open(out / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
