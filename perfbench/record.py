"""Record the rows the benchmark's correctness gate compares against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every study of the named workloads (default: all) once, untraced, and
stores its CSV report as expected/<study id>.csv.  Re-recording redefines
the gate, so it belongs only in a change that redefines the benchmark.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(names: list[str]) -> int:
    build_dir = run.ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-record-", dir=build_dir))
    try:
        for name in names or list(workloads.WORKLOADS):
            for study in workloads.WORKLOADS[name]:
                out = workdir / f"{study.id}.csv"
                child = run.run_child(["--", *study.argv, "--out", str(out), "--format", "csv"], workdir, study.id)
                if child["code"] != 0:
                    print(f"{study.id} failed: {child['stderr'].strip()[-500:]}", file=sys.stderr)
                    return 1
                shutil.copyfile(out, run.EXPECTED / f"{study.id}.csv")
                print(f"{name}/{study.id}: {child['wall_s']:.2f} s, {child['rss_mb']:.1f} MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
