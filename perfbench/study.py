"""Child process of the benchmark: one cold rstokes study, or a set-up probe.

    python3 perfbench/study.py -- <rstokes argv>                  untraced study
    python3 perfbench/study.py --trace-out F -- <rstokes argv>    traced study, spans dumped to F
    python3 perfbench/study.py --setup                            import rstokes.cli, build its parser
    python3 perfbench/study.py --provenance                       print library provenance as JSON

The untraced path imports nothing but rstokes.cli, so the timed process is
the `rstokes` command itself.  The parent puts the checkout's src/ on
PYTHONPATH.
"""

from __future__ import annotations

import sys


def run(argv: list[str], trace_out: str | None = None) -> int:
    from rstokes.cli import main

    if trace_out is None:
        return main(argv)
    import spans

    rec = spans.Recorder()
    rec.install()
    try:
        code = rec.call(spans.ROOT_SPAN, main, argv)
    finally:
        rec.restore()
    rec.dump(trace_out)
    return code


def _openblas_threads() -> int | None:
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import os
    import platform

    import numpy
    import scipy

    import rstokes.cli

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "rstokes_file": os.path.abspath(rstokes.cli.__file__),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def main(argv: list[str]) -> int:
    if argv == ["--setup"]:
        import rstokes.cli

        rstokes.cli.build_parser()
        return 0
    if argv == ["--provenance"]:
        import json

        print(json.dumps(provenance()))
        return 0
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: study.py [--trace-out FILE] -- <rstokes argv> | --setup | --provenance", file=sys.stderr)
        return 2
    return run(argv[1:], trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
