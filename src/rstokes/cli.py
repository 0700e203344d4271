"""Command-line entry point for the convergence-study harness.

Flags mirror the ExperimentConfig fields; a flat key=value config file can
seed any of them, with command-line values taking precedence.  Exit status is
0 on success and 1 with a diagnostic on any failed grid point.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ExperimentConfig, emit_report, run_experiment

_LIST_KEYS = {"alpha", "k", "K", "N", "t"}
_VALID_KEYS = _LIST_KEYS | {
    "example",
    "scheme",
    "study",
    "gamma",
    "projection",
    "include-history-origin",
    "oracle-tol",
    "out",
    "format",
}


def _split(text: str) -> list[str]:
    return [tok for tok in text.replace(",", " ").split() if tok]


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _VALID_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            values[key] = val
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rstokes",
        description="Convergence-rate studies for the fractional Rayleigh-Stokes solver.",
    )
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--example", choices=["a", "b", "c", "d"])
    p.add_argument("--scheme", choices=["be", "sbd"])
    p.add_argument("--study", choices=["temporal", "spatial", "blowup"])
    p.add_argument("--alpha", help="comma/space separated list, e.g. 0.1,0.5,0.9")
    p.add_argument("--gamma", type=float)
    p.add_argument("--k", help="mesh exponents, K = 2^k")
    p.add_argument("--K", help="explicit subdivision counts (misaligned grids)")
    p.add_argument("--N", help="step counts")
    p.add_argument("--t", help="observation times")
    p.add_argument("--projection", choices=["l2", "ritz"])
    p.add_argument("--include-history-origin", dest="include_history_origin", choices=["true", "false"])
    p.add_argument("--oracle-tol", dest="oracle_tol", type=float)
    p.add_argument("--out", help="output path; omitted prints a text report to stdout")
    p.add_argument("--format", dest="fmt", choices=["csv", "text"])
    return p


def _merged_settings(args: argparse.Namespace) -> dict:
    file_vals = read_config_file(args.config) if args.config else {}

    def get(flag: str, key: str):
        cli_val = getattr(args, flag)
        return cli_val if cli_val is not None else file_vals.get(key)

    settings: dict = {}
    for flag, key in (("example", "example"), ("scheme", "scheme"), ("study", "study"),
                      ("projection", "projection"), ("out", "out"), ("fmt", "format")):
        val = get(flag, key)
        if val is not None:
            settings[flag] = val
    for flag, key in (("gamma", "gamma"), ("oracle_tol", "oracle-tol")):
        val = get(flag, key)
        if val is not None:
            settings[flag] = float(val)
    hist = get("include_history_origin", "include-history-origin")
    if hist is not None:
        settings["include_history_origin"] = _parse_bool(hist)
    lists = {"alpha": ("alphas", float), "k": ("ks", int), "K": ("Ks", int), "N": ("Ns", int), "t": ("ts", float)}
    for flag, (dest, cast) in lists.items():
        val = get(flag, flag)
        if val is not None:
            settings[dest] = tuple(cast(tok) for tok in _split(val))
    return settings


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _merged_settings(args)
        if "example" not in settings:
            raise ValueError("an example must be given (--example or config file)")
        cfg = ExperimentConfig(**settings)
        report = run_experiment(cfg)
        text = emit_report(report)
        if cfg.out:
            print(f"wrote {len(report.rows)} rows to {cfg.out}")
        else:
            sys.stdout.write(text)
        return 0
    except Exception as exc:
        print(f"rstokes: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
