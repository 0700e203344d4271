"""Command-line entry point for the convergence-study harness.

One table, `_KEYS`, names every setting: its flag and config-file key, its
ExperimentConfig field (which is also the flag's dest), the cast of its text
and its help; nothing else in this module lists a setting.  A flat
key=value config file can seed any of them, with command-line values taking
precedence; in it a '#' at the start of a line or after whitespace starts a
comment, and any other '#' belongs to its value.  The parser only collects
text; each value is cast here, with its key named when the cast fails, and
checked by ExperimentConfig, which holds the allowed values and fills the
study defaults.  So a bad value reads the same from a flag and from the
file.  Exit status is 0 on success and 1 with one `rstokes: error:` line on
a bad setting or a failed grid point; argparse itself exits 2 on an unknown
flag or a flag without its value.
"""

from __future__ import annotations

import argparse
import re
import sys

from .harness import ExperimentConfig, emit_report, run_experiment


def _list_of(cast):
    """Cast of a comma- or space-separated list to a nonempty tuple."""

    def parse(text: str) -> tuple:
        values = tuple(cast(tok) for tok in text.replace(",", " ").split())
        if not values:
            raise ValueError(f"expected at least one value, got {text!r}")
        return values

    return parse


# config-file key (and flag name) -> (ExperimentConfig field, which is also
# the flag's argparse dest, cast of its text, flag help), in the order the
# settings are read
_KEYS = {
    "example": ("example", str, None),
    "scheme": ("scheme", str, None),
    "study": ("study", str, None),
    "projection": ("projection", str, None),
    "out": ("out", str, "output path; omitted prints the report to stdout"),
    "format": ("fmt", str, None),
    "gamma": ("gamma", float, None),
    "oracle-tol": ("oracle_tol", float, None),
    "alpha": ("alphas", _list_of(float), "comma/space separated list, e.g. 0.1,0.5,0.9"),
    "k": ("ks", _list_of(int), "mesh exponents, K = 2^k"),
    "K": ("Ks", _list_of(int), "explicit subdivision counts (misaligned grids)"),
    "N": ("Ns", _list_of(int), "step counts"),
    "t": ("ts", _list_of(float), "observation times"),
}


def read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            # a comment starts at a '#' that opens the line or follows
            # whitespace, so a value such as res#1.csv keeps its '#'
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _KEYS:
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
    for key, (field, _, text) in _KEYS.items():
        p.add_argument(f"--{key}", dest=field, help=text)
    return p


def _merged_settings(args: argparse.Namespace) -> dict:
    file_vals = read_config_file(args.config) if args.config else {}
    settings: dict = {}
    for key, (field, cast, _) in _KEYS.items():
        val = getattr(args, field)
        if val is None:
            val = file_vals.get(key)
        if val is not None:
            try:
                settings[field] = cast(val)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from exc
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
