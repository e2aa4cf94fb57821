"""Batch driver: parse a problem file, run solve/refine/selfcheck, emit CSVs.

Config files are TOML:

    [domain]
    lo = [0.0]
    hi = [1.0]
    cells = [10]

    [system]
    n = 1
    K = 1
    m = 1
    equations = ["D(u1,(1))"]
    rhs = ["x1"]

    [solve]
    epsilon = 0.1
    refine_steps = 10
    samples_per_cell = 100
    margin = 0.05
    seed = 42
    eta = 1e-9

Numbers are written as TOML writes them (``0.5``, not ``.5``), and an
array may span lines.  A section or key not shown above is a config
error, and so is a key set twice, also across a repeated section header;
a repeated header alone is a TOML error.  Both commands require every
key above except the last five, which have defaults, but each reads only
its own: ``solve`` never reads ``refine_steps``, and ``refine`` never
reads ``epsilon`` (its bands are 1, 1/2, ..., 1/refine_steps).  Exit
codes: 0 success, 2 config error (also a file that cannot be read as
UTF-8, a grid of more than ``MAX_SUBCELLS`` cells, a ``samples_per_cell``
above ``CHUNK`` = 65,536, and an operator whose equations cannot be
given distinct pivot slots), 3 range-condition violation or jet-solve
non-convergence, 4 a plan that would split a cell below the
subcell-width floor, 5 certificate or self-check failure.  All
randomness comes from the seed; the env var ``OCM_THREADS`` caps the
number of threads that run the chunks of planning and of the certificate
(default: machine parallelism) and never changes any output byte.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import filters as flt
from .approx import (CHUNK, DEFAULT_ETA, DEFAULT_MARGIN, DeltaCollapse, RangeViolation,
                     certificate_csv_rows, default_pivots, global_approx, rhs_from_exprs)
from .baire import make_lattice
from .domain import Box, build_partition
from .expr import ParseError, parse_system
from .order import refine_solution, trace_csv_rows

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "RunReport",
    "load_config",
    "run_solve",
    "run_refine",
    "run_selfcheck",
    "main",
    "console_main",
    "worker_count",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RANGE = 3
EXIT_DELTA = 4
EXIT_FAIL = 5

REFINE_LATTICE_PER_AXIS = 64


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")


def worker_count() -> int:
    """Worker cap from OCM_THREADS; defaults to the machine's parallelism."""
    raw = os.environ.get("OCM_THREADS", "").strip()
    cpus = os.cpu_count() or 1
    if not raw:
        return cpus
    try:
        cap = int(raw)
    except ValueError as e:
        raise ConfigError(f"OCM_THREADS must be an integer, got {raw!r}") from e
    if cap < 1:
        raise ConfigError("OCM_THREADS must be >= 1")
    return min(cap, cpus)


# ---------------------------------------------------------------------------
# config parsing

_KINDS = {float: "a finite number", int: "an integer", str: "a string"}


def _read(value, kind):
    """A TOML value as kind, one of _KINDS, or as a tuple of them when kind
    is one in a tuple, ``(float,)`` say, for an array."""
    if isinstance(kind, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"expected an array, got {value!r}")
        return tuple(_read(v, kind[0]) for v in value)
    # type(), not isinstance, since a TOML bool is an int; the bound also
    # refuses inf, nan and an integer too large for a float
    number = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if not (type(value) is str if kind is str else number and (kind is float or value % 1 == 0)):
        raise ConfigError(f"expected {_KINDS[kind]}, got {value!r}")
    return kind(value)


# the keys each section may hold, each with the kind _read reads it as;
# every key is a ProblemConfig field, and one with no default there is required
_SECTIONS = {
    "domain": {"lo": (float,), "hi": (float,), "cells": (int,)},
    "system": {"n": int, "K": int, "m": int, "equations": (str,), "rhs": (str,)},
    "solve": {"epsilon": float, "refine_steps": int, "samples_per_cell": int,
              "margin": float, "seed": int, "eta": float},
}

# a section header, [[array]] headers too, and a bare key being set
_HEADER = re.compile(r"\s*\[+([^\]]*)\]")
_KEY = re.compile(r"\s*([A-Za-z0-9_-]+)\s*=")
_TOML_AT = re.compile(r"(.*) \(at line (\d+), column (\d+)\)", re.S)


def _parse_config_text(text: str) -> dict[str, dict[str, object]]:
    """The sections of a TOML config, each holding only its own keys.

    A scan of header and bare ``key =`` lines finds the line of each, and
    names a key set twice, also across a repeated header, which TOML would
    report as a repeated header only."""
    lines: dict[tuple, int] = {}  # (section,) or (section, key) -> its first line
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if header := _HEADER.match(line):
            current = header[1].strip()
            lines.setdefault((current,), lineno)
        elif (key := _KEY.match(line)) and current is not None:
            first = lines.setdefault((current, key[1]), lineno)
            if first != lineno:
                raise ConfigError(f"key {key[1]!r} in [{current}] repeats line {first}", lineno)
    try:
        sections = tomllib.loads(text)
    except tomllib.TOMLDecodeError as e:
        at = _TOML_AT.fullmatch(str(e))
        raise (ConfigError(f"{at[1]} at column {at[3]}", int(at[2])) if at
               else ConfigError(str(e))) from e
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"top-level key {name!r} is not a [section]", lines.get((name,)))
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]", lines.get((name,)))
        for key in section:
            if key not in _SECTIONS[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]", lines.get((name, key)))
    return sections


@dataclass
class ProblemConfig:
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]
    n: int
    K: int
    m: int
    equations: tuple[str, ...]
    rhs: tuple[str, ...]
    epsilon: float
    refine_steps: int = 1
    samples_per_cell: int = 100
    margin: float = DEFAULT_MARGIN
    seed: int = 0
    eta: float = DEFAULT_ETA
    # the file as load_config read it, which report.txt echoes
    text: str = field(default="", compare=False, repr=False)


def load_config(path) -> ProblemConfig:
    """Read and check a problem file; the module docstring gives its format."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:  # also a directory, or bytes not UTF-8
        raise ConfigError(str(e)) from e
    sections = _parse_config_text(text)
    fields = {}
    for name, kinds in _SECTIONS.items():
        if name not in sections:
            raise ConfigError(f"missing section [{name}]")
        for key, kind in kinds.items():
            if key in sections[name]:
                fields[key] = _read(sections[name][key], kind)
            elif not hasattr(ProblemConfig, key):  # a field with no default
                raise ConfigError(f"missing key {key!r} in [{name}]")
    cfg = ProblemConfig(**fields, text=text)
    if len(cfg.lo) != cfg.n or len(cfg.hi) != cfg.n or len(cfg.cells) != cfg.n:
        raise ConfigError("lo, hi and cells must each have n entries")
    if len(cfg.equations) != cfg.K or len(cfg.rhs) != cfg.K:
        raise ConfigError("need exactly K equation strings and K rhs strings")
    if cfg.epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    if cfg.refine_steps < 1:
        raise ConfigError("refine_steps must be >= 1")
    if not (0.0 < cfg.margin < 0.5):
        raise ConfigError("margin must be in (0, 0.5)")
    if not 1 <= cfg.samples_per_cell <= CHUNK:  # so no certificate chunk holds more samples
        raise ConfigError(f"samples_per_cell must be in [1, {CHUNK:,}]")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.eta < 0:
        raise ConfigError("eta must be >= 0")
    return cfg


def _build_problem(cfg: ProblemConfig):
    try:
        system = parse_system("\n".join(cfg.equations), cfg.n, cfg.K, cfg.m)
        rhs = rhs_from_exprs(cfg.rhs, cfg.n)
        box = Box(cfg.lo, cfg.hi)
        partition = build_partition(box, cfg.cells)
        default_pivots(system)
    except ParseError as e:
        raise ConfigError(f"bad expression: {e}") from e
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return system, rhs, box, partition


# ---------------------------------------------------------------------------
# reports

@dataclass
class RunReport:
    command: str
    config_text: str
    verdict: str
    exit_code: int
    wall_time: float
    rows: list[str] = field(default_factory=list)
    certificate: object | None = None
    trace: object | None = None


def _write(path: Path, rows: list[str]) -> None:
    path.write_text("\n".join(rows) + "\n", newline="\n")


def _write_report(out_dir: Path, report: RunReport, cells: list[str] | None = None) -> None:
    lines = [
        f"command: {report.command}",
        f"verdict: {report.verdict}",
        f"exit_code: {report.exit_code}",
        f"wall_time_s: {report.wall_time:.3f}",
        "config:",
    ]
    lines += ["  " + l for l in report.config_text.splitlines()]
    if cells:
        lines += ["cells:"] + ["  " + c for c in cells]
    lines += ["rows:"] + ["  " + r for r in report.rows]
    _write(out_dir / "report.txt", lines)


def _cell_lines(partition) -> list[str]:
    """One line per cell: its corners and its planned split count per axis."""
    out = []
    for i in range(partition.n_cells):
        box = partition.cell_box(i)
        out.append(f"{box.lo} {box.hi} splits {tuple(partition.splits[i].tolist())}")
    return out


def _run(command: str, config_path, out_dir, construct) -> RunReport:
    """Load and build the problem and make the output directory, then write
    what construct(cfg, system, rhs, box, partition, workers) returns: the
    CSV's name and rows, the verdict, the report's certificate or trace, and
    the planned partition, whose cells and split counts the report lists.
    An output directory that cannot be made is a ConfigError, raised before
    anything is constructed."""
    t0 = time.perf_counter()
    cfg = load_config(config_path)
    system, rhs, box, partition = _build_problem(cfg)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make the --out directory {str(out)!r}: {e.strerror or e}") from e
    name, rows, ok, evidence, planned = construct(cfg, system, rhs, box, partition,
                                                  worker_count())
    _write(out / name, rows)
    report = RunReport(
        command=command, config_text=cfg.text, verdict="pass" if ok else "fail",
        exit_code=EXIT_OK if ok else EXIT_FAIL, wall_time=time.perf_counter() - t0,
        rows=rows, **evidence,
    )
    _write_report(out, report, cells=_cell_lines(planned))
    return report


def run_solve(config_path, out_dir) -> RunReport:
    """One certified construction at the configured band width."""
    def construct(cfg, system, rhs, box, partition, workers):
        U, cert = global_approx(
            system, rhs, partition, cfg.epsilon,
            eta=cfg.eta, samples_per_cell=cfg.samples_per_cell,
            margin=cfg.margin, seed=cfg.seed, workers=workers,
        )
        return ("certificate.csv", certificate_csv_rows(cert), cert.passed,
                {"certificate": cert}, U.partition)

    return _run("solve", config_path, out_dir, construct)


def run_refine(config_path, out_dir) -> RunReport:
    """Banded refinement for eps = 1, 1/2, ..., 1/refine_steps."""
    def construct(cfg, system, rhs, box, partition, workers):
        trace = refine_solution(
            system, rhs, partition, cfg.refine_steps, make_lattice(box, REFINE_LATTICE_PER_AXIS),
            eta=cfg.eta, seed=cfg.seed, samples_per_cell=cfg.samples_per_cell,
            margin=cfg.margin, workers=workers,
        )
        ok = trace.all_certified and trace.total_repairs == 0
        return ("trace.csv", trace_csv_rows(trace), ok, {"trace": trace},
                trace.steps[-1].approximant.partition)

    return _run("refine", config_path, out_dir, construct)


# ---------------------------------------------------------------------------
# self-check of the finite convergence-space machinery

def _default_selfcheck_instances():
    two = frozenset(("a", "b"))
    three = frozenset(("a", "b", "c"))
    instances = [
        ("discrete-convergence-2", "convergence", flt.discrete_convergence(two)),
        ("indiscrete-convergence-2", "convergence", flt.indiscrete_convergence(two)),
        ("discrete-convergence-3", "convergence", flt.discrete_convergence(three)),
        ("discrete-ucs-2", "ucs", flt.discrete_ucs(two)),
        ("indiscrete-ucs-2", "ucs", flt.indiscrete_ucs(two)),
        ("discrete-ucs-3", "ucs", flt.discrete_ucs(three)),
    ]
    rng = np.random.default_rng(2024)
    elems = sorted(three)
    for k in range(6):
        pairs = [
            (elems[int(a)], elems[int(b)])
            for a, b in rng.integers(0, len(elems), size=(3, 2))
        ]
        instances.append(
            (f"closed-ucs-{k}", "ucs", flt.close_to_ucs(three, [frozenset(pairs)]))
        )
    return instances


def _witness_text(w) -> str:
    """repr of a checker witness (a point, a set, or a pair or triple of
    them) with every set's members sorted, so no row follows string hashing."""
    if isinstance(w, frozenset):
        return "frozenset({" + ", ".join(sorted(map(_witness_text, w))) + "})"
    if isinstance(w, tuple):
        return "(" + ", ".join(map(_witness_text, w)) + ")"
    return repr(w)


def _csv_row(*fields) -> str:
    """One CSV row, each field as RFC 4180 writes it: quoted, its double
    quotes doubled, when it holds a comma, a double quote or a line break."""
    def field(text: str) -> str:
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text
    return ",".join(field(str(f)) for f in fields)


def run_selfcheck(instances=None) -> RunReport:
    """Run the structure checkers over an instance suite and report one
    row per axiom group per instance."""
    t0 = time.perf_counter()
    if instances is None:
        instances = _default_selfcheck_instances()
    rows = ["instance,check,pass,detail"]
    all_ok = True
    for name, kind, table in instances:
        if kind == "convergence":
            res = flt.check_convergence_structure(table)
            detail = "ok" if res.ok else f"axiom ({res.failed_axiom}) witness {_witness_text(res.witness)}"
            detail += f"; hausdorff={'true' if res.hausdorff else 'false'}"
            rows.append(_csv_row(name, "convergence-axioms", "true" if res.ok else "false", detail))
            all_ok &= res.ok
        elif kind == "ucs":
            res = flt.check_uniform_convergence(table)
            detail = "ok" if res.ok else f"axiom ({res.failed_axiom}) witness {_witness_text(res.witness)}"
            rows.append(_csv_row(name, "ucs-axioms", "true" if res.ok else "false", detail))
            all_ok &= res.ok
            if res.ok:
                induced = flt.induced_convergence(table)
                res2 = flt.check_convergence_structure(induced)
                rows.append(_csv_row(
                    name, "induced-convergence", "true" if res2.ok else "false",
                    f"ok; hausdorff={'true' if res2.hausdorff else 'false'}"))
                all_ok &= res2.ok
                for x in sorted(table.ground, key=repr):
                    if not flt.is_cauchy(flt.principal(table.ground, x), table):
                        rows.append(_csv_row(name, "point-filters-cauchy", "false", f"witness {x!r}"))
                        all_ok = False
                        break
                else:
                    rows.append(_csv_row(name, "point-filters-cauchy", "true", "ok"))
        else:
            rows.append(_csv_row(name, "unknown-kind", "false", repr(kind)))
            all_ok = False
    insufficient = len(rows) == 1
    verdict = "pass" if all_ok else "fail"
    if insufficient:
        verdict = "pass (insufficient: no instances)"
    return RunReport(
        command="selfcheck", config_text="", verdict=verdict,
        exit_code=EXIT_OK if all_ok else EXIT_FAIL,
        wall_time=time.perf_counter() - t0, rows=rows,
    )


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ocm", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "refine"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
        sp.add_argument("--out", required=True)
    sub.add_parser("selfcheck")
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            report = run_solve(args.config, args.out)
        elif args.command == "refine":
            report = run_refine(args.config, args.out)
        else:
            report = run_selfcheck()
            print("\n".join(report.rows))
        print(f"{report.command}: {report.verdict} ({report.wall_time:.3f}s)")
        return report.exit_code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except RangeViolation as e:
        print(f"range violation: {e}", file=sys.stderr)
        return EXIT_RANGE
    except DeltaCollapse as e:
        print(f"delta collapse: {e}", file=sys.stderr)
        return EXIT_DELTA


def console_main() -> None:
    raise SystemExit(main())
