"""Batch driver: parse a problem file, run solve/refine/selfcheck, emit CSVs.

Config files are sectioned key-value text:

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

Values are numbers, double-quoted strings, or bracketed arrays of
either; ``#`` starts a comment.  A section or key not shown above is a
config error, and so is a key set twice, also across a repeated section
header.  Both commands require every key above except the last five,
which have defaults, but each reads only its own: ``solve`` never reads
``refine_steps``, and ``refine`` never reads ``epsilon`` (its bands are
1, 1/2, ..., 1/refine_steps).  Exit codes: 0 success, 2 config error
(also an operator whose equations cannot be given distinct pivot
slots), 3 range-condition violation or jet-solve non-convergence, 4
a plan that would split a cell below the subcell-width floor, 5
certificate or self-check failure.  All
randomness comes from the seed; the env var ``OCM_THREADS`` caps the
number of threads that run the certificate's chunks (default: machine
parallelism) and never changes any output byte.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import filters as flt
from .approx import (DEFAULT_ETA, DEFAULT_MARGIN, DeltaCollapse, RangeViolation,
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

# the keys each section may hold
_SECTIONS = {
    "domain": ("lo", "hi", "cells"),
    "system": ("n", "K", "m", "equations", "rhs"),
    "solve": ("epsilon", "refine_steps", "samples_per_cell", "margin", "seed", "eta"),
}

_NUM_RE = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?$")


def _parse_value(text: str, line: int):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError("unterminated array", line)
        inner = text[1:-1].strip()
        if not inner:
            return []
        parts, cur = [], []
        in_str = False
        for ch in inner:
            if ch == '"':
                in_str = not in_str
            if ch == "," and not in_str:
                parts.append("".join(cur))
                cur = []
                continue
            cur.append(ch)
        parts.append("".join(cur))
        return [_parse_value(p, line) for p in parts]
    if text.startswith('"'):
        if not (text.endswith('"') and len(text) >= 2):
            raise ConfigError("unterminated string", line)
        return text[1:-1]
    if _NUM_RE.match(text):
        return float(text)
    raise ConfigError(f"cannot parse value {text!r}", line)


def _parse_config_text(text: str) -> dict[str, dict[str, object]]:
    sections: dict[str, dict[str, object]] = {}
    set_on: dict[tuple[str, str], int] = {}  # (section, key) -> line that set it
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if current is None:
            raise ConfigError("key before any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        first = set_on.setdefault((current, key), lineno)
        if first != lineno:
            raise ConfigError(f"key {key!r} in [{current}] repeats line {first}", lineno)
        sections[current][key] = _parse_value(value, lineno)
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


def _require(section: dict, key: str, section_name: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in [{section_name}]")
    return section[key]


def load_config(path) -> ProblemConfig:
    text = Path(path).read_text()
    sections = _parse_config_text(text)
    for name in _SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing section [{name}]")
    dom, sys_, slv = sections["domain"], sections["system"], sections["solve"]

    def floats(v):
        if not (isinstance(v, list)
                and all(isinstance(x, (int, float)) and np.isfinite(x) for x in v)):
            raise ConfigError(f"expected finite numbers, got {v!r}")
        return tuple(float(x) for x in v)

    def ints(v):
        if not all(x.is_integer() for x in floats(v)):
            raise ConfigError(f"expected integers, got {v!r}")
        return tuple(int(x) for x in v)

    cfg = ProblemConfig(
        lo=floats(_require(dom, "lo", "domain")),
        hi=floats(_require(dom, "hi", "domain")),
        cells=ints(_require(dom, "cells", "domain")),
        n=ints([_require(sys_, "n", "system")])[0],
        K=ints([_require(sys_, "K", "system")])[0],
        m=ints([_require(sys_, "m", "system")])[0],
        equations=tuple(str(s) for s in _require(sys_, "equations", "system")),
        rhs=tuple(str(s) for s in _require(sys_, "rhs", "system")),
        epsilon=floats([_require(slv, "epsilon", "solve")])[0],
        refine_steps=ints([slv.get("refine_steps", ProblemConfig.refine_steps)])[0],
        samples_per_cell=ints([slv.get("samples_per_cell", ProblemConfig.samples_per_cell)])[0],
        margin=floats([slv.get("margin", ProblemConfig.margin)])[0],
        seed=ints([slv.get("seed", ProblemConfig.seed)])[0],
        eta=floats([slv.get("eta", ProblemConfig.eta)])[0],
    )
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
    if cfg.samples_per_cell < 1:
        raise ConfigError("samples_per_cell must be >= 1")
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
    outputs: list[str] = field(default_factory=list)


def _write(path: Path, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _cell_corners(partition) -> list[str]:
    out = []
    for i in range(partition.n_cells):
        box = partition.cell_box(i)
        out.append(f"{box.lo} {box.hi}")
    return out


def _run(command: str, config_path, out_dir, construct) -> RunReport:
    """Load and build the problem, then write what construct(cfg, system,
    rhs, box, partition, workers) returns: the CSV's name and rows, the
    verdict, and the report's certificate or trace."""
    t0 = time.perf_counter()
    config_text = Path(config_path).read_text()
    cfg = load_config(config_path)
    system, rhs, box, partition = _build_problem(cfg)
    name, rows, ok, evidence = construct(cfg, system, rhs, box, partition, worker_count())
    out = Path(out_dir)
    _write(out / name, rows)
    report = RunReport(
        command=command, config_text=config_text, verdict="pass" if ok else "fail",
        exit_code=EXIT_OK if ok else EXIT_FAIL, wall_time=time.perf_counter() - t0,
        rows=rows, outputs=[str(out / name)], **evidence,
    )
    _write_report(out, report, cells=_cell_corners(partition))
    return report


def run_solve(config_path, out_dir) -> RunReport:
    """One certified construction at the configured band width."""
    def construct(cfg, system, rhs, box, partition, workers):
        U, cert = global_approx(
            system, rhs, partition, cfg.epsilon,
            eta=cfg.eta, samples_per_cell=cfg.samples_per_cell,
            margin=cfg.margin, seed=cfg.seed, workers=workers,
        )
        return "certificate.csv", certificate_csv_rows(cert), cert.passed, {"certificate": cert}

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
        return "trace.csv", trace_csv_rows(trace), ok, {"trace": trace}

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
    except (ConfigError, FileNotFoundError) as e:
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
