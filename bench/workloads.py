"""Workloads of the ocm benchmark: inputs made from a seed, one timed
repetition of the workload's operations, and the output checks.

Every call into ``ocm`` looks its function up on the module at call time
(``ocm.cli.run_refine``, ``flt.close_to_ucs``, ...), so the span
wrappers that the traced run installs on those modules see the calls.
An operation is started through ``op(fn, *args)``, which the traced run
turns into the root span of everything the operation does.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

import ocm
import ocm.cli
from ocm import filters as flt

MIN_SAMPLES = 10_000
GAP_SLACK = 2e-9


@dataclass
class Checked:
    """What the output checks found in one repetition."""

    attempted: int = 0
    failed: int = 0  # failures without a documented explanation
    known: int = 0  # known_defect cases that failed in their documented way
    work_units: int = 0  # certified subcells, or verdicts for the checkers
    digest: str = ""
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


def config_path(workdir: Path, problem: dict) -> Path:
    return workdir / f"{problem['name']}.cfg"


def write_inputs(spec: dict, seed: int, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for problem in spec.get("problems", ()):
        text = "\n".join(problem["config"]).replace("{seed}", str(seed)) + "\n"
        config_path(workdir, problem).write_text(text)


def load_problem(path: Path):
    """Parse a config, its operator and rhs, and tile the domain."""
    cfg = ocm.cli.load_config(path)
    system = ocm.expr.parse_system("\n".join(cfg.equations), cfg.n, cfg.K, cfg.m)
    rhs = ocm.approx.rhs_from_exprs(cfg.rhs, cfg.n)
    partition = ocm.domain.build_partition(ocm.domain.Box(cfg.lo, cfg.hi), cfg.cells)
    return cfg, system, rhs, partition


def setup(spec: dict, workdir: Path) -> None:
    """What every run pays before its first operation, after importing
    ocm: load_problem on each of the workload's configs."""
    for problem in spec.get("problems", ()):
        load_problem(config_path(workdir, problem))


def build(spec: dict, seed: int, workdir: Path):
    if spec["name"] == "checkers":
        return CheckersWorkload(spec, seed)
    return PdeWorkload(spec, workdir)


def _certificate_notes(name: str, cert) -> list[str]:
    notes = []
    if not cert.passed:
        notes.append(f"{name}: certificate failed")
    for c in cert.components:
        if c.samples < MIN_SAMPLES:
            notes.append(f"{name}: component {c.component} has {c.samples} samples < {MIN_SAMPLES}")
    return notes


class PdeWorkload:
    """Config-file problems run through ocm.cli.run_refine,
    ocm.cli.run_solve or ocm.approx.global_approx."""

    def __init__(self, spec: dict, workdir: Path):
        self.entry = spec["entry"]
        self.problems = spec["problems"]
        self.workdir = workdir

    def _out_dir(self, problem: dict) -> Path:
        return self.workdir / "out" / problem["name"]

    def _solve_direct(self, path: Path):
        cfg, system, rhs, partition = load_problem(path)
        return ocm.approx.global_approx(
            system, rhs, partition, cfg.epsilon, eta=cfg.eta, margin=cfg.margin,
            seed=cfg.seed, workers=1,
        )

    def rep(self, op) -> list:
        results = []
        for problem in self.problems:
            path = config_path(self.workdir, problem)
            try:
                if self.entry == "ocm.cli.run_refine":
                    out = op(ocm.cli.run_refine, path, self._out_dir(problem))
                elif self.entry == "ocm.cli.run_solve":
                    out = op(ocm.cli.run_solve, path, self._out_dir(problem))
                else:
                    out = op(self._solve_direct, path)
            except Exception as e:  # an operation's failure is counted, never fatal
                out = e
            results.append(out)
        return results

    def check(self, results) -> Checked:
        c = Checked()
        h = hashlib.sha256()
        for problem, out in zip(self.problems, results):
            name = problem["name"]
            c.attempted += 1
            h.update(name.encode() + b"\0")
            if isinstance(out, Exception):
                h.update(type(out).__name__.encode())
                if problem["expect"] == "range_violation" and isinstance(out, ocm.RangeViolation):
                    continue
                if "known_defect" in problem and isinstance(out, ocm.RangeViolation):
                    c.known += 1
                    c.notes.append(f"{name}: known defect: {problem['known_defect']}")
                    continue
                c.fail(f"{name}: {type(out).__name__}: {out}")
                continue
            if problem["expect"] != "certify":
                c.fail(f"{name}: expected {problem['expect']}, got a result")
                continue
            notes = self._check_result(problem, out, c, h)
            c.failed += bool(notes)
            c.notes += notes
        c.digest = h.hexdigest()
        return c

    def _check_result(self, problem: dict, out, c: Checked, h) -> list[str]:
        name = problem["name"]
        subcells = 0
        if self.entry == "ocm.cli.run_refine":
            notes = [] if out.exit_code == 0 else [f"{name}: exit code {out.exit_code}"]
            for step in out.trace.steps:
                notes += _certificate_notes(f"{name} step {step.n}", step.certificate)
                if step.repairs:
                    notes.append(f"{name} step {step.n}: {step.repairs} repairs")
                if not step.sup_gap_to_rhs <= 1.0 / step.n + GAP_SLACK:
                    notes.append(f"{name} step {step.n}: sup gap {step.sup_gap_to_rhs!r} > 1/n")
                subcells += step.approximant.partition.total_subcells
            h.update((self._out_dir(problem) / "trace.csv").read_bytes())
        elif self.entry == "ocm.cli.run_solve":
            notes = [] if out.exit_code == 0 else [f"{name}: exit code {out.exit_code}"]
            notes += _certificate_notes(name, out.certificate)
            per_cell = ocm.cli.load_config(config_path(self.workdir, problem)).samples_per_cell
            subcells = out.certificate.components[0].samples // per_cell
            h.update((self._out_dir(problem) / "certificate.csv").read_bytes())
        else:
            U, cert = out
            notes = _certificate_notes(name, cert)
            subcells = U.partition.total_subcells
            h.update("\n".join(ocm.approx.certificate_csv_rows(cert)).encode())
        if "known_defect" not in problem:
            c.work_units += subcells
        return notes


# ---------------------------------------------------------------------------
# finite convergence-space checkers

TABLE_GROUND = ("a", "b", "c")
FACTORS = (("a", "b"), ("a", "b", "c"))


def _antichains(points) -> list[tuple[frozenset, ...]]:
    """Every antichain of nonempty subsets of points, the empty one included."""
    subsets = [frozenset(s) for r in range(1, len(points) + 1)
               for s in itertools.combinations(points, r)]
    out = []
    for bits in itertools.product((0, 1), repeat=len(subsets)):
        family = [s for s, b in zip(subsets, bits) if b]
        if all(not (s < t or t < s) for s, t in itertools.combinations(family, 2)):
            out.append(tuple(family))
    return out


def _pairs(points) -> list[tuple]:
    return list(itertools.product(points, points))


class CheckersWorkload:
    """Exhaustive 3-point convergence tables, seeded 4-point uniform
    instances, and the CLI self-check."""

    def __init__(self, spec: dict, seed: int):
        chains = _antichains(TABLE_GROUND)
        self.tables = [dict(zip(TABLE_GROUND, combo))
                       for combo in itertools.product(chains, repeat=len(TABLE_GROUND))]
        # independent oracle: axiom (1) needs a set holding the point and
        # axiom (2) needs the union of any two listed sets to lie in a
        # third, which an antichain of two or more sets never has
        self.expected = [all(len(fam) == 1 and x in fam[0] for x, fam in t.items())
                         for t in self.tables]
        self.ground = tuple(spec["instance_ground"])
        rng = random.Random(seed)
        pairs = _pairs(self.ground)
        self.instances = []
        for _ in range(spec["instances"]):
            rels = [frozenset(rng.sample(pairs, rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 2))]
            factors = []
            for _ in range(rng.randint(1, 2)):
                target = rng.choice(FACTORS)
                fmap = {x: rng.choice(target) for x in self.ground}
                factors.append((target, fmap, frozenset(rng.sample(_pairs(target), 2))))
            self.instances.append((rels, factors))

    def _table_verdicts(self) -> list[bool]:
        ground = frozenset(TABLE_GROUND)
        out = []
        for t in self.tables:
            table = flt.ConvergenceTable(
                ground, {x: tuple(flt.FiniteFilter(ground, s) for s in fam) for x, fam in t.items()}
            )
            out.append(flt.check_convergence_structure(table).ok)
        return out

    def _instance_verdicts(self) -> list[bool]:
        ground = frozenset(self.ground)
        out = []
        for rels, factors in self.instances:
            t = flt.close_to_ucs(ground, rels)
            out.append(flt.check_uniform_convergence(t).ok)
            out.append(flt.check_convergence_structure(flt.induced_convergence(t)).ok)
            out.append(all(flt.is_cauchy(flt.principal(ground, x), t) for x in self.ground))
            maps = [fmap for _, fmap, _ in factors]
            tables = [flt.close_to_ucs(frozenset(target), [rel]) for target, _, rel in factors]
            out.append(flt.check_uniform_convergence(flt.initial_ucs(ground, maps, tables)).ok)
            out.append(flt.check_initial_compat(ground, maps, tables))
        return out

    def rep(self, op) -> list:
        results = []
        for fn in (self._table_verdicts, self._instance_verdicts, ocm.cli.run_selfcheck):
            try:
                results.append(op(fn))
            except Exception as e:  # an operation's failure is counted, never fatal
                results.append(e)
        return results

    def check(self, results) -> Checked:
        c = Checked()
        h = hashlib.sha256()
        tables, instances, selfcheck = results
        for what, verdicts, expected in (
            ("tables", tables, self.expected),
            ("instances", instances, [True] * 5 * len(self.instances)),
        ):
            c.attempted += len(expected)
            if isinstance(verdicts, Exception):
                c.failed += len(expected)
                c.notes.append(f"{what}: {type(verdicts).__name__}: {verdicts}")
                continue
            wrong = sum(v != e for v, e in zip(verdicts, expected))
            if wrong:
                c.failed += wrong
                c.notes.append(f"{what}: {wrong} verdicts differ from the expected ones")
            c.notes.append(f"{what}: {sum(verdicts)} of {len(verdicts)} verdicts true")
            h.update(bytes(verdicts))
        c.attempted += 1
        if isinstance(selfcheck, Exception):
            c.fail(f"selfcheck: {type(selfcheck).__name__}: {selfcheck}")
        else:
            if selfcheck.exit_code != 0:
                c.fail(f"selfcheck: exit code {selfcheck.exit_code}")
            h.update("\n".join(selfcheck.rows).encode())
        c.work_units = c.attempted
        c.digest = h.hexdigest()
        return c
