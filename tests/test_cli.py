"""Config parsing, pipelines, exit codes, CSV formats, determinism."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ocm import cli
from ocm.baire import GridFn

TRANSPORT = """\
# first-order transport with linear rhs
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
samples_per_cell = 60
margin = 0.05
seed = 42
eta = 1e-9
"""


TRANSPORT_2D = """\
[domain]
lo = [0.0, 0.0]
hi = [1.0, 1.0]
cells = [2, 2]

[system]
n = 2
K = 1
m = 1
equations = ["D(u1,(1,0)) + u1"]
rhs = ["x1*x2"]

[solve]
epsilon = 0.1
refine_steps = 10
samples_per_cell = 80
seed = 5
"""


def write_config(tmp_path, text=TRANSPORT, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_fields(tmp_path):
    cfg = cli.load_config(write_config(tmp_path))
    assert cfg.lo == (0.0,) and cfg.hi == (1.0,) and cfg.cells == (10,)
    assert cfg.n == 1 and cfg.K == 1 and cfg.m == 1
    assert cfg.equations == ("D(u1,(1))",)
    assert cfg.rhs == ("x1",)
    assert cfg.epsilon == 0.1 and cfg.seed == 42 and cfg.eta == 1e-9


def test_load_config_missing_section(tmp_path):
    path = write_config(tmp_path, "[domain]\nlo = [0.0]\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)


@pytest.mark.parametrize("old, new, message", [
    ("samples_per_cell = 60", "sample_per_cell = 3", "unknown key 'sample_per_cell' in [solve] (line 17)"),
    ("seed = 42", "seeds = 5", "unknown key 'seeds' in [solve] (line 19)"),
    ("[solve]", "[solver]", "unknown section [solver] (line 14)"),
    ("seed = 42", "seed = 1\nseed = 2", "key 'seed' in [solve] repeats line 19 (line 20)"),
    ("eta = 1e-9", "eta = 1e-9\n[solve]\nseed = 7", "key 'seed' in [solve] repeats line 19 (line 22)"),
    ("eta = 1e-9", "eta = 1e-9\n[solve]", "Cannot declare ('solve',) twice at column 7 (line 21)"),
    ("seed = 42", "solve.seed = 1", "unknown key 'solve' in [solve]"),
    ("seed = 42", '"seeds" = 5', "unknown key 'seeds' in [solve]"),
    ("[domain]", "x = 1\n[domain]", "top-level key 'x' is not a [section]"),
    ("[solve]", "[[solve]]", "top-level key 'solve' is not a [section] (line 14)"),
], ids=["misspelled key", "plural key", "unknown section", "repeated key",
        "key repeated under a repeated header", "repeated header alone", "dotted key", "quoted key",
        "top-level key", "array of tables"])
def test_unknown_section_or_key_exits_2(tmp_path, capsys, old, new, message):
    # the first six were accepted silently, solving with the default they
    # failed to set or with the last value given; a dotted or quoted key,
    # which the line scan does not read, is held to the same keys, and a
    # top-level value that is not a table is no section
    cfg = write_config(tmp_path, TRANSPORT.replace(old, new))
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.load_config(cfg)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_operator_with_no_distinct_pivots_exits_2(tmp_path, capsys):
    # both equations read only u1: this used to exit 1 with a traceback
    text = TRANSPORT.replace("K = 1\nm = 1", "K = 2\nm = 0").replace(
        'equations = ["D(u1,(1))"]\nrhs = ["x1"]', 'equations = ["u1", "u1 - 1"]\nrhs = ["x1", "x1"]')
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot assign a distinct pivot slot to equation 2")
    assert "pass explicit pivots" not in err


@pytest.mark.parametrize("args, text, code", [
    (["selfcheck"], None, 0),
    (["solve"], TRANSPORT.replace("samples_per_cell", "sample_per_cell"), 2),
])
def test_console_main_exits_with_the_command_s_code(tmp_path, monkeypatch, args, text, code):
    # the [project.scripts] entry point reads sys.argv and exits with main's code
    if text is not None:
        args = args + [str(write_config(tmp_path, text)), "--out", str(tmp_path / "o")]
    monkeypatch.setattr(sys, "argv", ["ocm"] + args)
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == code


def test_load_config_reads_arrays_across_lines(tmp_path):
    # a K = 2 system with one entry per line and a comment among them: this
    # was "unterminated array"
    text = TRANSPORT.replace("K = 1", "K = 2").replace(
        'equations = ["D(u1,(1))"]\nrhs = ["x1"]',
        'equations = [\n    "D(u1,(1))",\n    "D(u2,(1))",\n]\n'
        'rhs = [\n    "x1",  # for u1\n    "1",\n]')
    path = write_config(tmp_path, text)
    cfg = cli.load_config(path)
    assert cfg.equations == ("D(u1,(1))", "D(u2,(1))") and cfg.rhs == ("x1", "1")
    assert cli.main(["solve", str(path), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("make, message", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(TRANSPORT.replace("x1", "x\xe91").encode("latin-1")),
     "'utf-8' codec can't decode byte 0xe9"),
], ids=["missing", "directory", "not UTF-8"])
def test_unreadable_config_exits_2(tmp_path, capsys, make, message):
    # the last two were a traceback and exit 1
    path = tmp_path / "problem.cfg"
    make(path)
    assert cli.main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("taken, out, message", [
    ("out", "out", "File exists"),
    ("file", "file/out", "Not a directory"),
], ids=["existing file", "under a file"])
def test_unmakeable_out_exits_2_before_planning(tmp_path, capsys, monkeypatch, taken, out, message):
    # used to plan and certify, then die on the mkdir with a traceback and exit 1
    def never(*args, **kwargs):
        raise AssertionError("solve planned before making its output directory")

    monkeypatch.setattr(cli, "global_approx", never)
    (tmp_path / taken).write_text("taken")
    out = tmp_path / out
    assert cli.main(["solve", str(write_config(tmp_path)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot make the --out directory {str(out)!r}: {message}\n")


def test_load_config_bad_value_reports_line(tmp_path):
    path = write_config(tmp_path, "[domain]\nlo = what\n")
    with pytest.raises(cli.ConfigError) as exc:
        cli.load_config(path)
    assert exc.value.line == 2


def test_solve_transport(tmp_path):
    out = tmp_path / "out"
    report = cli.run_solve(write_config(tmp_path), out)
    assert report.exit_code == 0
    assert report.verdict == "pass"
    text = (out / "certificate.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "component,samples,min_residual,max_residual,eps,eta,pass"
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert float(fields[3]) <= 1e-9
    assert float(fields[2]) >= -0.1 - 1e-9
    assert fields[6] == "true"
    report_text = (out / "report.txt").read_text()
    assert "cells:" in report_text and "(0.0,) (0.1,)" in report_text


def test_solve_reads_its_config_once(tmp_path, monkeypatch):
    # report.txt echoes the text that was solved, even when the file
    # changes after load_config read it; the echo used to read it again
    cfg = write_config(tmp_path)
    reads = []
    read_text = Path.read_text

    def spy(self, *args, **kwargs):
        reads.append(self)
        text = read_text(self, *args, **kwargs)
        self.write_text(text.replace("seed = 42", "seed = 7"))
        return text

    monkeypatch.setattr(Path, "read_text", spy)
    report = cli.run_solve(cfg, tmp_path / "out")
    monkeypatch.undo()
    assert reads == [cfg]
    assert report.exit_code == 0 and report.config_text == TRANSPORT
    echoed = (tmp_path / "out" / "report.txt").read_text()
    assert "  seed = 42\n" in echoed and "seed = 7" not in echoed
    # the text rides along, out of compare and repr
    plain = cli.load_config(write_config(tmp_path, name="plain.cfg"))
    commented = cli.load_config(write_config(tmp_path, "# again\n" + TRANSPORT, name="copy.cfg"))
    assert plain == commented and repr(plain) == repr(commented)
    assert plain.text == TRANSPORT


def test_main_solve_exit_zero(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_malformed_expression_exits_2(tmp_path):
    bad = TRANSPORT.replace('"D(u1,(1))"', '"D(u1,(1)"')
    cfg = write_config(tmp_path, bad)
    code = cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("old, new", [
    ("margin = 0.05", "margin = 0.7"),
    ("samples_per_cell = 60", "samples_per_cell = 0"),
    ("samples_per_cell = 60", "samples_per_cell = 1000000000000"),
    ("samples_per_cell = 60", "samples_per_cell = 65537"),
    ("seed = 42", "seed = -1"),
    ("cells = [10]", "cells = [0]"),
    ("lo = [0.0]\nhi = [1.0]", "lo = [1.0]\nhi = [0.0]"),
    ("lo = [0.0]\nhi = [1.0]", "lo = [0.5]\nhi = [0.5]"),
    ("m = 1", "m = -1"),
    ("eta = 1e-9", "eta = -1"),
    ("n = 1", "n = 1.7"),
    ("refine_steps = 10", "refine_steps = 2.5"),
    ("epsilon = 0.1", "epsilon = 1e999"),
    ("hi = [1.0]", "hi = [1e999]"),
    ("seed = 42", "seed = true"),
    ("seed = 42", "seed = 2026-10-20"),
    ("epsilon = 0.1", "epsilon = .5"),
    ('equations = ["D(u1,(1))"]', "equations = [1]"),
    ("cells = [10]", "cells = [1e12]"),
])
def test_bad_config_value_exits_2(tmp_path, capsys, old, new):
    assert old in TRANSPORT
    cfg = write_config(tmp_path, TRANSPORT.replace(old, new))
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_bad_expression_message_carries_position(tmp_path):
    bad = TRANSPORT.replace('"D(u1,(1))"', '"D(u3,(1))"')
    cfg = write_config(tmp_path, bad)
    with pytest.raises(cli.ConfigError) as exc:
        cli.run_solve(cfg, tmp_path / "o")
    assert "line 1" in str(exc.value) and "column" in str(exc.value)


def test_range_violation_exits_3(tmp_path):
    text = TRANSPORT.replace('"D(u1,(1))"', '"D(u1,(1))^2"').replace('"x1"', '"0 - 1"')
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_sine_range_violation_exits_3(tmp_path):
    text = TRANSPORT.replace('"D(u1,(1))"', '"sin(u1)"').replace('"x1"', '"2"')
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_rhs_undefined_at_a_probe_exits_3_and_says_so(tmp_path, capsys):
    # the plan's first placement, at the centre 0.25 of the cell [0, 0.5],
    # hits the pole
    text = TRANSPORT.replace('"x1"', '"1/(x1-0.25)"').replace("cells = [10]", "cells = [2]")
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "component 1 at x=(0.25,): right-hand side not finite" in err
    assert "sign change" not in err


def test_delta_collapse_exits_4(tmp_path, capsys):
    # u1 = 100000 * x1 needs pieces 1e-7 wide for eps 0.01, a tenth of the
    # floor: two rounds split every cell 64 times, and the third split is
    # refused before it is built
    text = TRANSPORT.replace('"D(u1,(1))"', '"u1"').replace('"x1"', '"100000 * x1"')
    text = text.replace("epsilon = 0.1", "epsilon = 0.01")
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert f"delta collapse: cell 0 would need subcells {0.1 / 64**3:g} wide, below the floor 1e-06" in err


def test_plan_over_the_subcell_budget_exits_4(tmp_path, capsys):
    # log(x1) is unbounded along x1 = 0: the plan places 4 and 8,354
    # subcells, then proposes 33,554,632, still 1e-4 wide and far above the
    # floor; that proposal is refused before its partition is built
    text = TRANSPORT_2D.replace('"D(u1,(1,0)) + u1"', '"D(u1,(1,0))"').replace('"x1*x2"', '"log(x1)"')
    cfg = write_config(tmp_path, text)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert ("delta collapse: the plan would split into 33,554,632 subcells, over the budget of "
            "4,194,304; cell 0 would hold the most") in err


@pytest.mark.parametrize("equation,rhs,cells", [
    ("D(u1,(1))", "sqrt(x1)", 4), ("D(u1,(1))", "1/(x1+0.02)", 2), ("u1", "x1*log(x1)", 4),
])
def test_steep_rhs_near_the_boundary_certifies(tmp_path, equation, rhs, cells):
    # the probe plan missed the cell corners: the first two exited 5, with
    # max residual +0.0086 on 64 subcells and range [-1.10, +0.93] on 1,024
    text = TRANSPORT.replace('"x1"', f'"{rhs}"').replace("cells = [10]", f"cells = [{cells}]")
    cfg = write_config(tmp_path, text.replace('"D(u1,(1))"', f'"{equation}"'))
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_refine_trace(tmp_path):
    out = tmp_path / "out"
    report = cli.run_refine(write_config(tmp_path), out)
    assert report.exit_code == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "n,eps,max_residual,min_residual,gap,repairs"
    assert len(lines) == 11
    for row in lines[1:]:
        n, eps, rmax, rmin, gap, repairs = row.split(",")
        n = int(n)
        assert float(eps) == pytest.approx(1.0 / n)
        assert float(rmax) <= 1e-9
        assert float(rmin) >= -1.0 / n - 1e-9
        assert float(gap) <= 1.0 / n + 2e-9
        assert repairs == "0"


def test_refine_single_step_matches_solve_at_eps_one(tmp_path):
    text = TRANSPORT.replace("epsilon = 0.1", "epsilon = 1.0").replace(
        "refine_steps = 10", "refine_steps = 1"
    )
    cfg = write_config(tmp_path, text)
    solve_report = cli.run_solve(cfg, tmp_path / "a")
    refine_report = cli.run_refine(cfg, tmp_path / "b")
    cert = solve_report.certificate
    step = refine_report.trace.steps[0]
    assert step.eps == 1.0
    assert step.certificate.min_residual == cert.min_residual
    assert step.certificate.max_residual == cert.max_residual


def test_refine_injected_nonmonotone_exits_5(tmp_path, monkeypatch):
    import ocm.order

    steps = []
    image = ocm.order._located_image

    def sabotage(*args):
        # refine images step n on its n-th call; step 3's image drops
        steps.append(len(steps) + 1)
        images = image(*args)
        if steps[-1] == 3:
            return [GridFn(g.axes, g.values - 0.5, g.mask) for g in images]
        return images

    monkeypatch.setattr(ocm.order, "_located_image", sabotage)
    report = cli.run_refine(write_config(tmp_path), tmp_path / "o")
    assert steps == list(range(1, 11))
    assert report.exit_code == 5
    assert report.trace.total_repairs > 0


def test_selfcheck_stock_passes():
    report = cli.run_selfcheck()
    assert report.exit_code == 0
    assert all(",false," not in row for row in report.rows[1:])


def test_selfcheck_broken_instance_names_axiom_4():
    import itertools

    from ocm.filters import FiniteFilter, UcsTable

    ground = frozenset(("a", "b"))
    pg = frozenset(itertools.product(ground, ground))
    asym = UcsTable(ground, (FiniteFilter(pg, frozenset([("a", "a"), ("b", "b"), ("a", "b")])),))
    report = cli.run_selfcheck(instances=[("broken", "ucs", asym)])
    assert report.exit_code == 5
    assert any("axiom (4)" in row for row in report.rows)


def test_selfcheck_rows_read_back_as_four_csv_fields():
    import csv

    from ocm.filters import ConvergenceTable, FiniteFilter

    # the failing witness holds ", ", so its detail field is quoted
    g = frozenset("abc")

    def f(*xs):
        return FiniteFilter(g, frozenset(xs))

    t = ConvergenceTable(g, {"a": [f("a", "c"), f("a", "b")], "b": [f("b")], "c": [f("c")]})
    rows = cli.run_selfcheck([("meet", "convergence", t)]).rows
    (header, row), = [list(csv.reader(rows))]
    assert header == ["instance", "check", "pass", "detail"]
    assert row == ["meet", "convergence-axioms", "false",
                   "axiom (2) witness ('a', frozenset({'a', 'c'}), frozenset({'a', 'b'})); "
                   "hausdorff=false"]
    # passing rows need no quotes, so their bytes are as before
    stock = cli.run_selfcheck().rows
    assert len(stock) == 31 and all(r.count(",") == 3 and '"' not in r for r in stock)
    assert cli._csv_row('say "hi"', "a,b", "plain") == '"say ""hi""","a,b",plain'
    assert next(csv.reader([cli._csv_row('say "hi"', "a,b", "plain")])) == ['say "hi"', "a,b", "plain"]


def test_selfcheck_witness_rows_do_not_depend_on_string_hashing():
    # lambda(a) lists [a, b] and [a, c] but not their meet [a, b, c], so
    # axiom (2) fails with a witness holding two frozensets of strings
    script = (
        "from ocm import cli\n"
        "from ocm.filters import ConvergenceTable, FiniteFilter\n"
        "g = frozenset('abc')\n"
        "f = lambda *xs: FiniteFilter(g, frozenset(xs))\n"
        "t = ConvergenceTable(g, {'a': [f('a', 'c'), f('a', 'b')], 'b': [f('b')], 'c': [f('c')]})\n"
        "print('\\n'.join(cli.run_selfcheck([('meet', 'convergence', t)]).rows))\n"
    )
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    rows = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        rows.add(done.stdout)
    assert len(rows) == 1
    (out,) = rows
    assert "axiom (2) witness ('a', frozenset({'a', 'c'}), frozenset({'a', 'b'}))" in out


def test_subcell_bounds_built_once_per_partition(tmp_path, monkeypatch):
    # subdivision, placement, sampling and the certificate's inside check
    # share one pair of bound arrays per partition; the spy keeps every
    # partition and pair it sees, so distinct pairs are distinct builds
    from ocm.domain import CellPartition

    seen = []
    bounds = CellPartition.subcell_bounds

    def spy(self):
        seen.append((self, bounds(self)))
        return seen[-1][1]

    monkeypatch.setattr(CellPartition, "subcell_bounds", spy)
    monkeypatch.setenv("OCM_THREADS", "1")
    # the refine-2d benchmark problem, and its solve-fine-2d counterpart
    # at a coarser band (the count does not depend on the band)
    solve = TRANSPORT_2D.replace("+ u1", "").replace("0.1", "0.02")
    refine = TRANSPORT_2D.replace("cells = [2, 2]", "cells = [4, 4]").replace(
        "samples_per_cell = 80\n", "")
    for name, text, run in (("refine", refine, cli.run_refine), ("solve", solve, cli.run_solve)):
        seen.clear()
        report = run(write_config(tmp_path, text, f"{name}.cfg"), tmp_path / name)
        assert report.exit_code == 0
        builds = {(id(p), id(lo)) for p, (lo, _) in seen}
        # one build for each partition a planning round placed on
        assert len(builds) == len({id(p) for p, _ in seen}) > 1, name


def test_selfcheck_empty_is_vacuous():
    report = cli.run_selfcheck(instances=[])
    assert report.exit_code == 0
    assert "insufficient" in report.verdict


def test_deterministic_outputs_across_threads(tmp_path, monkeypatch):
    # the 2D config has 2x2 cells and 253 subcells at 300 samples each,
    # so every certificate spans two of check_residual's 65,536-sample
    # chunks and the pool really splits them
    text_2d = TRANSPORT_2D.replace("samples_per_cell = 80", "samples_per_cell = 300")
    for name, text in (("1d", TRANSPORT), ("2d", text_2d)):
        cfg = write_config(tmp_path, text, f"{name}.cfg")
        blobs = {}
        for threads in ("1", "4"):
            for run in range(2):
                monkeypatch.setenv("OCM_THREADS", threads)
                out = tmp_path / f"out-{name}-{threads}-{run}"
                assert cli.main(["solve", str(cfg), "--out", str(out)]) == 0
                assert cli.main(["refine", str(cfg), "--out", str(out)]) == 0
                blobs[(threads, run)] = (
                    (out / "certificate.csv").read_bytes(),
                    (out / "trace.csv").read_bytes(),
                )
        baseline = blobs[("1", 0)]
        if name == "2d":
            assert b"\n1,75900," in baseline[0]
        for key, value in blobs.items():
            assert value == baseline, (name, key)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("OCM_THREADS", "2")
    assert cli.worker_count() <= 2
    monkeypatch.setenv("OCM_THREADS", "0")
    with pytest.raises(cli.ConfigError):
        cli.worker_count()
    monkeypatch.delenv("OCM_THREADS")
    assert cli.worker_count() >= 1
    monkeypatch.setenv("OCM_THREADS", "junk")
    with pytest.raises(cli.ConfigError):
        cli.worker_count()
