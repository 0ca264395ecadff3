"""Command-line interface: flags, formats, exit codes, determinism."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symdesign
from symdesign import checks, cli, groups, solver
from symdesign.cli import main
from symdesign.intlinalg import Echelon, ReducedLattice


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTmaxCommand:
    def test_u1_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tmax", "--group", "u1", "--n", "3", "--k", "1",
            "--assume-semiuniversal", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tmax"] == 2
        assert set(doc) == {
            "group", "n", "k", "tmax", "lower_bound", "certificate",
            "proven_exact", "closed_form", "agrees", "ms",
        }
        assert sorted(doc["certificate"]) == ["w=0: +2", "w=1: -1", "w=3: +1"]

    def test_zp_odd_infinity(self, capsys):
        code, out, _ = run_cli(
            capsys, "tmax", "--group", "zp", "--p", "3", "--n", "6", "--k", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tmax"] == "infinity"
        assert doc["agrees"] is True

    def test_sud_below_semiuniversality_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "tmax", "--group", "sud", "--d", "3", "--n", "15", "--k", "2",
        )
        assert code == 2
        assert "semi" in err.lower() or "2-design" in err

    def test_default_sv_classes_have_the_sv_closed_form(self, capsys):
        # the default 2-local classes are id,2: both name the sv formula
        docs = []
        for extra in ([], ["--classes", "id,2"]):
            code, out, _ = run_cli(
                capsys, "tmax", "--group", "sud", "--d", "3", "--n", "15", "--k", "2",
                *extra, "--assume-semiuniversal", "--format", "json",
            )
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0]["closed_form"] == docs[1]["closed_form"] == 16 * 13 // 2 - 1
        assert docs[0]["agrees"] is docs[1]["agrees"] is True

    def test_sud_amended_with_classes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tmax", "--group", "sud", "--d", "3", "--n", "15", "--k", "2",
            "--classes", "id,2", "--assume-semiuniversal", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tmax"] == 16 * 13 // 2 - 1
        assert doc["agrees"] is True

    def test_failed_reverification_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(solver, "verify_certificate", lambda *args: False)
        code, out, err = run_cli(capsys, "tmax", "--group", "u1", "--n", "6", "--k", "2")
        assert code == 4
        assert out == ""
        assert err == "error: certificate failed re-verification\n"

    @pytest.mark.parametrize(
        "classes",
        # unbalanced parentheses, a repeated site, and a multi-digit site:
        # a support of 10 or more takes the 10 or 5+5 form
        ["foo", "1+1", "id,,2", "(12)(3)", "", " ", "(12)(34", "(11)", "(12345678910)"],
    )
    def test_malformed_classes_exit_3(self, capsys, classes):
        code, _, err = run_cli(
            capsys, "tmax", "--group", "sud", "--d", "3", "--n", "15", "--k", "3",
            "--classes", classes,
        )
        assert code == 3
        assert err.startswith("error: bad --classes entry") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "classes, label", [("id,2,3,id", "(1)"), ("2,3,2+2,(12)(34)", "(12)(34)")]
    )
    def test_duplicate_classes_exit_3(self, capsys, classes, label):
        code, out, err = run_cli(
            capsys, "smatrix", "--group", "sud", "--d", "3", "--n", "6", "--k", "4",
            "--classes", classes, "--format", "json",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and label in err

    @pytest.mark.parametrize("classes, code", [("3000000", 2), ("3000000,3000000", 3)])
    def test_huge_class_has_a_short_message(self, capsys, classes, code):
        # the cycle-notation label of a 3,000,000-cycle runs to megabytes
        got, out, err = run_cli(
            capsys, "tmax", "--group", "sud", "--d", "3", "--n", "8", "--k", "4",
            "--classes", classes,
        )
        assert got == code
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200
        assert "3000000" in err

    def test_zp_beyond_n_equals_u1(self, capsys):
        # residues that n sites cannot reach drop out: Z_7 on 5 sites is U(1)
        docs = {}
        for group in (["zp", "--p", "7"], ["u1"]):
            code, out, _ = run_cli(
                capsys, "tmax", "--group", *group, "--n", "5", "--k", "2",
                "--assume-semiuniversal", "--format", "json",
            )
            assert code == 0
            docs[group[0]] = json.loads(out)
        assert docs["zp"]["tmax"] == docs["u1"]["tmax"] == 7
        zp_cert = [line.replace("b=", "w=") for line in docs["zp"]["certificate"]]
        assert zp_cert == docs["u1"]["certificate"]

    def test_tgroup_in_any_order_gets_its_closed_form(self, capsys):
        # the gate set, not the order its classes are listed in, picks the formula
        reports = set()
        for classes in ("id,2,3,2+2", "2+2,3,2", "3,id,2+2,2"):
            code, out, _ = run_cli(
                capsys, "tmax", "--group", "sud", "--d", "4", "--n", "24", "--k", "4",
                "--classes", classes, "--format", "json",
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["closed_form"] == 3793 and doc["agrees"] is True, classes
            reports.add(re.sub(r'"ms": [0-9.]+', '"ms": 0', out))
        assert len(reports) == 1

    def test_classes_on_non_sud_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "tmax", "--group", "u1", "--n", "6", "--k", "2", "--classes", "id,2",
        )
        assert code == 2

    def test_below_threshold_u1_k1(self, capsys):
        code, _, _ = run_cli(capsys, "tmax", "--group", "u1", "--n", "4", "--k", "1")
        assert code == 2

    def test_byte_identical_modulo_timing(self, capsys):
        args = ("tmax", "--group", "su2", "--n", "13", "--k", "2", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        strip = lambda s: re.sub(r'"ms": [0-9.]+', '"ms": 0', s)
        assert strip(out1) == strip(out2)


@pytest.mark.parametrize("command", ["tmax", "lower-bound", "smatrix"])
@pytest.mark.parametrize(
    "n, k, classes", [("2", "5", "id,2,3"), ("3", "0", "id"), ("6", "0", None)]
)
def test_locality_out_of_range_exits_2(capsys, command, n, k, classes):
    argv = [command, "--group", "sud", "--d", "3", "--n", n, "--k", k]
    if classes is not None:
        argv += ["--classes", classes]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "need 1 <= k <= n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tmax", "--group", "u1", "--n", "x", "--k", "2"),
        ("tmax", "--group", "foo", "--n", "6", "--k", "2"),
        ("tmax", "--group", "u1", "--n", "6"),
        ("frobnicate",),
    ],
    ids=" ".join,
)
def test_usage_errors_exit_3(capsys, argv):
    # argparse's own exit code 2 would read as a precondition failure
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == ""
    assert "usage:" in captured.err and "error:" in captured.err


def _inexact(*args):
    raise ArithmeticError("an integral Gram-Schmidt division is not exact")


@pytest.mark.parametrize(
    "argv, target",
    [
        (["tmax", "--group", "u1", "--n", "6", "--k", "2"], (ReducedLattice, "insert")),
        (["custom", "problem.json"], (ReducedLattice, "insert")),
        (["lower-bound", "--group", "u1", "--n", "5", "--k", "2"], (Echelon, "add")),
    ],
    ids=["tmax", "custom", "lower-bound"],
)
def test_failed_exactness_check_exits_4(capsys, tmp_path, monkeypatch, argv, target):
    # an exactness invariant that raises inside the solver is an internal
    # verification failure, not a traceback with exit code 1
    (tmp_path / "problem.json").write_text('{"m": [4, 4], "rows": []}')
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(*target, _inexact)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err == "error: an integral Gram-Schmidt division is not exact\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tmax", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--group", "u1", "--d", "5"), "d is only meaningful"),
        (("--group", "sud", "--d", "3", "--p", "3"), "p is only meaningful"),
        (("--group", "zp", "--p", "3", "--d", "4"), "d is only meaningful"),
        (("--group", "zp"), "Zp requires p >= 2"),
        (("--group", "sud"), "SUd requires local dimension"),
    ],
)
def test_flag_the_group_does_not_take_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "tmax", *argv, "--n", "6", "--k", "3")
    assert code == 2
    assert out == ""
    assert message in err


class TestSmatrixCommand:
    def test_u1_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "smatrix", "--group", "u1", "--n", "3", "--k", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"]["w=0"] == ["1", "2", "1", "0"]
        assert doc["rows"]["w=1"] == ["0", "1", "2", "1"]

    def test_identity_class_listed_first(self, capsys):
        # the other classes keep their order, wherever id is listed
        for classes, expected in [
            ("3,2", ["(1)", "(123)", "(12)"]),
            ("2,id,3", ["(1)", "(12)", "(123)"]),
        ]:
            code, out, _ = run_cli(
                capsys, "smatrix", "--group", "sud", "--d", "3", "--n", "5", "--k", "3",
                "--classes", classes, "--format", "csv",
            )
            assert code == 0
            rows = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
            assert rows == expected, classes

    def test_csv_has_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "smatrix", "--group", "zp", "--p", "2", "--n", "5", "--k", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "row,b=0,b=1"
        assert lines[1] == "b=0,4,4"


class TestLowerBoundCommand:
    def test_u1(self, capsys):
        code, out, _ = run_cli(
            capsys, "lower-bound", "--group", "u1", "--n", "5", "--k", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ell"] == 4 and doc["bound"] == 4 and doc["sector"] == "w=4"

    def test_classes_without_id_equal_classes_with_id(self, capsys):
        # a global phase is free, so every class list carries the identity
        # class: 2,3 is the gate set id,2,3, semi-universal at k = 3
        for n in ("6", "16"):
            for argv in (
                ["lower-bound"],
                ["lower-bound", "--assume-semiuniversal"],
                ["tmax"],
                ["tmax", "--assume-semiuniversal"],
            ):
                docs = []
                for classes in ("2,3", "id,2,3"):
                    code, out, err = run_cli(
                        capsys, *argv, "--group", "sud", "--d", "3", "--n", n, "--k", "3",
                        "--classes", classes, "--format", "json",
                    )
                    assert code == 0 and err == ""
                    doc = json.loads(out)
                    del doc["ms"]
                    docs.append(doc)
                assert docs[0] == docs[1], (n, argv)

    @pytest.mark.parametrize("command", ["lower-bound", "tmax"])
    @pytest.mark.parametrize(
        "instance",
        [
            ("--group", "u1", "--n", "6", "--k", "1"),
            ("--group", "zp", "--p", "3", "--n", "6", "--k", "2"),
            ("--group", "sud", "--d", "3", "--n", "6", "--k", "3", "--classes", "2"),
        ],
        ids=" ".join,
    )
    def test_below_semiuniversality_exits_2(self, capsys, command, instance):
        code, out, err = run_cli(capsys, command, *instance)
        assert code == 2
        assert out == ""
        assert "2-design" in err or "semi-universality" in err

    def test_assume_semiuniversal_gives_the_formal_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "lower-bound", "--group", "u1", "--n", "6", "--k", "1",
            "--assume-semiuniversal", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["bound"] == 5


class TestOptimizedInterpreter:
    """No invariant of the solving path lives in an ``assert`` (removed by ``-O``)."""

    ROOT = Path(__file__).resolve().parent.parent

    def run(self, *flags_and_argv):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, *flags_and_argv],
            cwd=self.ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        return [line for line in proc.stdout.splitlines() if not line.startswith("ms = ")]

    @pytest.mark.parametrize("command", ["tmax", "lower-bound"])
    def test_same_stdout_with_and_without_O(self, command):
        argv = [
            "-m", "symdesign.cli", command, "--group", "sud", "--d", "4", "--n", "24",
            "--k", "4", "--classes", "id,2,3,2+2",
        ]
        plain = self.run(*argv)
        assert "n = 24" in plain
        assert plain == self.run("-O", *argv)


class TestClosedPipe:
    """A reader that stops early (``| head -1``) ends the output, not the command."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_smatrix_reader_closing_early(self):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = ["smatrix", "--group", "sud", "--d", "5", "--n", "50", "--k", "4"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "symdesign.cli", *argv],
            cwd=self.ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # the header line alone is well over a pipe buffer, so the writer is
        # still blocked on the rest when the pipe closes
        header = proc.stdout.readline()
        assert len(header) > 65536
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""


class TestFreshProcessOutput:
    """A fresh ``python -S`` start, which loads each submodule on first use, prints what a warm process does."""

    ROOT = Path(__file__).resolve().parent.parent
    SUD = ("--group", "sud", "--d", "3", "--n", "15", "--k", "2", "--classes", "id,2")
    CASES = [
        ("tmax", "--group", "u1", "--n", "8", "--k", "2"),
        ("tmax", *SUD, "--assume-semiuniversal"),  # an SU(d) closed form
        ("tmax", "--group", "zp", "--p", "3", "--n", "9", "--k", "3"),  # infinite
        ("lower-bound", "--group", "sud", "--d", "4", "--n", "8", "--k", "3"),
        ("smatrix", "--group", "sud", "--d", "3", "--n", "6", "--k", "3"),
        ("custom", "problem.json"),
    ]

    @staticmethod
    def without_ms(fmt, out):
        lines = out.splitlines()
        if fmt == "csv" and lines and lines[0].endswith(",ms"):  # ms is the last column
            return [line.rsplit(",", 1)[0] for line in lines]
        return [line for line in lines if not re.match(r'(ms = |\s*"ms": )', line)]

    def check(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "problem.json").write_text('{"m": [5, 1, 4, 2, 3, 6], "rows": [["1/2", -1, 0, 3, "2/3", 1]]}')
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "symdesign.cli", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        for name in symdesign.__all__:  # every submodule loaded before the in-process run
            getattr(symdesign, name)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        fmt = argv[argv.index("--format") + 1]
        assert self.without_ms(fmt, proc.stdout) == self.without_ms(fmt, out)

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_instance_commands(self, capsys, tmp_path, monkeypatch, argv, fmt):
        self.check(capsys, tmp_path, monkeypatch, [*argv, "--format", fmt])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table(self, capsys, tmp_path, monkeypatch, fmt):
        self.check(capsys, tmp_path, monkeypatch, ["table", "--reproduce", "table1", "--n-range", "7..8", "--format", fmt])


class TestWithoutNumpy:
    """The package has no optional dependency: every command runs with numpy blocked."""

    ROOT = Path(__file__).resolve().parent.parent
    # None in sys.modules makes every import of numpy raise ModuleNotFoundError
    BLOCKED = (
        "import sys; sys.modules['numpy'] = None; import symdesign, symdesign.cli; "
        "sys.exit(symdesign.cli.main(sys.argv[1:]))"
    )

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-c", self.BLOCKED, *argv],
            cwd=self.ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    @staticmethod
    def without_ms(stdout):
        return [line for line in stdout.splitlines() if not line.startswith("ms = ")]

    def test_tmax_and_custom_match(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"m": [5, 1, 4, 2, 3, 6], "rows": [["1/2", -1, 0, 3, "2/3", 1]]}')
        for argv in (("tmax", "--group", "u1", "--n", "8", "--k", "2"), ("custom", str(path))):
            proc = self.run(*argv)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert self.without_ms(proc.stdout) == self.without_ms(out)

    def test_oracle_suite_passes(self):
        proc = self.run("verify", "--suite", "oracle")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "suite oracle: pass (227/227 checks)\n"
        assert proc.stderr == ""


class TestTableCommand:
    def test_table2_u1_rows_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--reproduce", "table2", "--n-range", "8..20",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        u1_rows = [r for r in rows if r["group"] == "u1"]
        assert u1_rows and all(r["agrees"] for r in u1_rows)

    def test_tablesud_d3(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--reproduce", "tableSUd", "--n-range", "22..24",
            "--d", "3", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows and all(r["agrees"] for r in rows)

    @pytest.mark.parametrize(
        "which, d", [("table1", None), ("table2", None), ("tablesud", 4)], ids=str
    )
    def test_one_sector_table_per_group_and_n(self, which, d, monkeypatch):
        # every locality of a (group, n) solves against one canonical table
        calls = []
        enumerate_sectors = groups.sectors

        def counting(group, n):
            calls.append((group, n))
            return enumerate_sectors(group, n)

        monkeypatch.setattr(groups, "sectors", counting)
        rows = cli._table_rows(which, 22, 24, d)
        assert len(rows) > len(calls) and len(calls) == len(set(calls))
        assert {(row["group"].removesuffix("+classes"), row["n"]) for row in rows} == {
            (str(group), n) for group, n in calls
        }

    @pytest.mark.parametrize("d", ["0", "1"])
    def test_tablesud_small_d_exits_2(self, capsys, d):
        # d = 0 must not fall back to the default d = 3
        code, out, err = run_cli(
            capsys, "table", "--reproduce", "tableSUd", "--n-range", "5..6", "--d", d,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_tablesud_defaults_to_d3(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--reproduce", "tableSUd", "--n-range", "22..22", "--format", "json",
        )
        assert code == 0
        assert {row["group"] for row in json.loads(out)} == {"sud(d=3)"}

    @pytest.mark.parametrize("which", ["table1", "table2"])
    def test_d_outside_tablesud_exits_3(self, capsys, which):
        code, out, err = run_cli(
            capsys, "table", "--reproduce", which, "--n-range", "13..14", "--d", "9",
        )
        assert code == 3
        assert out == ""
        assert err == "error: --d applies to tableSUd only\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["tableSUd", "--n-range", "1..3"],
            ["table2", "--n-range", "1..3", "--format", "json"],
        ],
        ids=["tableSUd-csv", "table2-json"],
    )
    def test_range_below_every_formula_exits_3(self, capsys, args):
        # no row has a valid tabulated formula, so the table would check nothing
        code, out, err = run_cli(capsys, "table", "--reproduce", *args)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_empty_range(self, capsys):
        # an empty range would print a bare header, checking nothing
        code, out, err = run_cli(
            capsys, "table", "--reproduce", "table2", "--n-range", "9..8",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("n_range", ["5..3", "0..4", "-2..4"])
    def test_reversed_or_nonpositive_range_exits_3(self, capsys, n_range):
        code, out, err = run_cli(capsys, "table", "--reproduce", "table1", f"--n-range={n_range}")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--reproduce", "table2", "--n-range", "oops")
        assert code == 3

    def test_table1_includes_all_groups(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--reproduce", "table1", "--n-range", "13..14",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        groups = {r["group"] for r in rows}
        assert {"u1", "su2", "zp(p=2)", "zp(p=3)"} <= groups
        assert all(r["agrees"] for r in rows)
        # odd-p rows certify universality through the infinity sentinel
        zp3 = [r for r in rows if r["group"] == "zp(p=3)"]
        assert zp3 and all(r["tmax"] == "infinity" for r in zp3)


class TestCustomCommand:
    def test_z2_identity_problem(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"m": [4, 4], "rows": []}')
        code, out, _ = run_cli(capsys, "custom", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["tmax"] == 3
        assert doc["certificate"] == ["s0: +1", "s1: -1"]

    def test_failed_reverification_exits_4(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "verify_certificate", lambda *args: False)
        path = tmp_path / "problem.json"
        path.write_text('{"m": [4, 4], "rows": []}')
        code, out, err = run_cli(capsys, "custom", str(path))
        assert code == 4
        assert out == ""
        assert err == "error: certificate failed re-verification\n"

    def test_malformed_json_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": [4, 4], "rows": [oops]}')
        code, _, err = run_cli(capsys, "custom", str(path))
        assert code == 3
        assert re.search(r"line \d+, column \d+", err)

    @pytest.mark.parametrize(
        "doc, key",
        [
            pytest.param(doc, key, id=doc)
            for doc, key in [
                ('{"m": [4, 4], "rows": [["1/0", "1"]]}', None),  # zero denominator
                # only ints and "p/q" strings: an exponent of 200,000 digits
                # would overflow the output, and decimals are not documented
                ('{"m": [1, 2, 3], "rows": [["1e200000", "1", "-2"]]}', None),
                ('{"m": [1, 2, 3], "rows": [["0.5", "1", "-2"]]}', None),
                ('{"m": [1, 2, 3], "rows": [["1e3", "1", "-2"]]}', None),
                ('{"m": []}', None),  # no sectors
                ('{"m": [true, 2]}', None),  # boolean multiplicity
                ('{"m": [2.0, 4]}', "positive integers"),  # integral float multiplicity
                ('{"m": [1e3, 4]}', "positive integers"),  # float in exponent notation
                ('{"m": [1, 2], "rows": [[true, 1]]}', None),  # boolean row entry
                ('{"m": [1, 2], "rows": [[0.5, 1]]}', None),  # float row entry
                ('{"m": [1, 2], "rows": [[1]]}', "row length must equal"),  # short row
                ('{"m": [1, 2], "rows": [[2.0, 1]]}', None),  # integral float row entry
                ('{"m": [Infinity]}', None),  # infinite multiplicity
                ('{"m": [1e400, 2]}', None),  # multiplicity that overflows to infinity
                ('{"m": 5}', '"m"'),  # multiplicities not a list
                ('{"m": [1, 2], "rows": [1]}', '"rows"'),  # a row that is not a list
                ('{"m": [1, 2], "rows": "ab"}', '"rows"'),  # rows not a list
                ('{"m": [1, 2], "labels": 5}', '"labels"'),  # labels not a list
                ('{"m": [1, 2], "rows": [[1, 1]], "labels": [7]}', '"labels"'),  # not strings
                # a mistyped "rows" would otherwise solve the problem without its rows
                ('{"m": [2, 2], "row": [[1, -1]]}', "'row'"),
                ('{"m": [1, 1], "labels": ["a"]}', "1 row labels for 0 rows"),  # label count
            ]
        ],
    )
    def test_malformed_document_exits_3(self, capsys, tmp_path, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "custom", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        if key is not None:
            assert key in err

    @pytest.mark.parametrize(
        "content",
        [b'{"m": [1, 2], "labels": ["\xff"]}', b"[" * 200_000],
        ids=["not-utf8", "nested-200000"],
    )
    def test_unreadable_document_exits_3(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "custom", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "custom", str(tmp_path / "nope.json"))
        assert code == 3


class TestVerifyCommand:
    def test_characters_suite(self, capsys):
        # 1,610 tabulated values, then every entry of the k = 4 matrices of
        # sud(n) for n = 4..20 (2,707 partitions, 5 rows each)
        code, out, _ = run_cli(capsys, "verify", "--suite", "characters")
        assert code == 0
        assert out == "suite characters: pass (15145/15145 checks)\n"

    def test_identities_u1_suite(self, capsys):
        # the operator identities, then every entry of the U(1) charge
        # matrices for n <= 30 and every k against math.comb
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities-u1")
        assert code == 0
        assert out == "suite identities-u1: pass (182569/182569 checks)\n"

    def test_solver_brute_suite(self, capsys):
        # tmax, the exact certificate and the lower bound on 280 instances
        code, out, _ = run_cli(capsys, "verify", "--suite", "solver-brute")
        assert code == 0
        assert out == "suite solver-brute: pass (840/840 checks)\n"

    def test_identities_su2_suite(self, capsys):
        # the total-spin identities, then every entry of the SU(2) charge
        # matrices for n <= 30 and every k
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities-su2")
        assert code == 0
        assert out == "suite identities-su2: pass (39603/39603 checks)\n"

    def test_oracle_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle")
        assert code == 0
        assert out == "suite oracle: pass (227/227 checks)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                (suite, *flag)
                for suite in cli._SUITES
                for flag in (("--n-max", "16"), ("--samples", "5"), ("--seed", "1"))
            ),
            # zero, negative and small values too: no value is read as a size
            ("identities-u1", "--n-max", "0"),
            ("identities-su2", "--n-max", "-1"),
            ("oracle", "--n-max", "2", "--samples", "-3"),
            ("oracle", "--n-max", "2", "--samples", "0"),
            ("characters", "--n-max", "3"),
            ("solver-brute", "--n-max", "3"),
            ("solver-brute", "--seed", "0"),
        ],
        ids=" ".join,
    )
    def test_flag_the_suite_ignores_exits_3(self, capsys, argv):
        # every suite runs at its one size: a size or seed flag is malformed input
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 3
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_every_offered_suite_is_a_checks_function(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        offered = re.search(r"--suite \{([^}]*)\}", out).group(1).split(",")
        assert offered == list(cli._SUITES)
        for suite in offered:
            func = getattr(checks, suite.replace("-", "_"))
            assert not inspect.signature(func).parameters
            assert get_type_hints(func)["return"] is checks.Tally
        # --suite is the only option besides --help
        assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out)) == {"-h", "--help", "--suite"}


# arbitrary JSON, and custom documents whose m, rows and labels are either
# well formed or arbitrary
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=10,
)
rationals = st.integers(-4, 4) | st.builds("{}/{}".format, st.integers(-4, 4), st.integers(-2, 3))
custom_documents = json_values | st.fixed_dictionaries(
    {"m": st.lists(st.integers(1, 12), min_size=1, max_size=6) | json_values},
    optional={
        "rows": st.lists(st.lists(rationals | json_values, max_size=6), max_size=3) | json_values,
        "labels": st.lists(st.text(max_size=3), max_size=4) | json_values,
    },
)
class_tokens = st.sampled_from(["id", "e", "1", "(1)", "2", "3", "2+2", "4", "(12)(34)", "(123)"])
class_lists = st.lists(class_tokens | st.text("()+-0123456789ide ", max_size=5), max_size=5)

# the examples of one test share its file and its capture, so function-scoped
# fixtures are fine
fuzz_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestExitCodeFuzz:
    """Malformed input never escapes as a traceback: every run exits 0, 2, 3 or 4."""

    @given(custom_documents)
    @fuzz_settings
    def test_custom_documents(self, capsys, tmp_path, doc):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "custom", str(path), "--format", "json")
        assert code in (0, 2, 3, 4)

    @given(
        st.sampled_from(["tmax", "lower-bound", "smatrix"]),
        st.integers(2, 5),
        st.integers(1, 8),
        st.integers(-1, 9),
        class_lists,
        st.booleans(),
    )
    @fuzz_settings
    def test_class_lists(self, capsys, command, d, n, k, tokens, assume):
        argv = [command, "--group", "sud", f"--d={d}", f"--n={n}", f"--k={k}"]
        argv.append("--classes=" + ",".join(tokens))
        if assume and command != "smatrix":
            argv.append("--assume-semiuniversal")
        code, _, _ = run_cli(capsys, *argv)
        assert code in (0, 2, 3, 4)
