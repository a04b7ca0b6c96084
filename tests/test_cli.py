import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hopfscf.cli import build_parser, main, parse_composition, parse_elem, parse_subset
from hopfscf.compositions import Composition

SRC = Path(__file__).resolve().parents[1] / "src"


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter held to 1 GiB; a refusal that regresses
    to a hang fails after 30 s instead of stalling the run."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    command = [sys.executable, "-m", "hopfscf.cli", *argv]
    return subprocess.run(
        command, capture_output=True, text=True, timeout=30, env=env, preexec_fn=_cap_memory
    )


def refused(done: subprocess.CompletedProcess, message: str) -> bool:
    return (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


class TestParsing:
    def test_composition_literals(self):
        assert parse_composition("(1,3,2)") == Composition((1, 3, 2))
        assert parse_composition("()") == Composition()
        assert parse_composition(" (2, 1) ") == Composition((2, 1))

    def test_composition_errors(self):
        for bad in ("1,2", "(1,x)", "(0)"):
            with pytest.raises(Exception):
                parse_composition(bad)

    def test_subset_literals(self):
        assert parse_subset("{1,4}") == frozenset({1, 4})
        assert parse_subset("{}") == frozenset()

    def test_elem_dispatch(self):
        assert parse_elem("B:(1,2)")[0] == "nsym"
        assert parse_elem("M:(1,2)")[0] == "qsym"


class TestExpand:
    def test_b_to_h_json(self, capsys):
        code = main(["expand", "--elem", "B:(3)", "--to", "H", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"basis": "H", "terms": [{"comp": [1, 1, 1], "coeff": "1"}]}

    def test_b_symbolic_coefficients(self, capsys):
        main(["expand", "--elem", "B:(1,2)", "--to", "H", "--json"])
        data = json.loads(capsys.readouterr().out)
        coeffs = {tuple(t["comp"]): t["coeff"] for t in data["terms"]}
        assert coeffs == {(1, 1, 1): "t", (2, 1): "q"}

    def test_m_to_pi(self, capsys):
        main(["expand", "--elem", "M:(1,2)", "--to", "Pi", "--nu", "2", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["nu"] == 2
        coeffs = {tuple(t["comp"]): t["coeff"] for t in data["terms"]}
        assert coeffs == {(1, 1, 1): "-2", (2, 1): "-2"}

    def test_human_mode(self, capsys):
        code = main(["expand", "--elem", "L:(2)", "--to", "M"])
        assert code == 0
        out = capsys.readouterr().out
        assert "label" in out and "(1,1)" in out

    def test_pi_without_nu_fails(self, capsys):
        assert main(["expand", "--elem", "M:(2)", "--to", "Pi"]) == 2

    def test_unknown_basis_exits_2(self, capsys):
        assert main(["expand", "--elem", "X:(2)", "--to", "H"]) == 2

    def test_deterministic(self, capsys):
        main(["expand", "--elem", "B:(2,1)", "--to", "H", "--json"])
        first = capsys.readouterr().out
        main(["expand", "--elem", "B:(2,1)", "--to", "H", "--json"])
        assert capsys.readouterr().out == first


class TestStructconst:
    def test_bhat3_table(self, capsys):
        code = main(["structconst", "--k", "3", "--K", "{1,2}", "--csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        table = {(r["m"], r["I"], r["J"]): r["polynomial"] for r in rows}
        assert table[("1", "{}", "{1}")] == "q + 2*t"
        assert table[("1", "{}", "{}")] == "q*t + t^2"
        assert table[("0", "{}", "{1,2}")] == "1"
        assert table[("3", "{1,2}", "{}")] == "1"

    def test_zero_rows_omitted(self, capsys):
        main(["structconst", "--k", "2", "--K", "{}", "--csv"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert all(r["polynomial"] != "0" for r in rows)

    def test_filter_m(self, capsys):
        main(["structconst", "--k", "3", "--K", "{1,2}", "--csv", "--filter-m", "1"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(r["m"] == "1" for r in rows)

    @pytest.mark.parametrize("k", [65, 10**20])
    def test_k_past_the_mask_bound_exits_2_at_once(self, k):
        # checked before [k - 1] is built
        done = run_cli("structconst", "--k", str(k), "--K", "{}")
        assert refused(done, f"ambient {k} exceeds supported bound 64")

    def test_bad_subset_exits_2(self):
        assert main(["structconst", "--k", "2", "--K", "{5}"]) == 2
        assert main(["structconst", "--k", "2", "--K", "1,2"]) == 2


class TestSharedParser:
    SEQUENCE = [
        ["expand", "--elem", "B:(1,2)", "--to", "H", "--json"],
        ["expand", "--elem", "B:(1,2)", "--to", "H"],
        ["expand", "--elem", "M:(1,2)", "--to", "Pi", "--nu", "2"],
        ["expand", "--elem", "M:(1,2)", "--to", "Pi"],
        ["structconst", "--k", "3", "--K", "{1}", "--csv", "--filter-m", "1"],
        ["structconst", "--k", "3", "--K", "{1}"],
    ]

    @staticmethod
    def run(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_each_call_behaves_as_if_alone(self, capsys):
        in_a_row = [self.run(capsys, argv) for argv in self.SEQUENCE]
        assert [code for code, _, _ in in_a_row] == [0, 0, 0, 2, 0, 0]
        json.loads(in_a_row[0][1])
        assert in_a_row[1][1].startswith("B:(1,2) expanded in H")
        assert in_a_row[3][1] == "" and in_a_row[3][2].startswith("error:")
        assert {r["m"] for r in csv.DictReader(io.StringIO(in_a_row[4][1]))} == {"1"}
        for argv, result in zip(self.SEQUENCE, in_a_row):
            build_parser.cache_clear()
            assert self.run(capsys, argv) == result, argv

    def test_command_is_looked_up_at_each_call(self, capsys, monkeypatch):
        from hopfscf import cli

        assert main(["expand", "--elem", "B:(2)", "--to", "H"]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_expand", lambda args: calls.append(args.elem) or 0)
        assert main(["expand", "--elem", "B:(2)", "--to", "H"]) == 0
        assert calls == ["B:(2)"]


class TestOutOfDomain:
    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--elem", "Pi:(1,2)", "--to", "M", "--nu", "1"],
            ["expand", "--elem", "M:(1,2)", "--to", "Pi", "--nu", "0"],
            ["expand", "--elem", "Pi:(1,2)", "--to", "M"],
            ["expand", "--elem", "M:(1,2)", "--to", "Pi"],
            ["expand", "--elem", "M:(1)", "--to", "X"],
            ["expand", "--elem", "B:(1,2)", "--to", "Pi", "--nu", "2"],
            ["expand", "--elem", "H:(1)", "--to", "M"],
            ["expand", "--elem", "M:(70)", "--to", "L"],
            ["expand", "--elem", "B:(65)", "--to", "H"],
            ["structconst", "--k", "-1", "--K", "{}"],
            ["structconst", "--k", "3", "--K", "{}", "--filter-m", "4"],
        ],
    )
    def test_exits_2_with_an_error_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err


class TestVerify:
    def test_dualities_pass(self, capsys):
        code = main(["verify", "--suite", "dualities", "--max-degree", "3"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("PASS") for line in out[:-1])
        summary = json.loads(out[-1])
        assert summary["passed"] is True and summary["suite"] == "dualities"

    def test_json_only(self, capsys):
        code = main(["verify", "--suite", "omega", "--max-degree", "3", "--json"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert json.loads(out[0])["passed"] is True

    def test_group_axioms_with_nu_list(self, capsys):
        code = main(
            ["verify", "--suite", "group-axioms", "--max-degree", "3", "--nu", "2,3"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["passed"] is True

    def test_max_degree_zero_examines_degree_zero_only(self, capsys, monkeypatch):
        from hopfscf import nsym

        degrees = []
        real = nsym.structure_constant
        monkeypatch.setattr(
            nsym, "structure_constant", lambda k, *rest: degrees.append(k) or real(k, *rest)
        )
        assert main(["verify", "--suite", "integrality", "--max-degree", "0", "--json"]) == 0
        assert degrees and max(degrees) == 0

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "--suite", "nope"]) == 2

    @pytest.mark.parametrize("nus", ["1", "0", "2,1", "-3"])
    def test_nu_below_two_exits_2(self, capsys, nus):
        code = main(["verify", "--suite", "group-axioms", "--max-degree", "2", "--nu", nus])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("nus", ["", ",", "2,", "two"])
    def test_malformed_nu_list_exits_2(self, capsys, nus):
        # an empty --nu once fell through to the default nus and exited 0
        code = main(["verify", "--suite", "group-axioms", "--max-degree", "2", "--nu", nus])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("suite", ["group-axioms", "dualities"])
    def test_negative_max_degree_exits_2(self, capsys, suite):
        code = main(["verify", "--suite", suite, "--nu", "2", "--max-degree", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "suite", ["hopf-axioms", "dualities", "specializations", "omega", "overlap", "integrality"]
    )
    def test_nu_on_a_suite_without_nu_exits_2(self, capsys, suite):
        # a suite that takes no nu once ran and exited 0 with --nu ignored
        code = main(["verify", "--suite", suite, "--max-degree", "1", "--nu", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --nu applies only to the suites diagrams, group-axioms, not {suite}\n"

    def test_oversized_group_exits_2_before_any_degree(self, capsys, monkeypatch):
        from hopfscf import groupscf

        ran = []
        monkeypatch.setattr(groupscf, "verify_axioms", lambda spec: ran.append(spec))
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "100")
        code = main(["verify", "--suite", "group-axioms", "--nu", "2", "--max-degree", "9"])
        assert code == 2
        assert ran == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "HOPF_SCF_MAX_GROUP" in captured.err

    def test_oversized_diagrams_exit_2_before_any_degree(self, capsys, monkeypatch):
        from hopfscf import charmap

        ran = []
        monkeypatch.setattr(charmap, "verify_diagrams", lambda nu, bound: ran.append((nu, bound)))
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "100")
        code = main(["verify", "--suite", "diagrams", "--nu", "2", "--max-degree", "9"])
        assert code == 2
        assert ran == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: group order 2^8 exceeds bound 100; raise HOPF_SCF_MAX_GROUP to override\n"
        )

    @pytest.mark.parametrize("suite", ["diagrams", "group-axioms"])
    def test_astronomical_degree_exits_2(self, capsys, monkeypatch, suite):
        # the degree is refused by arithmetic, before a tuple of its indices is built
        monkeypatch.delenv("HOPF_SCF_MAX_GROUP", raising=False)
        degree = 10**20
        code = main(["verify", "--suite", suite, "--max-degree", str(degree)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: group order 2^{degree - 1} exceeds bound {1 << 20}; "
            "raise HOPF_SCF_MAX_GROUP to override\n"
        )

    @pytest.mark.parametrize("suite", ["hopf-axioms", "integrality"])
    def test_symbolic_suite_past_the_mask_bound_exits_2_at_once(self, suite):
        done = run_cli("verify", "--suite", suite, "--max-degree", "65")
        assert refused(done, "ambient 65 exceeds supported bound 64")

    @pytest.mark.parametrize("raw", ["abc", "", "1e6"])
    def test_malformed_group_bound_exits_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", raw)
        code = main(["verify", "--suite", "group-axioms", "--nu", "2", "--max-degree", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: HOPF_SCF_MAX_GROUP must be an integer, got {raw!r}\n"
