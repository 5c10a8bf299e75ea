import importlib
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

from bergegames import builtin_game, equilibria, serialize_game
from bergegames.cli import build_parser, main
from bergegames.game import digit_limit


def _builtin_doc(name):
    return serialize_game(builtin_game(name))


@pytest.fixture
def eq5_file(tmp_path):
    path = tmp_path / "eq5.json"
    path.write_text(_builtin_doc("eq5"))
    return str(path)


@pytest.fixture
def pd_file(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(_builtin_doc("pd"))
    return str(path)


@pytest.fixture
def sumgame_file(tmp_path):
    path = tmp_path / "sumgame222.json"
    path.write_text(_builtin_doc("sumgame222"))
    return str(path)


# An own-payoff-independent 2x2x2 game with payoffs in {-1, 0, 1}, drawn by
# a seeded generator and written out here: every graph has two faces, and
# the meet has three.
_TIES_DOC = {"players": 3, "strategies": [["A1", "A2"], ["B1", "B2"], ["C1", "C2"]],
             "payoffs": [{"profile": list(p), "u": u} for p, u in [
                 ((0, 0, 0), [1, 1, 0]), ((0, 0, 1), [1, 1, 0]),
                 ((0, 1, 0), [0, 1, 0]), ((0, 1, 1), [1, 1, 0]),
                 ((1, 0, 0), [1, -1, 0]), ((1, 0, 1), [1, 1, 0]),
                 ((1, 1, 0), [0, -1, -1]), ((1, 1, 1), [1, 1, -1])]]}


@pytest.fixture
def ties_file(tmp_path):
    path = tmp_path / "ties.json"
    path.write_text(json.dumps(_TIES_DOC))
    return str(path)


def _int_conversion_error(digits):
    # The interpreter's own message for an integer past its digit limit.
    try:
        int("9" * digits)
    except ValueError as exc:
        return str(exc)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_eq5(self, capsys, eq5_file):
        code, out, _ = run(capsys, "info", eq5_file)
        assert code == 0
        assert "players: 3" in out
        assert "constant sum: 3" in out
        assert "player 1=yes player 2=yes player 3=yes" in out

    def test_pd(self, capsys, pd_file):
        code, out, _ = run(capsys, "info", pd_file)
        assert code == 0
        assert "constant sum: no" in out


class TestEnumerate:
    def test_pure_berge_eq5_empty(self, capsys, eq5_file):
        code, out, _ = run(capsys, "pure-berge", eq5_file)
        assert code == 0
        assert out.strip() == "count: 0"

    def test_pure_nash_eq5_all_eight(self, capsys, eq5_file):
        code, out, _ = run(capsys, "pure-nash", eq5_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "count: 8"
        assert lines[0] == "A1 B1 C1"

    def test_pure_berge_pd(self, capsys, pd_file):
        code, out, _ = run(capsys, "pure-berge", pd_file)
        assert code == 0
        assert out.strip().splitlines() == ["C C", "count: 1"]

    @pytest.mark.parametrize("kind", ["nash", "berge"])
    def test_finder_looked_up_per_run(self, capsys, monkeypatch, pd_file, kind):
        # Tracing wraps the module attribute, so a run must call the one set
        # then, even from a command line parsed before.
        args = build_parser().parse_args([f"pure-{kind}", pd_file])
        monkeypatch.setattr(equilibria, f"enumerate_pure_{kind}", lambda game: [(1, 0)])
        assert args.run(args) == 0
        assert capsys.readouterr().out == "D C\ncount: 1\n"


class TestCheck:
    def test_uniform_nash_eq5(self, capsys, eq5_file):
        code, out, _ = run(capsys, "check", eq5_file,
                           "--profile", "uniform", "--kind", "nash")
        assert code == 0
        assert "equilibrium: yes" in out
        assert "deficiency: 0" in out

    def test_uniform_berge_eq5(self, capsys, eq5_file):
        code, out, _ = run(capsys, "check", eq5_file,
                           "--profile", "uniform", "--kind", "berge")
        assert code == 3
        assert "equilibrium: no" in out
        assert "deficiency: 1" in out

    def test_explicit_profile(self, capsys, eq5_file):
        spec = json.dumps([["1/3", "2/3"], ["1/2", "1/2"], ["1/4", "3/4"]])
        code, out, _ = run(capsys, "check", eq5_file,
                           "--profile", spec, "--kind", "nash")
        assert code == 0

    def test_decimal_profile_read_exactly(self, capsys, pd_file):
        spec = "[[0.12345678901234567890123, 0.87654321098765432109877],[1,0]]"
        code, out, _ = run(capsys, "check", pd_file, "--profile", spec, "--kind", "nash")
        assert code == 3
        assert "deficiency: 112345678901234567890123/100000000000000000000000" in out

    def test_oversized_decimal_rejected(self, capsys, pd_file):
        spec = "[[1e2000000, 0],[1,0]]"
        code, _, err = run(capsys, "check", pd_file, "--profile", spec, "--kind", "nash")
        assert code == 1
        assert "decimal digits" in err

    def test_bad_profile_spec(self, capsys, eq5_file):
        code, _, err = run(capsys, "check", eq5_file,
                           "--profile", '[["1/2","1/3"]]', "--kind", "nash")
        assert code == 1
        assert "error" in err


class TestDecideBerge:
    def test_eq5_not_exists(self, capsys, eq5_file):
        code, out, _ = run(capsys, "decide-berge", eq5_file)
        assert code == 3
        assert "outcome: not-exists" in out
        assert "player 1: (*,1,1)" in out
        assert "player 2: (1,*,0)" in out
        assert "player 3: (0,0,*)" in out
        assert "conflict: coordinate" in out

    def test_sumgame_exists(self, capsys, sumgame_file):
        code, out, _ = run(capsys, "decide-berge", sumgame_file)
        assert code == 0
        assert "outcome: exists" in out
        assert "witness: (1,0) (1,0) (1,0)" in out

    @pytest.mark.parametrize("name, expected_code, expected_out", [
        ("zero222", 0, "outcome: exists\n"
                       "player 1: (*,*,*)\n"
                       "player 2: (*,*,*)\n"
                       "player 3: (*,*,*)\n"
                       "witness: (1/2,1/2) (1/2,1/2) (1/2,1/2)\n"),
        ("sumgame222", 0, "outcome: exists\n"
                          "player 1: (*,1,1)\n"
                          "player 2: (1,*,1)\n"
                          "player 3: (1,1,*)\n"
                          "witness: (1,0) (1,0) (1,0)\n"),
        ("eq5", 3, "outcome: not-exists\n"
                   "player 1: (*,1,1)\n"
                   "player 2: (1,*,0)\n"
                   "player 3: (0,0,*)\n"
                   "conflict: coordinate p is fixed to 0 by player 3 and to 1 by player 2\n"),
        ("ties", 0, "outcome: exists\n"
                    "player 1: (*,1,*) (*,*,0)\n"
                    "player 2: (1,*,*) (*,*,0)\n"
                    "player 3: (1,*,*) (*,1,*)\n"
                    "witness: (1,0) (1,0) (1/2,1/2)\n"),
    ])
    def test_full_output(self, capsys, tmp_path, name, expected_code, expected_out):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_TIES_DOC) if name == "ties" else _builtin_doc(name))
        code, out, err = run(capsys, "decide-berge", str(path))
        assert (code, out, err) == (expected_code, expected_out, "")

    def test_unsupported_shape(self, capsys, pd_file):
        code, _, err = run(capsys, "decide-berge", pd_file)
        assert code == 2
        assert "unsupported" in err


def _shape_doc(names, payoff):
    # A game document over these strategy names, payoff(profile) its vector.
    profiles = itertools.product(*(range(len(ns)) for ns in names))
    return json.dumps({"players": len(names), "strategies": names,
                       "payoffs": [{"profile": list(p), "u": payoff(p)} for p in profiles]})


class TestDecideBergeAnyShape:
    @pytest.mark.parametrize("names, payoff, expected_code, expected_out", [
        # Player 1 is best when B plays B1 or B3, player 2 when A plays A2.
        ([["A1", "A2"], ["B1", "B2", "B3"], ["C1", "C2", "C3"]],
         lambda p: [int(p[1] != 1), int(p[0] == 1), 0], 0,
         "outcome: exists\n"
         "player 1: (*,{B1,B3},*)\n"
         "player 2: (0,*,*)\n"
         "player 3: (*,*,*)\n"
         "witness: (0,1) (1/2,0,1/2) (1/3,1/3,1/3)\n"),
        # Players 2 and 3 want player 1 on disjoint sets of strategies.
        ([["A1", "A2", "A3"], ["B1"], ["C1"]],
         lambda p: [0, int(p[0] == 0), int(p[0] != 0)], 3,
         "outcome: not-exists\n"
         "player 1: (*,*,*)\n"
         "player 2: ({A1},*,*)\n"
         "player 3: ({A2,A3},*,*)\n"
         "conflict: coordinate p is fixed to {A2,A3} by player 3 and to {A1} by player 2\n"),
        # The conflicting player comes after three 1-strategy players.
        ([["A1"], ["B1"], ["C1"], ["D1", "D2"], ["E1", "E2"]],
         lambda p: [int(p[3] == 1), int(p[3] == 0), 0, 0, 0], 3,
         "outcome: not-exists\n"
         "player 1: (*,*,*,0,*)\n"
         "player 2: (*,*,*,1,*)\n"
         "player 3: (*,*,*,*,*)\n"
         "player 4: (*,*,*,*,*)\n"
         "player 5: (*,*,*,*,*)\n"
         "conflict: coordinate x4 is fixed to 0 by player 1 and to 1 by player 2\n"),
    ], ids=["names", "name-conflict", "fifth-player"])
    def test_full_output(self, capsys, tmp_path, names, payoff, expected_code, expected_out):
        path = tmp_path / "game.json"
        path.write_text(_shape_doc(names, payoff))
        code, out, err = run(capsys, "decide-berge", str(path))
        assert (code, out, err) == (expected_code, expected_out, "")

    def test_over_the_box_cap(self, capsys, tmp_path):
        # 2^13 - 1 boxes of player 2's strategies exceed the cap of 4096.
        path = tmp_path / "wide.json"
        path.write_text(_shape_doc([["A1"], [f"B{i}" for i in range(1, 14)]],
                                   lambda p: [0, 0]))
        code, out, err = run(capsys, "decide-berge", str(path))
        assert (code, out) == (2, "")
        assert err == "unsupported: shape (1, 13) has more than 4096 boxes of strategy sets\n"


class TestSearch:
    def test_eq5_resolution_4(self, capsys, eq5_file):
        code, out, _ = run(capsys, "search", eq5_file, "--resolution", "4", "--top", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("deficiency 1 at ") for line in lines)

    def test_oversized_grid_refused(self, capsys, eq5_file):
        code, out, err = run(capsys, "search", eq5_file, "--resolution", "100000")
        assert (code, out) == (1, "")
        assert err == "error: grid has more than 10000000 points; lower the resolution\n"

    def test_zero_resolution_rejected(self, capsys, eq5_file):
        code, _, err = run(capsys, "search", eq5_file, "--resolution", "0")
        assert code == 1
        assert "positive" in err


class TestBuiltinCommand:
    def test_writes_document(self, capsys, tmp_path):
        out_path = str(tmp_path / "pd.json")
        code, _, _ = run(capsys, "builtin", "pd", "--out", out_path)
        assert code == 0
        assert json.loads(open(out_path).read())["players"] == 2

    def test_unknown_name(self, capsys, tmp_path):
        code, _, err = run(capsys, "builtin", "nope", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "eq5" in err


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ["search", "{eq5}"],
        ["frobnicate", "{eq5}"],
        ["check", "{eq5}", "--profile", "uniform", "--kind", "foo"],
        ["search", "{eq5}", "--resolution", "x"],
        ["bsg", "{eq5}", "--out", "x.csv"],
    ], ids=["missing-option", "unknown-command", "bad-choice", "bad-int", "retired-bsg"])
    def test_usage_error(self, capsys, eq5_file, argv):
        # A malformed command line is an input error: exit 1, after argparse's usage line.
        code, out, err = run(capsys, *(a.format(eq5=eq5_file) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("usage: bergegames ")

    def test_help_exits_0(self, capsys):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: bergegames ")
        assert "bsg" not in out and "decide-berge" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "info", "/no/such/file.json")
        assert code == 1
        assert err == "error: no such file: /no/such/file.json\n"

    @pytest.mark.parametrize("argv", [["info", "{dir}"], ["builtin", "eq5", "--out", "{dir}"]],
                             ids=["read", "write"])
    def test_directory_for_a_file(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err and str(tmp_path) in err

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "info", str(path))
        assert code == 1
        assert "bad game document" in err

    def test_boolean_players_header(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"players": True, "strategies": [["a", "b"]],
                                    "payoffs": [{"profile": [0], "u": [1]},
                                                {"profile": [1], "u": [2]}]}))
        code, out, err = run(capsys, "info", str(path))
        assert code == 1
        assert out == ""
        assert "'players'" in err

    def test_oversized_json_integer(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"players": 1, "strategies": [["a"]], '
                        '"payoffs": [{"profile": [0], "u": [' + "9" * 5000 + ']}]}')
        code, out, err = run(capsys, "info", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad game document: ")

    def test_profile_vector_of_wrong_length(self, capsys, eq5_file):
        code, out, err = run(capsys, "check", eq5_file, "--profile",
                             '[["1"],["1/2","1/2"],["1/2","1/2"]]', "--kind", "berge")
        assert (code, out) == (1, "")
        assert err == "error: player 1: probability vector has length 1, expected 2\n"

    @pytest.mark.parametrize("spec, message", [
        ('[["1/2","1/3"],["1/2","1/2"],["1/2","1/2"]]',
         "player 1: bad probability vector (probabilities must sum to exactly 1, got 5/6)"),
        ('[[1,0],[1,0],[1e400,0]]',
         "player 3: bad probability vector (probabilities must sum to exactly 1, got 1"
         + "0" * 79 + "...)"),
        ('[5,["1/2","1/2"],["1/2","1/2"]]',
         "player 1: bad probability vector (probabilities must be a list or tuple)"),
        ("[[" + "9" * 5000 + ",0],[1,0],[1,0]]",
         "profile spec: number too large: " + _int_conversion_error(5000)),
        ('[[1e2000000,0],[1,0],[1,0]]',
         "profile spec: number too large: malformed rational '1e2000000' "
         f"('1e2000000' needs more than {digit_limit()} decimal digits)"),
    ], ids=["not-normalized", "sum-of-401-digits", "not-a-list", "oversized-integer",
            "oversized-decimal"])
    def test_bad_profile_vector(self, capsys, eq5_file, spec, message):
        code, out, err = run(capsys, "check", eq5_file, "--profile", spec, "--kind", "berge")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_deeply_nested_input(self, capsys, tmp_path, eq5_file):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "info", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: bad game document: ")
        code, out, err = run(capsys, "check", eq5_file, "--profile", "[" * 100_000,
                             "--kind", "nash")
        assert (code, out) == (1, "")
        assert "nor valid JSON" in err

    @pytest.mark.parametrize("record", [
        {"profile": [0, 0], "u": ["1/" + "x" * 200_000, 0]},
        {"profile": [0, 0], "u": [["1"] * 50_000, 0]},
        {"profile": [0, 0], "v": "x" * 200_000},
        {"profile": [0] * 50_000, "u": [0, 0]},
        {"profile": [0, 10**4000], "u": [0, 0]},
    ], ids=["malformed-rational", "not-a-rational", "record", "profile", "index"])
    def test_bad_input_echoed_short(self, capsys, tmp_path, record):
        # The message shows a prefix of a huge bad entry, and still says where it is.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"players": 2, "strategies": [["a"], ["b"]],
                                    "payoffs": [record]}))
        code, out, err = run(capsys, "info", str(path))
        assert code == 1
        assert out == ""
        assert len(err) < 300
        if "u" in record and record["profile"] == [0, 0]:
            assert "profile [0, 0], player 1: " in err
        if record["profile"][1:2] == [10**4000]:
            assert "of player 2 out of range [0, 1)" in err


class TestConsoleScript:
    def test_target_exit_codes(self, tmp_path, monkeypatch):
        # The [project.scripts] target, called as the installed wrapper
        # calls it: sys.exit(target()) with the arguments in sys.argv.
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        module, attr = re.search(r'^\[project\.scripts\]\s*\nbergegames\s*=\s*"([\w.]+):(\w+)"',
                                 text, re.MULTILINE).groups()
        target = getattr(importlib.import_module(module), attr)
        doc = str(tmp_path / "eq5.json")
        for argv, expected in ((["builtin", "eq5", "--out", doc], 0), (["decide-berge", doc], 3)):
            monkeypatch.setattr(sys, "argv", ["bergegames", *argv])
            with pytest.raises(SystemExit) as exc:
                sys.exit(target())
            assert exc.value.code == expected
