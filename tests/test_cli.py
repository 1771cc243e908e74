import contextlib
import io
import json
import os
import tempfile
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multiloop import cli, cocycle
from multiloop.cli import main
from multiloop.grading import SpecError, graded_from_spec, parse_spec_file
from multiloop.scalars import LaurentPoly

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_build(capsys):
    code, out, err = run(capsys, "algebra", "build", "A", "2")
    assert code == 0
    assert "chevalley A2 dim=8" in out
    assert "elapsed" in err and "elapsed" not in out


def test_algebra_build_e8(capsys):
    # E8 is built and its table proved; |Phi| + rank from sympy.liealgebras
    # is the oracle for the dimension
    sympy_rs = pytest.importorskip("sympy.liealgebras.root_system")
    code, out, _ = run(capsys, "algebra", "build", "E", "8")
    assert code == 0
    assert "dimension: 248" in out.splitlines()
    assert len(sympy_rs.RootSystem("E8").all_roots()) + 8 == 248


def test_algebra_invalid_type(capsys):
    code, out, _ = run(capsys, "algebra", "build", "H", "1")
    assert code == 1


def test_usage_error(capsys):
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_grading_fixture(capsys):
    code, out, _ = run(capsys, "grading", str(FIXTURES / "sl2_untwisted.ml"))
    assert code == 0
    assert "dimension-table: (0): 3" in out


def test_grading_quaternion(capsys):
    code, out, _ = run(capsys, "grading", str(FIXTURES / "sl2_quaternion.ml"))
    assert code == 0
    assert "(0,1): 1" in out and "(1,1): 1" in out


def test_lietorus_pass_and_fail(capsys):
    code, out, _ = run(capsys, "lietorus", str(FIXTURES / "sl2_untwisted.ml"))
    assert code == 0 and "overall pass" in out
    code, out, _ = run(capsys, "lietorus", str(FIXTURES / "sl2_quaternion.ml"))
    assert code == 2 and "overall fail" in out
    code, out, _ = run(capsys, "lietorus", str(FIXTURES / "sl3_flip.ml"))
    assert code == 0 and "type=BC1" in out


@pytest.mark.parametrize("name, label", [
    ("sl4_flip.ml", "B2"), ("sl5_flip.ml", "BC2"), ("so8_triality.ml", "G2"),
])
def test_twisted_fixtures_are_lie_tori(capsys, name, label):
    code, out, _ = run(capsys, "lietorus", str(FIXTURES / name))
    assert code == 0
    lines = [ln.strip() for ln in out.splitlines()]
    assert ["LT%d pass" % k for k in range(1, 6)] == \
        [ln for ln in lines if ln.startswith("LT")]
    assert "overall pass" in lines and "verdict: pass" in lines
    assert "lietorus type=%s nullity=1" % label in lines


def test_factor_and_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "factor", str(FIXTURES / "word_three.txt"))
    assert code == 0
    assert "certificate precision=8 residual=identity" in out
    report = tmp_path / "report.txt"
    report.write_text(out)
    code, out2, _ = run(capsys, "factor", str(FIXTURES / "word_three.txt"),
                        "--verify", str(report))
    assert code == 0
    assert "verdict: pass" in out2


def test_factor_laurent_ground(capsys):
    code, out, _ = run(capsys, "factor", str(FIXTURES / "word_laurent.txt"))
    assert code == 0
    assert "ring=laurent" in out


def test_factor_missing_file(capsys):
    code, _, _ = run(capsys, "factor", "/nonexistent/word.txt")
    assert code == 1


def test_depth_command(capsys):
    code, out, _ = run(capsys, "depth", "A", "2", "--target-precision", "1",
                       "--loop-degree", "1", "--samples", "5")
    assert code == 0
    assert "verdict: pass" in out


def test_cocycle_commands(capsys):
    code, out, _ = run(capsys, "cocycle", "enumerate", "--n", "1",
                       "--coeff", "Z2")
    assert code == 0
    code, out, _ = run(capsys, "cocycle", "infres", "--n", "1",
                       "--coeff", "Z2")
    assert code == 0 and "verdict: pass" in out
    code, out, _ = run(capsys, "cocycle", "diagonal", "--n", "1",
                       "--coeff", "Z2")
    assert code == 0


def test_cocycle_diagonal_on_a_1029_element_cover(capsys):
    # (Z/7)^3 : Z3, proved associative by Light's test on its 4
    # generators: 4 * 1029 row comparisons, not 1029^2
    code, out, _ = run(capsys, "--conductor", "7", "--budget-gamma", "1029",
                       "cocycle", "diagonal", "--n", "2", "--gamma0", "Z3",
                       "--coeff", "Z2")
    assert code == 0
    assert "power: 1" in out.splitlines()


def test_machine_format_json(capsys):
    code, out, _ = run(capsys, "--format", "machine", "algebra", "build",
                       "A", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"].endswith("algebra build A 1")
    assert doc["config"]["precision"] == 8


def test_determinism(capsys):
    args = ["--format", "machine", "--seed", "7", "depth", "A", "2",
            "--target-precision", "1", "--loop-degree", "0", "--samples", "3"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("MULTILOOP_PRECISION", "11")
    monkeypatch.setenv("MULTILOOP_FORMAT", "machine")
    code, out, _ = run(capsys, "algebra", "build", "A", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["precision"] == 11


def test_budget_exhaustion_exit_code(capsys):
    code, _, _ = run(capsys, "--budget-gamma", "1", "cocycle", "enumerate",
                     "--n", "1", "--coeff", "Z2")
    assert code == 3


@pytest.mark.parametrize("env, argv, message", [
    ({}, ["--conductor", "0", "cocycle", "enumerate"],
     "conductor must be at least 1"),
    ({}, ["--conductor", "-2", "cocycle", "enumerate"],
     "conductor must be at least 1"),
    ({}, ["--budget-gamma", "-1", "cocycle", "enumerate"],
     "budget-gamma must be at least 1"),
    ({}, ["--budget-coeff", "0", "cocycle", "enumerate"],
     "budget-coeff must be at least 1"),
    ({}, ["cocycle", "enumerate", "--n", "-1"], "--n must be at least 0"),
    ({}, ["cocycle", "diagonal", "--discrepancy", "-2"],
     "--discrepancy must be at least 0"),
    ({"MULTILOOP_PRECISION": "abc"}, ["algebra", "build", "A", "1"],
     "MULTILOOP_PRECISION='abc' is not an integer"),
    ({"MULTILOOP_CONDUCTOR": "0"}, ["cocycle", "enumerate"],
     "conductor must be at least 1"),
    ({"MULTILOOP_FORMAT": "xml"}, ["algebra", "build", "A", "1"],
     "MULTILOOP_FORMAT='xml' is not one of text, machine"),
], ids=["conductor-0", "conductor-neg", "budget-gamma-neg", "budget-coeff-0",
        "n-neg", "discrepancy-neg", "env-precision", "env-conductor",
        "env-format"])
def test_bad_settings_are_usage_errors(capsys, monkeypatch, env, argv,
                                       message):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "usage error: %s\n" % message
    assert "Traceback" not in err


@pytest.mark.parametrize("action", ["enumerate", "infres"])
def test_discrepancy_outside_diagonal_is_a_usage_error(capsys, action):
    code, out, err = run(capsys, "cocycle", action, "--discrepancy", "2")
    assert code == 1 and out == ""
    assert err == "usage error: --discrepancy applies to 'cocycle diagonal' " \
                  "only\n"
    code, _, _ = run(capsys, "cocycle", action, "--discrepancy", "0")
    assert code == 0


@pytest.mark.parametrize("spec, dim", [
    ("multiloop type=A rank=2 n=1 m=1\nsigma identity\ncartan h 1/2 0\n", 8),
    ("multiloop type=A rank=1 n=1 m=1\nsigma identity\ncartan h 300\n", None),
    ("multiloop type=A rank=2 n=1 m=1\nsigma identity\ncartan h 1 0\n"
     "cartan h 1/2 0\n", 2),
    ("multiloop type=A rank=2 n=1 m=2\nsigma diagram 1 0\n"
     "cartan h 1/2 1/2\n", 3),
], ids=["half-integral", "beyond-256", "second-row", "flip"])
def test_cartan_eigenvalue_errors(capsys, tmp_path, spec, dim):
    # a weight that is not an integer is reported on the block the rows
    # before it cut out of its lattice piece; large integer weights are
    # weights like any other
    path = tmp_path / "spec.ml"
    path.write_text(spec)
    for cmd in ("grading", "lietorus"):
        code, out, err = run(capsys, cmd, str(path))
        if dim is None:
            assert code == 0 and err.startswith("elapsed ")
            continue
        assert code == 1 and out == ""
        assert err == ("error: cartan action is not diagonalizable with "
                       "integer eigenvalues on a piece of dimension %d\n"
                       % dim)
    if dim is None:
        _, out, _ = run(capsys, "grading", str(path))
        assert "\n".join(["  v q=(-600) lam=(0)", "  v q=(0) lam=(0)",
                          "  v q=(600) lam=(0)"]) in out
        _, out, _ = run(capsys, "lietorus", str(path))
        assert "lietorus type=A1 nullity=1" in out and "overall pass" in out


@pytest.mark.parametrize("lines, message", [
    (["sigma identity"], "spec line 1: expected 'multiloop ...'"),
    (["multiloop type=A rank=1 n=1 m=1", "sigma identity", "frob 1"],
     "spec line 3: unknown directive 'frob'"),
    (["multiloop type=A rank=1 n=1 m=1", "sigma identity", "cartan x 1"],
     "spec line 3: bad cartan line"),
    (["multiloop type=A rank=2 n=1 m=2", "sigma diagram 0 0"],
     "spec line 2: bad permutation"),
    (["multiloop type=A rank=2 n=1 m=2", "sigma torus -1"],
     "spec line 2: torus needs 2 weights"),
    (["multiloop type=A rank=1 n=2 m=1", "sigma identity"],
     "spec declares n=2 but has 1 sigma lines"),
    (["multiloop type=A rank=2 n=1 m=1", "sigma identity", "cartan h 1"],
     "cartan row needs 2 coefficients"),
    (["multiloop type=A rank=2 n=1 m=2", "sigma identity", "cartan"],
     "spec line 3: bad cartan line"),
    (["multiloop type=A rank=2 n=1 bogus", "sigma identity"],
     "spec line 1: bad header token 'bogus'"),
    (["multiloop type=A rank=1 n=1 m=2", "sigma torus a"],
     "spec line 2: bad torus weight 'a'"),
    (["multiloop type=A rank=2 n=1 m=2", "sigma identity", "cartan h 1/0 0"],
     "spec line 3: bad cartan coefficient '1/0'"),
    (["multiloop type=A rank=2 n=1 m=2", "sigma torus 0 0"],
     "spec line 2: torus weights must be nonzero"),
    (["multiloop type=A rank=2 n=1 m=2", "sigma diagram 1 x"],
     "spec line 2: bad permutation entry 'x'"),
    (["multiloop type=A rank=2 n=1 m=1", "sigma identity", "cartan h 100 -7"],
     "spec line 3: the cartan rows give no relative root system: "
     "non-integral height for (114,)"),
    (["multiloop type=A rank=2 n=1 m=1", "sigma identity", "# two rows",
      "cartan h -3 1", "cartan h -3 1"],
     "spec lines 4, 5: the cartan rows give no relative root system: "
     "non-integral height for (5, 5)"),
], ids=["no-header", "unknown-directive", "bad-cartan", "bad-permutation",
        "torus-weights", "sigma-count", "cartan-row-length", "bare-cartan",
        "header-token", "torus-weight-literal", "cartan-coefficient",
        "zero-torus-weight", "permutation-entry", "cartan-projection",
        "cartan-projection-two-rows"])
def test_malformed_spec_is_a_usage_error(capsys, tmp_path, lines, message):
    text = "\n".join(lines) + "\n"
    path = tmp_path / "spec.ml"
    path.write_text(text)
    for cmd in ("grading", "lietorus"):
        code, out, err = run(capsys, cmd, str(path))
        assert code == 1 and out == ""
        assert err == "usage error: %s\n" % message
    with pytest.raises(SpecError) as info:
        graded_from_spec(*parse_spec_file(text, 2))
    assert str(info.value) == message


def test_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("MULTILOOP_PRECISION", "abc")
    monkeypatch.setenv("MULTILOOP_CONDUCTOR", "3")
    code, out, _ = run(capsys, "--precision", "5", "--format", "machine",
                       "cocycle", "enumerate", "--n", "0")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["precision"] == 5 and config["conductor"] == 3


def test_laurent_factor_multiplies_laurent_polynomials(capsys, monkeypatch):
    # the traced factor_series benchmark requires the scalars.LaurentPoly.mul
    # span: series over Q[x^+-1] must multiply their coefficients through
    # LaurentPoly.__mul__
    calls = []
    mul = LaurentPoly.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counting)
    code, out, _ = run(capsys, "factor", str(FIXTURES / "word_laurent.txt"))
    assert code == 0 and "residual=identity" in out
    assert len(calls) > 0


def _word_file(tmp_path, name, letters):
    path = tmp_path / name
    path.write_text("algebra A 2\nground Q\nword ring=series letters=%d\n%s\n"
                    % (len(letters), "\n".join(letters)))
    return str(path)


def test_factor_verify_replay_respects_word_precision(capsys, tmp_path):
    # a report made from prec-20 letters must not certify t^8 against the
    # same word known only modulo t^5
    letters = ["X (1,1) [(-1, %s, [1/1,2/1,3/1])]",
               "X (-1,2) [(-2, %s, [1/1,0/1,5/1,1/1])]"]
    w20 = _word_file(tmp_path, "w20.txt", [x % 20 for x in letters])
    w5 = _word_file(tmp_path, "w5.txt", [x % 5 for x in letters])
    code, out, _ = run(capsys, "--precision", "8", "factor", w20)
    assert code == 0
    report = tmp_path / "report.txt"
    report.write_text(out)
    code, _, _ = run(capsys, "--precision", "8", "factor", w5)
    assert code == 3
    code, out, err = run(capsys, "--precision", "8", "factor", w5,
                         "--verify", str(report))
    assert code == 3
    assert "True" not in out and "modulo t^3 < t^8" in err


def test_factor_verify_wrong_report_fails(capsys, tmp_path):
    code, out, _ = run(capsys, "factor", str(FIXTURES / "word_three.txt"))
    report = tmp_path / "report.txt"
    report.write_text(out.replace("[(1, inf, [3/1])]", "[(1, inf, [4/1])]"))
    code, out, _ = run(capsys, "factor", str(FIXTURES / "word_three.txt"),
                       "--verify", str(report))
    assert code == 2 and "verdict: fail" in out


def test_factor_verify_names_the_report_line(capsys, tmp_path):
    code, out, _ = run(capsys, "factor", str(FIXTURES / "word_three.txt"))
    lines = out.splitlines()
    assert lines[12] == "  X (-1,2) [(1, inf, [3/1])]"
    lines[12] = lines[12].replace("3/1", "3/x")
    report = tmp_path / "report.txt"
    report.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "factor", str(FIXTURES / "word_three.txt"),
                         "--verify", str(report))
    assert code == 1 and out == ""
    assert err == ("usage error: report line 13: bad letter "
                   "'X (-1,2) [(1, inf, [3/x])]'\n")


def test_factor_zero_at_precision_letter_exhausts(capsys, tmp_path):
    # X(O(t^12)) is known only modulo t^12
    word = _word_file(tmp_path, "w.txt", ["X (1,1) [(0, 12, [])]"])
    code, out, err = run(capsys, "--precision", "20", "factor", word)
    assert code == 3 and "certificate" not in out
    assert "modulo t^12 < t^20" in err


def test_factor_cancelling_word_exhausts(capsys, tmp_path):
    # the prec-6 letter cancels against an exact one; exact completions of
    # it leave a residual of valuation 6, so t^8 cannot be certified
    word = _word_file(tmp_path, "w.txt", [
        "X (1,1) [(-2, 6, [2/1,1/1])]",
        "X (2,-1) [(-2, inf, [2/1])]",
        "X (1,1) [(-2, inf, [-2/1,-1/1])]"])
    code, out, err = run(capsys, "--precision", "8", "factor", word)
    assert code == 3 and "certificate" not in out
    assert "modulo t^4 < t^8" in err


# Text reports pinned byte for byte, so that the theta serialization and the
# counts cannot move.
GOLDEN_COCYCLE = [
    ('cocycle enumerate --n 2 --gamma0 S3 --coeff Z2',
     'command: cocycle enumerate --n 2 --gamma0 S3 --coeff Z2\n'
     'config budget_coeff=24\n'
     'config budget_gamma=96\n'
     'config conductor=2\n'
     'config precision=8\n'
     'config seed=0\n'
     'classes: 8\n'
     'cocycles: 8\n'
     'verdict: pass\n'),
    ('--conductor 3 cocycle infres --n 1 --gamma0 Z2 --coeff Z3',
     'command: --conductor 3 cocycle infres --n 1 --gamma0 Z2 --coeff Z3\n'
     'config budget_coeff=24\n'
     'config budget_gamma=96\n'
     'config conductor=3\n'
     'config precision=8\n'
     'config seed=0\n'
     'inflation_image: 3\n'
     'kernel_of_restriction: 3\n'
     'quotient_classes: 3\n'
     'total_classes: 9\n'
     'verdict: pass\n'),
    ('--conductor 3 cocycle enumerate --n 1 --gamma0 Z2 --coeff Z3 '
     '--galois-inverts',
     'command: --conductor 3 cocycle enumerate --n 1 --gamma0 Z2 --coeff Z3 '
     '--galois-inverts\n'
     'config budget_coeff=24\n'
     'config budget_gamma=96\n'
     'config conductor=3\n'
     'config precision=8\n'
     'config seed=0\n'
     'classes: 3\n'
     'cocycles: 9\n'
     'verdict: pass\n'),
    ('cocycle diagonal --n 1 --coeff Z2 --discrepancy 2',
     'command: cocycle diagonal --n 1 --coeff Z2 --discrepancy 2\n'
     'config budget_coeff=24\n'
     'config budget_gamma=96\n'
     'config conductor=2\n'
     'config precision=8\n'
     'config seed=0\n'
     'power: 2\n'
     'theta:\n'
     '  cocycle\n'
     '    ((0,), 0) -> 0\n'
     '    ((1,), 0) -> 0\n'
     'verdict: pass\n'),
    ('--conductor 4 cocycle diagonal --n 1 --coeff Z4 --discrepancy 4',
     'command: --conductor 4 cocycle diagonal --n 1 --coeff Z4 '
     '--discrepancy 4\n'
     'config budget_coeff=24\n'
     'config budget_gamma=96\n'
     'config conductor=4\n'
     'config precision=8\n'
     'config seed=0\n'
     'power: 4\n'
     'theta:\n'
     '  cocycle\n'
     '    ((0,), 0) -> 0\n'
     '    ((1,), 0) -> 0\n'
     '    ((2,), 0) -> 0\n'
     '    ((3,), 0) -> 0\n'
     'verdict: pass\n'),
    ('cocycle diagonal --n 1 --gamma0 Z2 --coeff S3 --discrepancy 2',
     'command: cocycle diagonal --n 1 --gamma0 Z2 --coeff S3 --discrepancy 2\n'
     'config budget_coeff=24\n'
     'config budget_gamma=96\n'
     'config conductor=2\n'
     'config precision=8\n'
     'config seed=0\n'
     'power: 2\n'
     'theta:\n'
     '  cocycle\n'
     '    ((0,), 0) -> (0, 1, 2)\n'
     '    ((0,), 1) -> (0, 1, 2)\n'
     '    ((1,), 0) -> (0, 1, 2)\n'
     '    ((1,), 1) -> (0, 1, 2)\n'
     'verdict: pass\n'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_COCYCLE,
                         ids=["enumerate", "infres", "galois-inverts",
                              "discrepancy-2", "discrepancy-4", "S3"])
def test_cocycle_golden_stdout(capsys, argv, expected):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and out == expected
    assert err.startswith("elapsed ")


def _refuse_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a group was built for an over-budget request")

    monkeypatch.setattr(cocycle, "cover_group", refuse)
    monkeypatch.setattr(cli, "cover_group", refuse)
    monkeypatch.setattr(cocycle.FiniteGroup, "__init__", refuse)


@pytest.mark.parametrize("argv, message", [
    (["--conductor", "4", "cocycle", "enumerate", "--n", "3",
      "--gamma0", "Z2"], "cover group order 128 exceeds budget 96"),
    (["--budget-coeff", "1", "cocycle", "enumerate"],
     "coefficient group order 2 exceeds budget 1"),
    (["--budget-gamma", "1", "cocycle", "infres", "--n", "1"],
     "cover group order 2 exceeds budget 1"),
    # the quotient (order 2) fits, then |A| is checked before the cover
    (["--budget-gamma", "3", "--budget-coeff", "1", "cocycle", "infres",
      "--n", "1"], "coefficient group order 2 exceeds budget 1"),
    (["--budget-gamma", "3", "cocycle", "infres", "--n", "1"],
     "cover group order 4 exceeds budget 3"),
    (["--budget-gamma", "1", "cocycle", "diagonal", "--n", "1"],
     "cover group order 4 exceeds budget 1"),
    (["--budget-coeff", "1", "cocycle", "diagonal", "--n", "1",
      "--discrepancy", "2"], "coefficient group order 2 exceeds budget 1"),
], ids=["enumerate-gamma", "enumerate-coeff", "infres-quotient",
        "infres-coeff-before-cover", "infres-cover", "diagonal-gamma",
        "diagonal-coeff"])
def test_over_budget_requests_build_nothing(capsys, monkeypatch, argv,
                                            message):
    _refuse_building(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "exhausted: %s\n" % message


def test_cocycle_group_orders_match_their_groups():
    for table in (cli.GALOIS_GROUPS, cli.COEFF_GROUPS):
        for name, (order, make) in table.items():
            assert len(make()) == order, name


@pytest.mark.parametrize("lines, message", [
    (["X (1,1) [(0, inf, [1/0])]"],
     "word file line 4: bad letter 'X (1,1) [(0, inf, [1/0])]'"),
    (["X (1,1) [(0, inf, [1/1]"],
     "word file line 4: bad letter 'X (1,1) [(0, inf, [1/1]'"),
    (["X (5,5) [(0, inf, [1/1])]"],
     "word file line 4: (5, 5) is not a relative root"),
    (["X (1,1) [(0, inf, [1/1]);(0, inf, [2/1])]"],
     "word file line 4: root (1, 1) takes 1 parameters"),
], ids=["zero-denominator", "unterminated-series", "non-root",
        "parameter-count"])
def test_malformed_word_letter_is_a_usage_error(capsys, tmp_path, lines,
                                                message):
    path = _word_file(tmp_path, "w.txt", lines)
    code, out, err = run(capsys, "factor", path)
    assert code == 1 and out == ""
    assert err == "usage error: %s\n" % message


@pytest.mark.parametrize("text, message", [
    ("algebra A 2\nground laurentx\nword ring=series letters=0\n",
     "word file line 2: unknown ground ring 'laurentx'"),
    ("algebra A 2\nground Q\n", "word file line 2: expected a 'word' block"),
    ("algebra A\nground Q\nword ring=series letters=0\n",
     "word file line 1: expected 'algebra <type> <rank>'"),
], ids=["ground-laurentx", "no-word-block", "algebra-without-rank"])
def test_malformed_word_file_is_a_usage_error(capsys, tmp_path, text,
                                              message):
    path = tmp_path / "w.txt"
    path.write_text(text)
    code, out, err = run(capsys, "factor", str(path))
    assert code == 1 and out == ""
    assert err == "usage error: %s\n" % message


@pytest.mark.parametrize("header, message", [
    ("algebra A 27", "algebra A27 has dimension 783, over the bound 78"),
    ("algebra A 8", "algebra A8 has dimension 80, over the bound 78"),
    ("algebra E 7", "algebra E7 has dimension 133, over the bound 78"),
    ("algebra B 99999", "algebra B99999 has dimension 19999700001, over "
                        "the bound 78"),
], ids=["A27", "A8", "E7", "B99999"])
def test_word_file_algebra_over_the_bound_builds_nothing(
        capsys, monkeypatch, tmp_path, header, message):
    def refuse(*args, **kwargs):
        raise AssertionError("an algebra was built for an over-bound header")

    monkeypatch.setattr(cli, "build_chevalley_by_type", refuse)
    path = tmp_path / "w.txt"
    path.write_text("# a comment line\n%s\nground Q\n"
                    "word ring=series letters=0\n" % header)
    code, out, err = run(capsys, "factor", str(path))
    assert code == 1 and out == ""
    assert err == "usage error: word file line 2: %s\n" % message


_WORD_FIXTURES = ("word_single.txt", "word_three.txt", "word_laurent.txt")
_FUZZ_ALPHABET = "0123456789-/,;()[]X xinf#\n"


def _run_quiet(argv):
    """main(argv) with stdout and stderr captured; an exception escaping
    main is returned as its traceback text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


@st.composite
def _mutated(draw, text, start):
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(start, len(chars)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert" or pos == len(chars):
            chars.insert(pos, draw(st.sampled_from(_FUZZ_ALPHABET)))
        elif op == "delete":
            del chars[pos]
        else:
            chars[pos] = draw(st.sampled_from(_FUZZ_ALPHABET))
    return "".join(chars)


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mutated_word_files_exit_cleanly(data):
    # character mutations of the word fixtures, headers included (a header
    # naming an algebra over the dimension bound is refused before it is
    # built), and of a report checked by --verify: a documented exit code,
    # no traceback, one message line
    which = data.draw(st.sampled_from(_WORD_FIXTURES + ("report",)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.txt"
        if which == "report":
            code, report, _ = _run_quiet(
                ["factor", str(FIXTURES / "word_three.txt")])
            assert code == 0
            path.write_text(data.draw(_mutated(report, 0)))
            argv = ["factor", str(FIXTURES / "word_three.txt"),
                    "--verify", str(path)]
        else:
            text = (FIXTURES / which).read_text()
            path.write_text(data.draw(_mutated(text, 0)))
            argv = ["factor", str(path)]
        code, _, err = _run_quiet(argv)
    assert code in (0, 1, 2, 3), code
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines()
                if not ln.startswith("elapsed")]) <= 1, err
