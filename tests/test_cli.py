import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from binomial_moments import cli, conjecture, moments, verify
from binomial_moments.cli import main
from binomial_moments.conjecture import SearchConfig, search_catalogue
from binomial_moments.errors import DomainError, SingularSystem


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_oracle_value(self, capsys):
        code, out, err = run(capsys, "eval", "A", "2", "3", "oracle")
        assert code == 0
        assert out.strip() == "48"
        assert "method=oracle" in err

    def test_theorem_value(self, capsys):
        code, out, err = run(capsys, "eval", "B", "6", "5", "theorem")
        assert code == 0
        assert out.strip() == "0"

    def test_rational_output(self, capsys):
        code, out, _ = run(capsys, "eval", "C", "0", "2", "corollary")
        assert code == 0
        assert out.strip() == "6"
        code, out, _ = run(capsys, "eval", "C", "2", "5", "oracle")
        assert out.strip() == "-15/7"

    def test_open_case_exit_code(self, capsys):
        code, out, err = run(capsys, "eval", "D", "0", "5", "theorem")
        assert code == 3
        assert "open" in err

    def test_usage_errors(self, capsys):
        assert run(capsys, "eval", "E", "2", "3")[0] == 2  # bad family
        assert run(capsys, "eval", "A", "2", "0")[0] == 2  # bad n
        assert run(capsys, "eval", "A", "0", "5", "theorem")[0] == 2  # guard
        assert run(capsys, "eval", "A", "2", "3", "magic")[0] == 2  # bad method
        assert run(capsys, "eval", "C", "9", "4", "corollary")[0] == 2  # below guard

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "value.txt"
        code, out, _ = run(capsys, "eval", "D", "1", "2", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == "9\n"

    def test_value_past_the_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "eval", "A", "1", "8000", "theorem")
        assert code == 0
        expected = math.comb(16000, 8000) * 4000  # A_1(n) = C(2n, n) n / 2
        digits = out.strip()
        assert len(digits) > 4300 and len(digits) == math.floor(math.log10(expected)) + 1
        assert digits[-40:] == f"{expected % 10**40:040d}"
        assert sys.get_int_max_str_digits() == limit


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-max", "3", "--n-max", "6", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert "oracle-vs-theorem-grid" in names
        assert "variant-evidence-c-odd-sigma-argument" in names
        assert "variant-evidence-d-odd-sign-placement" in names
        assert "variant-evidence-c-even-global-sign" in names
        for check in report["checks"]:
            if check["name"].startswith("variant-evidence"):
                assert len(check["details"]["witnesses"]) >= 2
                assert check["status"] == "pass"

    def test_family_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--families", "B", "--m-max", "3", "--n-max", "3")
        assert code == 0
        report = json.loads(out)
        names = [c["name"] for c in report["checks"]]
        assert "b-even-vanishing" in names
        assert "variant-evidence-c-odd-sigma-argument" not in names
        corr = next(c for c in report["checks"] if c["name"] == "oracle-vs-corollary-table")
        assert corr["cases"] > 0  # includes the chi(n=1) line at m=2

    def test_deterministic_output(self, capsys):
        args = ("verify", "--m-max", "2", "--n-max", "5", "--seed", "9")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_corrupted_table_fails_with_witness(self, capsys, monkeypatch):
        broken = replace(moments.COROLLARIES[("A", 2)], numerators=((0, 2),))
        monkeypatch.setitem(moments.COROLLARIES, ("A", 2), broken)
        code, out, err = run(capsys, "verify", "--families", "A", "--m-max", "2", "--n-max", "4")
        assert code == 1
        report = json.loads(out)
        assert report["all_pass"] is False
        corr = next(c for c in report["checks"] if c["name"] == "oracle-vs-corollary-table")
        assert corr["status"] == "fail"
        witness = corr["witness"]
        assert witness["family"] == "A" and witness["m"] == 2
        assert {"n", "lhs", "rhs"} <= set(witness)
        assert "oracle-vs-corollary-table" in err

    @pytest.mark.parametrize("route", ["sigma_monomial", "sigma_explicit"])
    def test_broken_sigma_route_fails_three_way(self, capsys, monkeypatch, route):
        correct = getattr(verify, route)

        def off_by_one_power_of_q(m, ell, y):
            # the route's common denominator q^e with e one too large
            return correct(m, ell, y) / Fraction(y).denominator

        monkeypatch.setattr(verify, route, off_by_one_power_of_q)
        code, out, err = run(capsys, "verify", "--m-max", "3", "--n-max", "4")
        assert code == 1
        report = json.loads(out)
        assert [c["name"] for c in report["checks"] if c["status"] == "fail"] == ["sigma-three-way"]
        witness = next(c for c in report["checks"] if c["name"] == "sigma-three-way")["witness"]
        key = route.removeprefix("sigma_")
        assert set(witness) == {"m", "l", "y", "series", key}
        assert witness[key] != witness["series"]
        assert "FAIL sigma-three-way" in err

    def test_raising_check_fails_alone(self, capsys, monkeypatch):
        args = ("verify", "--m-max", "2", "--n-max", "4", "--seed", "3")
        _, clean, _ = run(capsys, *args)

        def boom(config):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(verify, "check_lambda_identity", boom)
        code, out, err = run(capsys, *args)
        assert code == 1
        report, before = json.loads(out), json.loads(clean)
        assert report["all_pass"] is False
        assert [c["name"] for c in report["checks"]] == [c["name"] for c in before["checks"]]
        for check, expected in zip(report["checks"], before["checks"]):
            if check["name"] != "lambda-vanishing-identity":
                assert check == expected  # every other check still ran
        failed = next(c for c in report["checks"] if c["name"] == "lambda-vanishing-identity")
        assert failed["status"] == "fail" and failed["cases"] == 0
        assert failed["witness"] == {"error": "ZeroDivisionError: boom"}
        assert failed["details"]["raised_at"].startswith("test_cli.py:")
        assert "FAIL lambda-vanishing-identity" in err

    @pytest.mark.parametrize("config", [None, {"m_max": 2}, (("A",), 2, 4, 0)])
    def test_run_verification_refuses_a_non_config(self, config):
        # before, each raised AttributeError: ... has no attribute 'families'
        with pytest.raises(DomainError, match="^run_verification needs a VerifyConfig"):
            verify.run_verification(config)

    def test_raising_checks_keep_their_names(self, monkeypatch):
        config = verify.VerifyConfig(m_max=1, n_max=2)
        names = [c.name for c in verify.run_verification(config).checks]

        def boom(*args):
            raise RuntimeError("boom")

        for attr in dir(verify):
            if attr.startswith("check_"):
                monkeypatch.setattr(verify, attr, boom)
        report = verify.run_verification(config)
        assert [c.name for c in report.checks] == names
        assert all(c.status == "fail" for c in report.checks)

    def test_bracket_form_disagreement_fails_with_witness(self, capsys, monkeypatch):
        first_form = moments.c_even_first_form

        def corrupted(t, n):
            return first_form(t, n) + (1 if (t, n) == (1, 3) else 0)

        monkeypatch.setattr(moments, "c_even_first_form", corrupted)
        code, out, err = run(capsys, "verify", "--families", "C", "--m-max", "2", "--n-max", "4")
        assert code == 1
        report = json.loads(out)
        check = next(c for c in report["checks"] if c["name"] == "c-even-two-bracket-forms")
        f2 = moments.even_moment_c(1, 3)
        assert check["status"] == "fail" and check["cases"] == 3
        assert check["witness"] == {
            "t": 1,
            "n": 3,
            "error": f"bracket forms disagree at t=1, n=3: {f2 + 1} vs {f2}",
        }
        assert "c-even-two-bracket-forms" in err

    def test_first_witness_counts_the_failing_case_and_stops(self):
        @verify._first_witness
        def toy():
            yield None
            yield None
            yield {"case": 3}
            raise AssertionError("resumed after the first witness")

        @verify._first_witness
        def passing():
            yield from (None, None)

        assert toy() == (3, {"case": 3})
        assert passing() == (2, None)
        assert toy.__name__ == "toy" and inspect.isgeneratorfunction(toy.__wrapped__)

    def test_every_grid_check_wraps_a_generator(self):
        evidence = {
            "check_c_odd_argument_evidence",
            "check_c_even_sign_evidence",
            "check_d_odd_sign_evidence",
        }
        checks = {name: obj for name, obj in vars(verify).items() if name.startswith("check_")}
        assert len(checks) == 17 and evidence <= set(checks)
        for name, check in checks.items():
            if name in evidence:
                assert not hasattr(check, "__wrapped__"), name
            else:
                assert inspect.isgeneratorfunction(check.__wrapped__), name
                assert check.__name__ == name and check.__module__ == verify.__name__

    def test_series_telescoping_is_pinned(self):
        assert verify.check_series_telescoping(verify.VerifyConfig()) == (90, None)

    @pytest.mark.parametrize("k, cases, n, ell", [(1, 1, 1, 0), (7, 5, 1, 4), (17, 73, 9, 0)])
    def test_perturbed_factor_fails_telescoping(self, monkeypatch, k, cases, n, ell):
        """Factor j of the products at n has ratio (n - j - 1/2)^2.  Perturbing
        the ratio (k/2)^2 breaks the step at the first (n, l) in grid order
        with |2n - 2l - 1| = k, although every later product shares it."""
        geometric = verify.geometric
        target = Fraction(k, 2) ** 2

        def perturbed(c, order):
            return geometric(c + 1 if c == target else c, order)

        monkeypatch.setattr(verify, "geometric", perturbed)
        assert verify.check_series_telescoping(verify.VerifyConfig()) == (
            cases,
            {"n": n, "l": ell},
        )

    def test_invalid_config(self, capsys):
        assert run(capsys, "verify", "--families", "Q")[0] == 2
        assert run(capsys, "verify", "--n-max", "0")[0] == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("families", ("Q",)),
            ("families", "AB"),
            ("families", ["A", "B"]),
            ("families", ("A", "A")),
            ("m_max", -1),
            ("n_max", 0),
            ("m_max", 2.5),
            ("n_max", 4.0),
            ("m_max", True),
            ("seed", 1.5),
        ],
    )
    def test_invalid_config_object(self, field, value):
        with pytest.raises(DomainError):
            verify.VerifyConfig(**{field: value})


class TestDiscover:
    def test_rediscovers_printed_line(self, capsys):
        code, out, _ = run(capsys, "discover", "A", "even", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["matches_printed"] is True
        assert payload["candidate"]["status"] == "verified"

    def test_c_odd_line_with_guard(self, capsys):
        code, out, _ = run(capsys, "discover", "C", "odd", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["matches_printed"] is True
        assert payload["note"] == "valid for n > 3"

    def test_open_case_search(self, capsys):
        code, out, _ = run(
            capsys, "discover", "D", "even", "1", "--max-degree", "1", "--max-roots", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "open-case-search"
        assert payload["attempted"] == len(payload["candidates"]) + payload["skipped_singular"]
        assert payload["verified_count"] == 0
        assert all(c["status"] == "refuted" for c in payload["candidates"])

    def test_open_case_search_builds_the_catalogue_once(self, capsys, monkeypatch):
        builds = []

        def counting(config):
            builds.append(config)
            return search_catalogue(config)

        for module in (cli, conjecture):
            if hasattr(module, "search_catalogue"):
                monkeypatch.setattr(module, "search_catalogue", counting)
        code, out, _ = run(capsys, "discover", "D", "even", "1")
        assert code == 0
        assert builds == [SearchConfig()]
        assert json.loads(out)["attempted"] == len(search_catalogue(SearchConfig()))

    def test_singular_shapes_are_counted_as_skipped(self, capsys, monkeypatch):
        catalogue = search_catalogue(SearchConfig(max_degree=1, max_roots=1))
        singular = set(catalogue[::3])
        real_fit = conjecture.fit

        def fit(family, power, ansatz):
            if ansatz in singular:
                raise SingularSystem("forced for the test")
            return real_fit(family, power, ansatz)

        monkeypatch.setattr(conjecture, "fit", fit)
        code, out, _ = run(
            capsys, "discover", "D", "even", "1", "--max-degree", "1", "--max-roots", "1"
        )
        assert code == 0
        payload = json.loads(out)
        k = len(singular)
        assert 0 < k < len(catalogue)
        assert payload["attempted"] == len(catalogue)
        assert payload["skipped_singular"] == k
        assert len(payload["candidates"]) == payload["attempted"] - k
        kept = [a.describe() for a in catalogue if a not in singular]
        assert [c["ansatz"] for c in payload["candidates"]] == kept

    def test_usage(self, capsys):
        assert run(capsys, "discover", "A", "sideways", "1")[0] == 2
        assert run(capsys, "discover", "A", "even", "-1")[0] == 2
        # the search flags bound the even-D catalogue; before, a fit path ignored them
        code, _, err = run(capsys, "discover", "D", "odd", "1", "--max-roots", "1")
        assert code == 2
        assert err == "error: --max-degree and --max-roots bound only discover D even\n"


class TestTable:
    def test_csv_values(self, capsys):
        code, out, _ = run(
            capsys, "table", "--families", "A", "--m-max", "4", "--n-max", "6", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,m,n,value"
        # all three methods exist for A at m = 1..4 (m = 0 has no closed form)
        assert len(lines) == 1 + 4 * 6
        assert "A,2,3,48" in lines

    def test_json_records(self, capsys):
        code, out, _ = run(
            capsys, "table", "--families", "C", "--m-max", "2", "--n-max", "4", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert {"family", "m", "n", "method", "value", "note"} == set(records[0])
        hits = [r for r in records if (r["m"], r["n"]) == (2, 2)]
        assert {r["value"] for r in hits} == {"3"}
        assert {r["method"] for r in hits} == {"oracle", "theorem", "corollary"}

    def test_oracle_only_covers_everything(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--families",
            "D",
            "--m-max",
            "2",
            "--n-max",
            "3",
            "--methods",
            "oracle",
        )
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 3 * 3

    def test_latex_corollaries_one_tabular_per_family(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "latex", "--corollaries", "--m-max", "10")
        assert code == 0
        assert out.count(r"\begin{tabular}") == 4
        assert out.count(r"\end{tabular}") == 4
        assert r"2^{2n-2}n" in out

    def test_markdown_and_csv_corollaries(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "markdown", "--corollaries")
        assert code == 0
        assert out.startswith("| family |")
        code, out, _ = run(capsys, "table", "--format", "csv", "--corollaries", "--families", "B")
        rows = out.strip().splitlines()
        assert rows[0] == "family,m,min_n,formula"
        assert any(r.startswith("B,2,1") for r in rows)

    def test_determinism(self, capsys):
        args = ("table", "--families", "B", "--m-max", "3", "--n-max", "5", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "table", "--families", "A", "--m-max", "1", "--n-max", "2", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("family,m,n,value")


# Every error path of the command line, with the exit code it must map to.
# MISSING stands for a path inside a directory that does not exist.
MISSING = "<missing>"
ERROR_PATHS = [
    (["eval", "E", "2", "3"], 2),  # unknown family
    (["eval", "A", "-1", "3"], 2),  # negative exponent
    (["eval", "A", "2", "0"], 2),  # size below 1
    (["eval", "A", "two", "3"], 2),  # not an integer
    (["eval", "A", "2", "3", "magic"], 2),  # unknown method
    (["eval", "A", "0", "5", "theorem"], 2),  # closed-form precondition
    (["eval", "C", "3", "2", "theorem"], 2),  # odd-C guard n > t + 1
    (["eval", "C", "9", "4", "corollary"], 2),  # printed guard
    (["eval", "A", "11", "3", "corollary"], 2),  # no printed formula
    (["eval", "D", "0", "5", "theorem"], 3),  # open case
    (["eval", "A", "2", "3", "--out", MISSING], 2),  # unwritable output
    (["verify", "--families", "Q"], 2),
    (["verify", "--families", ""], 2),
    (["verify", "--m-max", "-1"], 2),
    (["verify", "--n-max", "0"], 2),
    (["verify", "--jobs", "2"], 2),  # removed option
    (["verify", "--m-max", "0", "--n-max", "1", "--out", MISSING], 2),
    (["discover", "E", "even", "1"], 2),
    (["discover", "A", "sideways", "1"], 2),
    (["discover", "A", "even", "-1"], 2),
    (["discover", "A", "even", "1", "--holdout", "-1"], 2),  # removed option
    (["discover", "D", "even", "1", "--holdout", "-1"], 2),  # removed option
    (["discover", "A", "even", "1", "--holdout", "3"], 2),  # removed option
    (["discover", "A", "even", "1", "--out", MISSING], 2),
    (["discover", "A", "even", "3", "--max-degree", "2"], 2),  # a search flag on a fit path
    (["discover", "A", "even", "3", "--max-degree", "-5"], 2),
    (["discover", "D", "even", "0", "--max-degree", "-5"], 2),  # a negative search bound
    (["discover", "A", "even", "1", "--n-start", "3"], 2),  # removed option
    (["table", "--families", "Q"], 2),
    (["table", "--families", ","], 2),
    (["table", "--methods", "magic"], 2),
    (["table", "--methods", ","], 2),
    (["table", "--m-max", "-1"], 2),
    (["table", "--n-max", "0"], 2),
    (["table", "--n-max", "0", "--corollaries"], 2),
    (["table", "--format", "xml"], 2),
    (["table", "--seed", "0"], 2),  # removed option
    (["table", "--jobs", "2"], 2),  # removed option
    (["table", "--corollaries", "--out", MISSING], 2),
    ([], 2),  # no subcommand
]


@pytest.mark.parametrize("argv, code", ERROR_PATHS, ids=[" ".join(a) for a, _ in ERROR_PATHS])
def test_error_path_exit_code(capsys, tmp_path, argv, code):
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    got, out, err = run(capsys, *[missing if a == MISSING else a for a in argv])
    assert got == code
    assert out == ""
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_2_without_traceback(unbuffered):
    """``python -m binomial_moments table ... | head -n 1``: the reader takes
    one line of a 574 kB report and closes the pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["table", "--m-max", "16", "--n-max", "60", "--methods", "oracle", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, "-m", "binomial_moments", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines() == ["error: stdout was closed before the output was written"]
