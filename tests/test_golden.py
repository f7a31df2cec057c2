"""Golden bytes for the printed-formula renderers, the ansatz fitter and
the value tables.

Each file under ``tests/golden`` is the exact stdout of one ``moments``
command, trailing newline included, so a change to how a formula is
stored, evaluated or rendered, or to how ``verify`` computes its checks,
must leave these bytes as they are.  The
rediscovery report, the m <= 16, n <= 60 value tables, the even-D
searches and the theorem closed forms at every reading of their switches
are pinned by their sha256 digests instead of files of 41 KB to about
0.7 MB each.
"""

import hashlib
import json
from pathlib import Path

import pytest

from binomial_moments import moments
from binomial_moments.cli import main
from binomial_moments.conjecture import SearchConfig, explore_D_even, rediscover_all

GOLDEN = Path(__file__).resolve().parent / "golden"

# sha256 of json.dumps(rediscover_all().to_dict(), indent=2), 41047 bytes.
REDISCOVERY_SHA256 = "79404565b855609f7e7522c51e69e460da7afb7274076b80210abd31239740d6"

# sha256 of the stdout of `moments table --m-max 16 --n-max 60 --methods M
# --format json`, 574266 bytes (oracle), 526836 bytes (theorem) and 346575
# bytes (corollary, validity notes included).
TABLE_M16_N60_SHA256 = {
    "oracle": "c12c8b239fb3d49e90d4ab3c1fcd7c1fb11dd30013ef1a253824e8992f56179a",
    "theorem": "8d620390a03ada2447cb2d23c36791958b94234ae79e65e1a1de2f8a3be9b41a",
    "corollary": "f5796e73571a9fc145856ecba0f836a2c157f9085ae97f8b03479fe6fdc18426",
}

# Every theorem closed form at each reading of its switch, the default and
# the rejected one, for 1 <= t <= 10 and 1 <= n <= 60 (odd C only where
# n > t + 1).  The tables above pin only the default readings.  sha256 of
# the lines "name switch=reading t n value", 414405 bytes.
CLOSED_FORM_READINGS = (
    ("even_moment_a", None, (None,)),
    ("odd_moment_a", None, (None,)),
    ("even_moment_b", None, (None,)),
    ("odd_moment_b", None, (None,)),
    ("even_moment_c", "global_sign", (True, False)),
    ("odd_moment_c", "shifted_sigma", (True, False)),
    ("odd_moment_d", "sign_first_term_only", (True, False)),
)
CLOSED_FORM_READINGS_SHA256 = "b075cdd599d3bf3c181456b095edb660d3b65bca57545e80501f55aa185ffb51"

# sha256 of the stdout of `moments discover D even T` at the default search
# bounds, 209264, 230185, 251900 and 271287 bytes for T = 0..3.
DISCOVER_D_EVEN_SHA256 = {
    0: "dbb27e3f0b1a63f277669c49ba6b22ef7aeaeab17462a2b18860d7a0326b7764",
    1: "07e009e30609ddd33791ea3eb710653c02550dd3eb6494c0bbeeb99225a9aee2",
    2: "af8f643128c3ee9fe63c7c89c3525109105463d1bdba8e7bea02359c37e07ced",
    3: "e9fddf105adb29d858f9cc04f9e2bc6dd93dd753ff907058888a32b5ecfb1aaf",
}

# sha256 of json.dumps([c.to_dict() for c in explore_D_even(M, WIDE_SEARCH)],
# indent=2), 541964, 606470, 681876 and 740620 bytes for M = 0..3.  At M = 0
# the first node moves past the int roots, so the samples depend on the roots.
WIDE_SEARCH = SearchConfig(max_degree=6, max_roots=3)
EXPLORE_D_EVEN_WIDE_SHA256 = {
    0: "508005e35a9c3de2ce8f76c3e5b9f9403b1b1aa0998e190c37a560648eec0e59",
    1: "d40f63de92437350101e38cba8188ac5755238cd96ea9807b59e48702308ac6f",
    2: "609bca000a644d55c84614305e1f7642fa35366a352e91a1734341d53530513d",
    3: "3441b607bfee7bfa1c866ea04240a993facfddecbaf00f7ea5bc73bf8053535b",
}


def stdout_of(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out.encode()


@pytest.mark.parametrize(
    "fmt, suffix", [("json", "json"), ("csv", "csv"), ("markdown", "md"), ("latex", "tex")]
)
def test_corollary_table(capsys, fmt, suffix):
    out = stdout_of(capsys, "table", "--corollaries", "--m-max", "16", "--format", fmt)
    assert out == (GOLDEN / f"corollaries_m16.{suffix}").read_bytes()


@pytest.mark.parametrize(
    "family, parity, m",
    [
        ("A", "even", 0),
        ("A", "even", 3),
        ("B", "even", 0),
        ("B", "odd", 4),
        ("C", "even", 5),
        ("C", "odd", 2),
        ("C", "odd", 6),
        ("D", "odd", 4),
        ("D", "odd", 6),
        ("B", "even", 9),
    ],
)
def test_closed_form_discover(capsys, family, parity, m):
    out = stdout_of(capsys, "discover", family, parity, str(m))
    assert out == (GOLDEN / f"discover_{family}_{parity}_{m}.json").read_bytes()


def test_open_case_search(capsys):
    argv = ("discover", "D", "even", "1", "--max-degree", "1", "--max-roots", "1")
    out = stdout_of(capsys, *argv)
    assert out == (GOLDEN / "discover_D_even_1_deg1_roots1.json").read_bytes()


@pytest.mark.parametrize("t", sorted(DISCOVER_D_EVEN_SHA256))
def test_open_case_search_digest(capsys, t):
    out = stdout_of(capsys, "discover", "D", "even", str(t))
    assert hashlib.sha256(out).hexdigest() == DISCOVER_D_EVEN_SHA256[t]


@pytest.mark.parametrize("m", sorted(EXPLORE_D_EVEN_WIDE_SHA256))
def test_wide_even_d_search_digest(m):
    text = json.dumps([c.to_dict() for c in explore_D_even(m, WIDE_SEARCH)], indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPLORE_D_EVEN_WIDE_SHA256[m]


def test_flagship_verify_report(capsys):
    out = stdout_of(capsys, "verify", "--m-max", "8", "--n-max", "30", "--seed", "0")
    assert out == (GOLDEN / "verify_m8_n30_seed0.json").read_bytes()


def test_verify_report_past_flagship(capsys):
    # m = 12 pins the sigma routes where their ints are wider than at the flagship.
    out = stdout_of(capsys, "verify", "--m-max", "12", "--n-max", "12", "--seed", "0")
    assert out == (GOLDEN / "verify_m12_n12_seed0.json").read_bytes()


@pytest.mark.parametrize("method", ["oracle", "theorem", "corollary"])
def test_value_table(capsys, method):
    argv = ("table", "--m-max", "8", "--n-max", "30", "--methods", method, "--format", "csv")
    out = stdout_of(capsys, *argv)
    assert out == (GOLDEN / f"table_{method}_m8_n30.csv").read_bytes()


@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("markdown", "md"), ("latex", "tex")])
def test_value_table_layout(capsys, fmt, suffix):
    out = stdout_of(capsys, "table", "--m-max", "4", "--n-max", "6", "--format", fmt)
    assert out == (GOLDEN / f"table_m4_n6.{suffix}").read_bytes()


def test_corollary_table_family_subset(capsys):
    out = stdout_of(capsys, "table", "--corollaries", "--families", "B,D", "--format", "latex")
    assert out == (GOLDEN / "corollaries_BD_m8.tex").read_bytes()


@pytest.mark.parametrize("method", sorted(TABLE_M16_N60_SHA256))
def test_large_value_table_digest(capsys, method):
    argv = ("table", "--m-max", "16", "--n-max", "60", "--methods", method, "--format", "json")
    out = stdout_of(capsys, *argv)
    assert hashlib.sha256(out).hexdigest() == TABLE_M16_N60_SHA256[method]


def test_rediscovery_report_digest():
    text = json.dumps(rediscover_all().to_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == REDISCOVERY_SHA256


def test_closed_form_readings_digest():
    lines = []
    for name, switch, readings in CLOSED_FORM_READINGS:
        form = getattr(moments, name)
        for reading in readings:
            kwargs = {} if switch is None else {switch: reading}
            for t in range(1, 11):
                for n in range(1, 61):
                    if name == "odd_moment_c" and n <= t + 1:
                        continue
                    lines.append(f"{name} {switch}={reading} {t} {n} {form(t, n, **kwargs)}\n")
    text = "".join(lines).encode()
    assert hashlib.sha256(text).hexdigest() == CLOSED_FORM_READINGS_SHA256
