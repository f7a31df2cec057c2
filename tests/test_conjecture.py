import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomial_moments import conjecture, moments
from binomial_moments.conjecture import (
    Ansatz,
    AnsatzTerm,
    RediscoveryEntry,
    RediscoveryReport,
    SearchConfig,
    explore_D_even,
    fit,
    fitting_nodes,
    printed_forms,
    rediscover_all,
    search_catalogue,
    solve_exact,
)
from binomial_moments.errors import DomainError, Inconsistent, SingularSystem
from binomial_moments.moments import PREFACTORS, MomentQuery, family_ansatz, oracle

F = Fraction


# A well-formed record: the printed A_0 and its refit.
_A0 = moments.COROLLARIES[("A", 0)]
ENTRY = RediscoveryEntry(_A0, fit("A", 0, _A0.ansatz))
QUADRATIC = Ansatz((AnsatzTerm("unit", 2),))


class TestSolveExact:
    def test_identity(self):
        rhs = [F(3), F(-1, 2), F(7)]
        eye = [[F(int(i == j)) for j in range(3)] for i in range(3)]
        assert solve_exact(eye, rhs) == rhs

    def test_two_by_two(self):
        assert solve_exact([[1, 1], [1, 2]], [3, 5]) == [F(1), F(2)]

    def test_power_of_two_vandermonde(self):
        # rows 2^(2n-2) * (1, n) against A_2 values: the n coefficient is 1
        rows, rhs = [], []
        for n in range(1, 5):
            p = F(2) ** (2 * n - 2)
            rows.append([p, p * n])
            rhs.append(oracle(MomentQuery("A", 2, n)))
        assert solve_exact(rows, rhs) == [F(0), F(1)]

    def test_singular(self):
        with pytest.raises(SingularSystem):
            solve_exact([[1, 2], [2, 4]], [1, 2])
        with pytest.raises(SingularSystem):
            solve_exact([[1, 2]], [1])  # fewer equations than unknowns

    def test_inconsistent(self):
        with pytest.raises(Inconsistent):
            solve_exact([[1, 0], [0, 1], [1, 1]], [1, 1, 3])

    @given(
        sol=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovers_known_solution(self, sol, data):
        k = len(sol)
        cell = st.integers(-4, 4)
        matrix = data.draw(
            st.lists(st.lists(cell, min_size=k, max_size=k), min_size=k, max_size=k)
        )
        rhs = [sum(F(a) * x for a, x in zip(row, sol)) for row in matrix]
        try:
            got = solve_exact(matrix, rhs)
        except SingularSystem:
            return
        assert got == [F(x) for x in sol]


def gauss_jordan(matrix, rhs):
    """Reference solver: Gauss-Jordan elimination over Fraction, with the
    checks, pivot rule and messages that ``solve_exact`` must reproduce."""
    rows = [[F(v) for v in row] + [F(b)] for row, b in zip(matrix, rhs)]
    if len(rows) != len(matrix) or len(rows) != len(rhs):
        raise DomainError("matrix and rhs lengths differ")
    if not rows:
        raise SingularSystem("empty system")
    ncols = len(rows[0]) - 1
    if any(len(r) != ncols + 1 for r in rows):
        raise DomainError("ragged matrix")
    if len(rows) < ncols:
        raise SingularSystem(f"{len(rows)} equations for {ncols} unknowns")
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            raise SingularSystem(f"no pivot available for column {c}")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    for i in range(ncols, len(rows)):
        if rows[i][ncols] != 0:
            raise Inconsistent(f"row {i} reduces to 0 = {rows[i][ncols]}")
    return [rows[i][ncols] for i in range(ncols)]


def outcome(solver, matrix, rhs):
    """The solution list, or the type and message of the error raised."""
    try:
        return solver(matrix, rhs)
    except (DomainError, SingularSystem, Inconsistent) as exc:
        return type(exc), str(exc)


def assert_same_as_reference(matrix, rhs):
    got = outcome(solve_exact, matrix, rhs)
    assert got == outcome(gauss_jordan, matrix, rhs)
    if isinstance(got, list):
        assert all(type(v) is F for v in got)
    return got


# Zeros make pivoting and singularity likely; the last two kinds give
# numerators and denominators of the size that fitting brackets produce.
entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.integers(-(10**40), 10**40),
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**25)),
)


def combine(matrix, sol):
    return [sum((F(a) * x for a, x in zip(row, sol)), F(0)) for row in matrix]


@st.composite
def systems(draw, kind):
    k = draw(st.integers(1, 5))
    rows = k if kind in ("square", "singular") else k + draw(st.integers(1, 3))
    matrix = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=rows, max_size=rows))
    if kind == "square":
        return matrix, draw(st.lists(entries, min_size=rows, max_size=rows))
    if kind == "singular":
        # one row a multiple of another, or one column all zero
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            factor = draw(entries)
            matrix[i] = [factor * v for v in matrix[j]]
        else:
            matrix = [row[:i] + [0] + row[i + 1 :] for row in matrix]
        return matrix, draw(st.lists(entries, min_size=rows, max_size=rows))
    rhs = combine(matrix, draw(st.lists(entries, min_size=k, max_size=k)))
    if kind == "inconsistent":
        i = draw(st.integers(0, rows - 1))
        rhs[i] += draw(entries.filter(bool))
    return matrix, rhs


row_scales = st.one_of(st.integers(-6, 6), st.integers(-(10**30), 10**30)).filter(bool)


def right_hand_sides(kind, matrix):
    """Right-hand sides of the given kind for a matrix drawn by ``systems``."""
    rows, k = len(matrix), len(matrix[0])
    if kind in ("square", "singular"):
        return st.lists(entries, min_size=rows, max_size=rows)
    consistent = st.lists(entries, min_size=k, max_size=k).map(lambda sol: combine(matrix, sol))
    if kind == "consistent":
        return consistent

    @st.composite
    def broken(draw):
        rhs = draw(consistent)
        rhs[draw(st.integers(0, rows - 1))] += draw(entries.filter(bool))
        return rhs

    return broken()


class TestSolveExactMatchesReference:
    @pytest.mark.parametrize("kind", ["square", "consistent", "inconsistent", "singular"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_systems(self, kind, data):
        assert_same_as_reference(*data.draw(systems(kind)))

    def test_each_outcome_is_covered(self):
        square = [[F(1, 3), 2], [4, F(-5, 7)]]
        assert combine(square, assert_same_as_reference(square, [1, F(1, 2)])) == [1, F(1, 2)]
        assert_same_as_reference([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) == (
            Inconsistent, "row 2 reduces to 0 = 1"
        )
        # after a swap: x = 2/3, y = 2, and row 2 leaves 3 - (4/9 + 2/5)
        assert assert_same_as_reference(
            [[0, F(1, 2)], [3, 0], [F(2, 3), F(1, 5)], [1, 1]], [1, 2, 3, F(7, 11)]
        ) == (Inconsistent, "row 2 reduces to 0 = 97/45")
        assert assert_same_as_reference([[1, 2], [2, 4]], [1, 2]) == (
            SingularSystem, "no pivot available for column 1"
        )
        assert assert_same_as_reference([[0, 1], [0, 2]], [1, 2]) == (
            SingularSystem, "no pivot available for column 0"
        )
        assert assert_same_as_reference([[1, 2]], [1]) == (
            SingularSystem, "1 equations for 2 unknowns"
        )
        assert assert_same_as_reference([], []) == (SingularSystem, "empty system")
        assert assert_same_as_reference([[1], [2]], [1]) == (
            DomainError, "matrix and rhs lengths differ"
        )
        assert assert_same_as_reference([[1, 2], [3]], [1, 2]) == (DomainError, "ragged matrix")
        assert assert_same_as_reference([[], []], [0, 0]) == []
        assert assert_same_as_reference([[], []], [0, F(5, 3)]) == (
            Inconsistent, "row 1 reduces to 0 = 5/3"
        )

    def test_replays_every_fitted_system(self, monkeypatch):
        systems_seen = []

        def recording(matrix, rhs):
            systems_seen.append((matrix, rhs))
            return solve_exact(matrix, rhs)

        # fit reaches the solver through the module global
        monkeypatch.setattr(conjecture, "solve_exact", recording)
        config = SearchConfig(max_degree=3, max_roots=1)
        for m in (0, 1):
            explore_D_even(m, config)
        rediscover_all()
        monkeypatch.undo()
        assert len(systems_seen) == 2 * len(search_catalogue(config)) + len(printed_forms())
        for matrix, rhs in systems_seen:
            assert all(type(v) is int for row in matrix for v in row)
            assert all(type(v) is int for v in rhs)
            assert_same_as_reference(matrix, rhs)

    @pytest.mark.parametrize("kind", ["square", "consistent", "inconsistent", "singular"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_scaled_copies_share_one_factorisation(self, kind, data):
        matrix, rhs = data.draw(systems(kind))
        warm = outcome(solve_exact, matrix, rhs)
        copies = [
            (data.draw(st.lists(row_scales, min_size=len(matrix), max_size=len(matrix))), b)
            for b in data.draw(st.lists(right_hand_sides(kind, matrix), min_size=1, max_size=4))
        ]
        before = conjecture._bareiss.cache_info().hits
        for scales, b in copies:
            assert_same_as_reference(
                [[s * v for v in row] for s, row in zip(scales, matrix)],
                [s * v for s, v in zip(scales, b)],
            )
        # every copy normalises to the matrix the first solve factored
        shared = not (isinstance(warm, tuple) and warm[0] is SingularSystem)
        assert conjecture._bareiss.cache_info().hits - before == len(copies) * shared

    def test_search_factors_each_distinct_matrix_once(self):
        # 4 Vandermonde matrices, one per degree, serve every one-term shape
        # and root option; each prefactor pair adds one matrix per degree
        config = SearchConfig(max_degree=3, max_roots=1)
        conjecture._bareiss.cache_clear()
        explore_D_even(1, config)
        info = conjecture._bareiss.cache_info()
        assert info.hits + info.misses == len(search_catalogue(config))
        assert info.misses <= 4 + len(conjecture.PAIR_SHAPES) * 4

    @pytest.mark.parametrize("bad", [0.5, 2.0, float("nan"), True, "1/2", None])
    def test_rejects_inexact_entries(self, bad):
        with pytest.raises(DomainError):
            solve_exact([[1, bad], [0, 1]], [1, 2])
        with pytest.raises(DomainError):
            solve_exact([[1, 0], [0, 1]], [bad, 2])


class TestFit:
    A2 = Ansatz((AnsatzTerm("power2", 1, shift=-2),))

    def test_rediscovers_a2(self):
        cand = fit("A", 2, self.A2)
        assert cand.status == "verified"
        assert cand.coefficients == (F(0), F(1))
        assert cand.fitted_on == (4, 5)
        assert cand.verified_on == tuple(range(6, 16))
        assert cand.value_at(6) == oracle(MomentQuery("A", 2, 6))

    def test_rediscovers_b5_numerator(self):
        ansatz = Ansatz(
            (AnsatzTerm("central", 3, roots=((2, -1), (2, -3), (2, -5))),)
        )
        cand = fit("B", 5, ansatz)
        assert cand.status == "verified"
        # numerator n^2 (4n - 1) / 2
        assert cand.coefficients == (F(0), F(0), F(-1, 2), F(2))

    def test_refuted_with_first_mismatch(self):
        wrong = Ansatz((AnsatzTerm("central", 1),))
        cand = fit("A", 2, wrong)
        assert cand.status == "refuted"
        assert cand.first_mismatch == 6

    def test_nodes_start_after_the_last_root(self):
        rooted = Ansatz((AnsatzTerm("sign", 1, roots=((1, -7),)),))
        cand = fit("C", 2, rooted)
        assert fitting_nodes(2, rooted) == ([8, 9], list(range(10, 20)))
        assert cand.fitted_on == (8, 9)
        assert cand.verified_on == tuple(range(10, 20))

    @pytest.mark.parametrize(
        "samples, holdout",
        [
            (["1", "2"], []),
            ([1, 2], [None]),
            ([1, 2.0], [3]),
            ([True, 2], [3]),
            ([1, 2], [F(3)]),
            (5, []),
            ([1, 2], 3),
            ([4, 5], [6]),
        ],
    )
    def test_refuses_node_arguments(self, samples, holdout):
        # fit reads its nodes from fitting_nodes; it takes none from its caller
        with pytest.raises(TypeError):
            fit("A", 2, self.A2, samples, holdout)

    @pytest.mark.parametrize(
        "family, power", [("X", 2), ("A", 2.0), ("A", True), ("A", -1)]
    )
    def test_rejects_family_and_power(self, family, power):
        with pytest.raises(DomainError):
            fit(family, power, self.A2)

    @pytest.mark.parametrize("power", [2.0, True])
    def test_power_is_checked_by_fit(self, power):
        with pytest.raises(DomainError, match=r"^fit: power must be an int"):
            fit("A", power, self.A2)

    def test_deterministic(self):
        shape = Ansatz((AnsatzTerm("bracket", 2), AnsatzTerm("unit", 2)))
        assert fit("D", 3, shape) == fit("D", 3, shape)

    def test_int_holdout_agrees_with_the_fraction_rule(self):
        config = SearchConfig(max_degree=3, max_roots=1)
        targets = [("D", 2 * m, a) for m in (0, 1) for a in search_catalogue(config)]
        targets += [(pf.family, pf.power, pf.ansatz) for pf in printed_forms()]
        statuses = set()
        for target in targets:
            try:
                want = reference_fit(*target)
            except SingularSystem:
                with pytest.raises(SingularSystem):
                    fit(*target)
                statuses.add("singular")
                continue
            cand = fit(*target)
            assert (cand.status, cand.first_mismatch, cand.coefficients) == want, target
            statuses.add(cand.status)
        assert {"verified", "refuted"} <= statuses

    @pytest.mark.parametrize("bad", [6, 10, 15])
    def test_one_wrong_holdout_value_refutes(self, monkeypatch, bad):
        assert fit("A", 2, self.A2).verified_on == tuple(range(6, 16))

        def off_by_one(q):
            return oracle(q) + 1 if q.n == bad else oracle(q)

        monkeypatch.setattr(conjecture, "oracle", off_by_one)
        cand = fit("A", 2, self.A2)
        assert cand.coefficients == (F(0), F(1))
        assert (cand.status, cand.first_mismatch) == ("refuted", bad)


def reference_fit(family, power, ansatz):
    """``fit``'s outcome as (status, first mismatch, coefficients), by the
    Fraction rule: Fraction rows, and every holdout point compared as
    ``Ansatz.value(...) != oracle(...)``."""
    samples, holdout = fitting_nodes(power, ansatz)
    matrix = []
    for n in samples:
        ints, den = ansatz.basis_row(n)
        matrix.append([F(a, den) for a in ints])
    rhs = [oracle(MomentQuery(family, power, n)) for n in samples]
    coeffs = tuple(solve_exact(matrix, rhs))
    scale = math.lcm(*[c.denominator for c in coeffs])
    nums = [c.numerator * (scale // c.denominator) for c in coeffs]
    for n in holdout:
        if ansatz.value(nums, n, scale) != oracle(MomentQuery(family, power, n)):
            return "refuted", n, coeffs
    return "verified", None, coeffs


class TestInputDomain:
    """The fitter's entry points take exact ints; every refusal is a DomainError."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: search_catalogue(SearchConfig(max_degree=2.5)), id="max_degree"),
            pytest.param(lambda: SearchConfig(max_roots=True), id="max_roots"),
            pytest.param(lambda: explore_D_even(1.5), id="explore-float"),
            pytest.param(lambda: explore_D_even(True), id="explore-bool"),
        ],
    )
    def test_rejects_non_int_bounds(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize(
        "fields",
        [
            {"degree": 1.5},
            {"degree": True},
            {"shift": 0.5},
            {"roots": ((1.0, -1),)},
            {"roots": ((1, False),)},
            {"roots": ((0, 3),)},
            {"roots": [(1, -1)]},
            {"roots": ([1, -1],)},
            {"roots": 5},
            {"roots": ((1,),)},
            {"roots": ((1, -1, 2),)},
        ],
    )
    def test_ansatz_term_rejects(self, fields):
        with pytest.raises(DomainError):
            AnsatzTerm("unit", **{"degree": 0, **fields})

    @pytest.mark.parametrize("prefactor", [p for p in PREFACTORS if p != "power2"])
    @pytest.mark.parametrize("shift", [3, -1])
    def test_only_power2_takes_a_shift(self, prefactor, shift):
        # before, AnsatzTerm("unit", 1, shift=3) printed and evaluated like shift 0
        assert AnsatzTerm("power2", 1, shift=shift).shift == shift
        with pytest.raises(DomainError, match="only power2 takes a shift"):
            AnsatzTerm(prefactor, 1, shift=shift)

    @pytest.mark.parametrize(
        "ansatz", [AnsatzTerm("power2", 1, shift=-2), "power2", None, (AnsatzTerm("unit", 0),)]
    )
    def test_fit_rejects_a_non_ansatz(self, ansatz):
        with pytest.raises(DomainError):
            fit("A", 2, ansatz)

    def test_holdout_cannot_be_set(self):
        """HOLDOUT is the one holdout count: no field or parameter overrides it."""
        shape = Ansatz((AnsatzTerm("unit", 0),))
        samples, hold = fitting_nodes(2, shape)
        assert hold == list(range(samples[-1] + 1, samples[-1] + 1 + conjecture.HOLDOUT))
        assert conjecture.HOLDOUT == 10
        with pytest.raises(TypeError):
            SearchConfig(holdout=10)
        with pytest.raises(TypeError):
            fitting_nodes(2, shape, 10)
        with pytest.raises(TypeError):
            rediscover_all(10)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: fitting_nodes(2, "x"), id="nodes-non-ansatz"),
            pytest.param(
                lambda: fitting_nodes(-5, Ansatz((AnsatzTerm("unit", 0),))),
                id="nodes-negative-power",
            ),
            pytest.param(lambda: explore_D_even(1, "cfg"), id="explore-non-config"),
            pytest.param(lambda: search_catalogue(None), id="catalogue-non-config"),
            # before, each solve_exact call raised TypeError
            pytest.param(lambda: solve_exact([1], [1]), id="solve-flat-rows"),
            pytest.param(lambda: solve_exact(1, [1]), id="solve-int-matrix"),
            pytest.param(lambda: solve_exact([[1]], 1), id="solve-int-rhs"),
            pytest.param(lambda: solve_exact(None, None), id="solve-none"),
            pytest.param(lambda: solve_exact(iter([[1]]), [1]), id="solve-iterator-matrix"),
            pytest.param(lambda: solve_exact({0: [1]}, [1]), id="solve-dict-matrix"),
            pytest.param(lambda: solve_exact([{1}], [1]), id="solve-set-row"),
            # before, bytes were read as their byte values: solve_exact gave
            # [2] and Ansatz.value 680
            pytest.param(lambda: solve_exact([b"\x02"], [4]), id="solve-bytes-row"),
            pytest.param(lambda: solve_exact([bytearray(b"\x02")], [4]), id="solve-bytearray-row"),
            pytest.param(lambda: solve_exact([[1]], b"\x04"), id="solve-bytes-rhs"),
            pytest.param(lambda: solve_exact(b"\x02", [4]), id="solve-bytes-matrix"),
            pytest.param(lambda: solve_exact(["2"], [4]), id="solve-str-row"),
            pytest.param(lambda: solve_exact([[1]], "4"), id="solve-str-rhs"),
            pytest.param(lambda: solve_exact([frozenset({1})], [1]), id="solve-frozenset-row"),
            pytest.param(lambda: solve_exact([[1]], {4}), id="solve-set-rhs"),
            pytest.param(lambda: solve_exact([{0: 1}], [1]), id="solve-dict-row"),
            pytest.param(lambda: QUADRATIC.value(b"\x01\x02\x03", 3), id="value-bytes"),
            pytest.param(
                lambda: QUADRATIC.value(bytearray(b"\x01\x02\x03"), 3), id="value-bytearray"
            ),
            pytest.param(lambda: QUADRATIC.value("123", 3), id="value-str"),
            pytest.param(lambda: QUADRATIC.value({0: 1, 1: 2, 2: 3}, 3), id="value-dict"),
            pytest.param(lambda: QUADRATIC.value({1, 2, 3}, 3), id="value-set"),
            # before, the first four and D even at t = -1 returned None, two
            # returned an ansatz for t = -1 or True, the Fraction and str t
            # raised TypeError and only the float t a DomainError
            pytest.param(lambda: family_ansatz("X", "even", 1), id="ansatz-family-X"),
            pytest.param(lambda: family_ansatz("A", "Odd", 1), id="ansatz-parity-Odd"),
            pytest.param(lambda: family_ansatz("a", "odd", 1), id="ansatz-family-a"),
            pytest.param(lambda: family_ansatz(None, "odd", 1), id="ansatz-family-none"),
            pytest.param(lambda: family_ansatz("A", "odd", -1), id="ansatz-t-negative"),
            pytest.param(lambda: family_ansatz("D", "even", -1), id="ansatz-D-even-negative"),
            pytest.param(lambda: family_ansatz("A", "odd", True), id="ansatz-t-bool"),
            pytest.param(lambda: family_ansatz("A", "even", 1.0), id="ansatz-t-float"),
            pytest.param(lambda: family_ansatz("B", "odd", Fraction(1)), id="ansatz-t-fraction"),
            pytest.param(lambda: family_ansatz("C", "even", "2"), id="ansatz-t-str"),
            # before, a malformed record failed only when read: TypeError from
            # all_ok on an int, AttributeError from ok and to_dict on ints
            pytest.param(lambda: RediscoveryReport(3).all_ok, id="report-int-all_ok"),
            pytest.param(lambda: RediscoveryReport(None).to_dict(), id="report-none-to_dict"),
            pytest.param(lambda: RediscoveryReport([1]).all_ok, id="report-int-entry-all_ok"),
            pytest.param(lambda: RediscoveryReport((ENTRY,)).to_dict(), id="report-tuple"),
            pytest.param(lambda: RediscoveryEntry(1, 2).ok, id="entry-ints-ok"),
            pytest.param(lambda: RediscoveryEntry(1, 2).to_dict(), id="entry-ints-to_dict"),
            pytest.param(lambda: RediscoveryEntry(ENTRY.printed, None).ok, id="entry-no-candidate"),
            pytest.param(
                lambda: RediscoveryEntry(ENTRY.candidate, ENTRY.candidate).to_dict(),
                id="entry-candidate-as-printed",
            ),
        ],
    )
    def test_entry_points_refuse_with_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    def test_ordered_sequences_stay_accepted(self):
        assert QUADRATIC.value(range(1, 4), 3) == QUADRATIC.value((1, 2, 3), 3) == 34
        assert solve_exact((range(1, 3), (0, 2)), range(3, 5)) == [F(-1), F(2)]

    def test_root_with_zero_slope_is_refused_before_fitting(self):
        with pytest.raises(DomainError):
            fit("A", 1, Ansatz((AnsatzTerm("unit", 0, roots=((0, 0),)),)))


class TestRediscovery:
    def test_all_printed_formulas_recovered(self):
        report = rediscover_all()
        assert len(report.entries) == 41
        for e in report.entries:
            assert e.candidate.status == "verified", e.printed.label
            assert e.candidate.coefficients == e.printed.expected, e.printed.label
            disjoint = set(e.candidate.verified_on) - set(e.candidate.fitted_on)
            assert len(disjoint) >= 10, e.printed.label
        assert report.all_ok
        assert not report.failures()

    def test_well_formed_records_read_as_before(self):
        assert ENTRY.ok and ENTRY.to_dict()["coefficients_match_printed"] is True
        report = RediscoveryReport([ENTRY])
        assert report.all_ok and report.to_dict()["entries"] == [ENTRY.to_dict()]
        assert RediscoveryReport().to_dict() == {"all_ok": True, "entries": []}

    def test_term_coefficients_split_per_term(self):
        pf = moments.COROLLARIES[("D", 3)]  # two terms of degree 2
        split = fit("D", 3, pf.ansatz).term_coefficients()
        assert [t for t, _ in split] == list(pf.ansatz.terms)
        assert [cs for _, cs in split] == [
            tuple(F(c, den) for c in num) for num, den in zip(pf.numerators, pf.denominators)
        ]

    def test_labels_cover_all_families(self):
        labels = {pf.label for pf in printed_forms()}
        assert {"A0", "A10", "B0", "B9", "C0", "C10", "D1", "D9"} <= labels


class TestExploreDEven:
    config = SearchConfig(max_degree=2, max_roots=1)

    def test_zero_bounds_give_the_one_term_shapes(self):
        zero = SearchConfig(max_degree=0, max_roots=0)
        assert len(search_catalogue(zero)) == 8
        cands = explore_D_even(0, zero)
        assert len(cands) == 8
        assert all(c.status == "refuted" for c in cands)

    def test_catalogue_does_not_follow_the_prefactor_vocabulary(self, monkeypatch):
        """A prefactor added to ``moments`` leaves the catalogue's shapes alone."""
        before = search_catalogue(SearchConfig())
        monkeypatch.setitem(moments._PREFACTOR, "extra", (lambda n, c: (n, 1), "n", "n"))
        for module in (moments, conjecture):
            if hasattr(module, "PREFACTORS"):
                monkeypatch.setattr(module, "PREFACTORS", tuple(moments._PREFACTOR))
        assert AnsatzTerm("extra", 0).describe() == "n * poly(deg<=0)"
        assert search_catalogue(SearchConfig()) == before

    def test_default_bounds(self):
        assert (SearchConfig().max_degree, SearchConfig().max_roots) == (4, 2)

    def test_root_options(self):
        # none, then for each count: (2n-3)(2n-5)..., (2n-1)(2n-3)..., (n-1)(n-2)...
        assert conjecture._root_options(2) == [
            (),
            ((2, -3),),
            ((2, -1),),
            ((1, -1),),
            ((2, -3), (2, -5)),
            ((2, -1), (2, -3)),
            ((1, -1), (1, -2)),
        ]

    def test_candidates_fit_the_even_power(self):
        cands = explore_D_even(1, self.config)
        assert {(c.family, c.power) for c in cands} == {("D", 2)}

    @pytest.mark.parametrize("bounds", [(-1, 0), (0, -1)])
    def test_negative_bounds_are_refused(self, bounds):
        with pytest.raises(DomainError):
            SearchConfig(*bounds)

    def test_honest_statuses(self):
        cands = explore_D_even(0, self.config)
        assert len(cands) == len(search_catalogue(self.config))
        assert all(c.status in ("verified", "refuted") for c in cands)
        # nothing in the structural catalogue fits the open case
        assert all(c.status == "refuted" for c in cands)
        assert all(c.first_mismatch is not None for c in cands)

    def test_family_shapes(self):
        assert [family_ansatz("D", "even", t) for t in range(4)] == [None] * 4
        assert family_ansatz("A", "odd", 0) == Ansatz((AnsatzTerm("central", 1),))
        assert family_ansatz("A", "even", 3).unknowns == 4
        shape = family_ansatz("C", "odd", 2)
        assert fit("C", 5, shape).status == "verified"
