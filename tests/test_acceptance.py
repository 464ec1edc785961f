"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All equalities are exact (integers and polynomial coefficient sequences,
tolerance zero).  The concrete-lattice instances used by several criteria
are built at most once per session by the ``lattice_cache`` fixture and
shared; criterion 4's runtime bound covers only the lattices that no earlier
test has built.
"""

import time
from contextlib import contextmanager

from pgfactor.cli import main
from pgfactor.formulas import (
    factorization_count,
    factorization_count_equal_exponents,
    subgroup_count,
)
from pgfactor.grouptype import GroupType
from pgfactor.mobius import (
    enumerate_subspaces,
    factorization_count_mobius,
    quotient_type,
    quotient_type_census,
    reference_census,
)
from pgfactor.oracle import (
    count_factorizations,
    verify_hall,
    verify_inversion_forms,
)
from pgfactor.poly import IntPolynomial

# three-way agreement grid: every type here stays within the 4096-element cap
GRID = [
    ((1, 1, 1), 2), ((1, 1, 1), 3),
    ((2, 1, 1), 2), ((2, 1, 1), 3),
    ((2, 2, 1), 2), ((2, 2, 1), 3),
    ((2, 2, 2), 2), ((2, 2, 2), 3),
    ((3, 1, 1), 2), ((3, 1, 1), 3),
    ((3, 2, 1), 2), ((3, 2, 1), 3),
    ((3, 3, 1), 2),
    ((3, 2, 2), 2),
    ((3, 3, 2), 2),
]

@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def test_criterion_1_golden_rendering_321(capsys):
    with criterion(1, "golden symbolic rendering for (3,2,1)"):
        # the Mobius sum derives the same rendering without theorem3's socle cells
        for method in ("theorem3", "mobius"):
            start = time.perf_counter()
            code = main(["f2", "--type", "3,2,1", "--symbolic", "--method", method])
            elapsed = time.perf_counter() - start
            out = capsys.readouterr().out.strip()
            assert code == 0, method
            assert out == "9p^6+15p^5+21p^4+16p^3+20p^2+11p+13", method
            assert elapsed < 1.0, method


def test_criterion_2_golden_rendering_222(capsys, lattice_cache):
    with criterion(2, "golden symbolic rendering for (2,2,2)"):
        start = time.perf_counter()
        code = main(["f2", "--type", "2,2,2", "--symbolic"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert elapsed < 1.0
        # The originally stated golden string was
        # 5p^8+7p^7+16p^6+15p^5+21p^4+16p^3+20p^2+11p+13, which gives 4259
        # at p = 2 and 65782 at p = 3.  Enumerating the subgroup lattices of
        # Z_4^3 (129 subgroups) and Z_9^3 (445 subgroups) gives F2 = 4387 and
        # 67969, exactly p^7 more, so the coefficient on p^7 is 8, not 7.
        # The checks below tie the expected value to that enumeration and
        # to the Mobius sum, neither of which uses the closed form.
        expected = IntPolynomial((13, 11, 20, 16, 21, 15, 16, 8, 5))
        assert out == "5p^8+8p^7+16p^6+15p^5+21p^4+16p^3+20p^2+11p+13"
        assert out == str(expected)
        assert main(["f2", "--type", "2,2,2", "--symbolic", "--method", "mobius"]) == 0
        assert capsys.readouterr().out.strip() == out
        t = GroupType((2, 2, 2))
        for p, enumerated in ((2, 4387), (3, 67969)):
            g, lattice = lattice_cache(t.exponents, p)
            assert count_factorizations(g, lattice) == enumerated, p
            assert expected.evaluate(p) == enumerated, p
        # a degree-8 polynomial is fixed by its values at nine points
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            assert expected.evaluate(p) == factorization_count_mobius(t, p), p


def test_criterion_3_equal_exponent_form_equivalence():
    with criterion(3, "equal-exponent specialization matches general form"):
        for lam in range(5):
            special = factorization_count_equal_exponents(lam).value
            general = factorization_count(GroupType((lam, lam, lam))).value
            assert special == general, lam


def test_criterion_4_three_way_agreement(lattice_cache):
    with criterion(4, "closed form = Mobius sum = oracle on the grid"):
        start = time.perf_counter()
        for exps, p in GRID:
            t = GroupType(exps)
            assert t.order(p) <= 4096
            g, lattice = lattice_cache(exps, p)
            closed = factorization_count(t, p).value
            mobius = factorization_count_mobius(t, p)
            oracle = count_factorizations(g, lattice)
            assert closed == mobius == oracle, (exps, p, closed, mobius, oracle)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_5_subgroup_count_agreement_and_exact_division(lattice_cache):
    with criterion(5, "subgroup counts match oracle; symbolic division exact"):
        for exps, p in GRID:
            g, lattice = lattice_cache(exps, p)
            assert len(lattice) == subgroup_count(GroupType(exps), p).value, (exps, p)
        for e1 in range(5):
            for e2 in range(e1 + 1):
                for e3 in range(e2 + 1):
                    symbolic = subgroup_count(GroupType((e1, e2, e3))).value
                    for p in (2, 3):
                        assert symbolic.evaluate(p) == subgroup_count(GroupType((e1, e2, e3)), p).value


def test_criterion_6_rank_reduction(lattice_cache):
    with criterion(6, "zero-padded types agree with oracle; cyclic = 2*e1+1"):
        for e1 in range(4):
            for e2 in range(e1 + 1):
                t = GroupType((e1, e2, 0))
                for p in (2, 3):
                    g, lattice = lattice_cache(t.exponents, p)
                    closed = factorization_count(t, p).value
                    assert closed == count_factorizations(g, lattice), (t, p)
                    if e2 == 0:
                        assert closed == 2 * e1 + 1, (t, p)


def test_criterion_7_lattice_mobius_matches_closed_form(lattice_cache):
    with criterion(7, "lattice Mobius values match the p-group closed form"):
        for exps, p in GRID:
            g, lattice = lattice_cache(exps, p)
            report = verify_hall(g, lattice)
            failures = [c for c in report.checks if c.status == "fail"]
            assert report.overall, (exps, p, failures)


def test_criterion_8_inversion_identities(lattice_cache):
    with criterion(8, "both inversion sums equal the direct count"):
        for exps, p in GRID:
            g, lattice = lattice_cache(exps, p)
            report = verify_inversion_forms(g, lattice)
            assert report.overall, (exps, p, report.checks)


# rank 0 to 2 instances, which the census criterion adds to the rank-3 grid
LOW_RANK = [((0, 0, 0), 2), ((1, 0, 0), 3), ((3, 0, 0), 2), ((1, 1, 0), 3), ((2, 1, 0), 2), ((3, 3, 0), 3)]


def test_criterion_9_quotient_census():
    with criterion(9, "quotient censuses match the classification"):
        for exps, p in GRID + LOW_RANK:
            t = GroupType(exps)
            for k in range(t.rank + 1):
                assert quotient_type_census(t, k, p) == reference_census(t, k, p), (exps, p, k)
            full_socle = enumerate_subspaces(t.rank, t.rank, p)[0]
            shrunk = GroupType(tuple(max(e - 1, 0) for e in t.exponents))
            assert quotient_type(t, full_socle, p) == shrunk, (exps, p)
