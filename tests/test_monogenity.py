import pytest

from orefactor.errors import (
    EngineError,
    ExcludedM,
    ExcludedN,
    NotSquarefree,
    SquarefreeCheckInconclusive,
)
from orefactor.monogenity import (
    PureFieldInput,
    Status,
    classify_engine,
    classify_theorem,
    prime_factors_squarefree,
    witness_nonmonogenic,
)
from orefactor.intpoly import IntPolynomial
from orefactor.ore import ore_factor


class TestInputValidation:
    def test_excluded_m(self):
        for m in (-1, 0, 1):
            with pytest.raises(ExcludedM):
                PureFieldInput(m=m)

    def test_excluded_n(self):
        for n in (1, 0, -3):
            with pytest.raises(ExcludedN) as err:
                PureFieldInput(m=33, n=n)
            assert isinstance(err.value, EngineError)

    def test_not_squarefree(self):
        for m in (4, 12, -18, 50, 121):
            with pytest.raises(NotSquarefree):
                PureFieldInput(m=m)

    def test_prime_factors(self):
        assert prime_factors_squarefree(-30) == [2, 3, 5]
        assert prime_factors_squarefree(13) == [13]
        big_prime = 10**9 + 7
        assert prime_factors_squarefree(big_prime) == [big_prime]

    def test_inconclusive_beyond_bound(self):
        # product of two primes above the tiny bound: cannot be certified
        with pytest.raises(SquarefreeCheckInconclusive):
            prime_factors_squarefree(101 * 103, bound=50)
        # perfect square beyond the bound is still refuted
        with pytest.raises(NotSquarefree):
            prime_factors_squarefree(101 * 101, bound=50)

    def test_ramified_candidates(self):
        assert PureFieldInput(m=33).ramified_candidates() == [2, 3, 11]
        assert PureFieldInput(m=-70).ramified_candidates() == [2, 3, 5, 7]


class TestTheoremRoute:
    def test_monogenic_examples(self):
        for m in (2, 3, 7, 11, -2, -5, 2022):
            assert classify_theorem(m).status is Status.MONOGENIC_Z_ALPHA, m

    def test_not_monogenic_examples(self):
        # 33 = 1 mod 4; 10 = 1 mod 9 though 10 = 2 mod 4; 26 = -1 mod 9
        for m in (33, 10, 26, 13, 41, -3, 17):
            assert classify_theorem(m).status is Status.NOT_MONOGENIC, m

    def test_partition_is_total(self):
        for m in range(-300, 300):
            if m in (-1, 0, 1):
                continue
            try:
                verdict = classify_theorem(m)
            except NotSquarefree:
                continue
            not_mono = (m % 4 == 1) or (m % 9 in (1, 8))
            expected = Status.NOT_MONOGENIC if not_mono else Status.MONOGENIC_Z_ALPHA
            assert verdict.status is expected

    def test_rejects_other_degrees(self):
        with pytest.raises(ValueError):
            classify_theorem(5, n=6)


class TestWitnessCounting:
    def test_five_mod_eight(self):
        rep = ore_factor(IntPolynomial.pure(12, 13), 2)
        assert witness_nonmonogenic(rep) == (2, 3, 1)

    def test_one_mod_nine(self):
        rep = ore_factor(IntPolynomial.pure(12, 10), 3)
        assert witness_nonmonogenic(rep) == (1, 4, 3)

    def test_minus_one_mod_nine(self):
        rep = ore_factor(IntPolynomial.pure(12, 26), 3)
        assert witness_nonmonogenic(rep) == (2, 4, 3)

    def test_absent_when_counts_fit(self):
        rep = ore_factor(IntPolynomial.pure(12, 7), 2)
        assert witness_nonmonogenic(rep) is None
        rep = ore_factor(IntPolynomial.pure(12, 10), 5)
        assert witness_nonmonogenic(rep) is None

    def test_minimality(self):
        # m = 33: both f=1 (3 > 2) and f=2 (3 > 1) violate; report f=1
        rep = ore_factor(IntPolynomial.pure(12, 33), 2)
        assert witness_nonmonogenic(rep) == (1, 3, 2)

    def test_requires_regular_report(self):
        from orefactor.ore import PrimeFactorization

        fake = PrimeFactorization(
            p=2, ideals=(), is_regular=False, index_valuation=1, index_is_exact=False
        )
        with pytest.raises(ValueError):
            witness_nonmonogenic(fake)


class TestEngineRoute:
    def test_monogenic_with_zero_indices(self):
        verdict = classify_engine(7)
        assert verdict.status is Status.MONOGENIC_Z_ALPHA
        assert {p: (v, e) for p, v, e in verdict.index_valuations} == {
            2: (0, True),
            3: (0, True),
            7: (0, True),
        }
        assert verdict.witness is None

    def test_nine_mod_sixteen_witness(self):
        verdict = classify_engine(41)
        assert verdict.status is Status.NOT_MONOGENIC
        assert verdict.witness == (2, 2, 4, 1)

    def test_minus_one_mod_nine_witness(self):
        verdict = classify_engine(26)
        assert verdict.status is Status.NOT_MONOGENIC
        assert verdict.witness == (3, 2, 4, 3)

    def test_witness_recounts_from_reports(self):
        for m in (13, 26, 33, 41, 73):
            verdict = classify_engine(m)
            assert verdict.status is Status.NOT_MONOGENIC
            p, fdeg, count, bound = verdict.witness
            report = next(r for r in verdict.per_prime_reports if r.p == p)
            assert report.residue_degree_counts()[fdeg] == count
            assert count > bound

    def test_both_witnesses_reported(self):
        # 73 = 9 mod 16 and 73 = 1 mod 9: witnesses at both 2 and 3
        verdict = classify_engine(73)
        assert len(verdict.witnesses) == 2
        assert verdict.witnesses[0][0] == 2 and verdict.witnesses[1][0] == 3

    def test_even_m_uses_generic_path(self):
        verdict = classify_engine(-2)
        assert verdict.status is Status.MONOGENIC_Z_ALPHA
        rep2 = next(r for r in verdict.per_prime_reports if r.p == 2)
        assert rep2.ef_multiset() == [(12, 1)]

    def test_experimental_degree_flagged(self):
        verdict = classify_engine(5, n=4)
        assert verdict.notes
        assert verdict.status in (Status.MONOGENIC_Z_ALPHA, Status.NOT_MONOGENIC, Status.UNDECIDED)

    def test_agreement_on_small_range(self):
        for m in [x for x in range(-150, 151) if abs(x) >= 2]:
            try:
                theorem = classify_theorem(m)
            except NotSquarefree:
                continue
            engine = classify_engine(m)
            assert engine.status is theorem.status, m
            assert engine.status is not Status.UNDECIDED


class TestConcurrentUse:
    def test_parallel_classification_matches_sequential(self):
        # all operations are pure; shared caches may race benignly but
        # results must be identical to a sequential run
        from concurrent.futures import ThreadPoolExecutor

        from conftest import is_squarefree_int

        ms = [m for m in range(2, 120) if is_squarefree_int(m)][:60]
        sequential = [classify_engine(m).status for m in ms]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda m: classify_engine(m).status, ms))
        assert parallel == sequential
