import random

import pytest

from conftest import is_squarefree_int, patch_everywhere, run_snippet
from orefactor import cli, monogenity
from orefactor.errors import (
    EngineError,
    ExcludedM,
    ExcludedN,
    NotRegular,
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
from orefactor.ore import ore_factor, ore_index


def _primes_dividing(n):
    """The primes dividing n >= 1: each divisor d of n with no divisor in 2..d-1."""
    return [d for d in range(2, n + 1) if n % d == 0 and all(d % k for k in range(2, d))]


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

    def test_zero_is_not_squarefree(self):
        """The trial loop never runs for 0, so 0 is refused before it."""
        with pytest.raises(NotSquarefree):
            prime_factors_squarefree(0)

    def test_prime_cofactor_ends_trial_division(self):
        """A prime cofactor above the bound is certified at once: trial
        division of 2^61 - 1 would run toward its square root, 1.5e9."""
        proc = run_snippet(
            """
from orefactor.monogenity import prime_factors_squarefree
M61, M89 = 2**61 - 1, 2**89 - 1
print(prime_factors_squarefree(M61, bound=10**12) == [M61])
print(prime_factors_squarefree(3 * M61) == [3, M61])
print(prime_factors_squarefree(-M89) == [M89])
""",
            timeout=5,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"] * 3

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
        for n in range(2, 101):
            expected = sorted({2, *_primes_dividing(n)})
            assert PureFieldInput(m=2, n=n).ramified_candidates() == expected, n


class TestSquarefreeCertifiedOnce:
    """m is certified squarefree once per classify_engine and once per
    sweep row, however many routes read its primes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counted(m, bound=None):
            seen.append(m)
            return prime_factors_squarefree(m, *([] if bound is None else [bound]))

        patch_everywhere(monkeypatch, prime_factors_squarefree, counted)
        return seen

    def test_classify_engine(self, calls):
        verdict = classify_engine(-70)
        assert [p for p, _, _ in verdict.index_valuations] == [2, 3, 5, 7]
        assert calls == [-70]

    def test_sweep_rows(self, calls, capsys):
        assert cli.main(["sweep", "--range", "2..13", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 8  # 2, 3, 5, 6, 7, 10, 11, 13
        assert calls == list(range(2, 14))

    def test_classify_both_routes(self, calls, capsys):
        assert cli.main(["classify", "--m", "-70", "--mode", "both"]) == 0
        assert "routes agree: yes" in capsys.readouterr().out
        assert calls == [-70]


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

    @pytest.mark.parametrize(
        "m, status", [(2, Status.UNDECIDED), (10, Status.NOT_MONOGENIC)]
    )
    def test_refusal_at_one_prime(self, monkeypatch, m, status):
        """No squarefree m is known to make ore_factor refuse x^12 - m, so the
        refusal is patched in at p = 2: the verdict keeps its lower bound, a
        note and the witnesses of the other primes."""

        def refuse_at_2(f, p):
            if p == 2:
                raise NotRegular("patched refusal", lower_bound=5)
            return ore_factor(f, p)

        unpatched = classify_engine(m)
        monkeypatch.setattr(monogenity, "ore_factor", refuse_at_2)
        verdict = classify_engine(m)
        assert verdict.status is status
        assert verdict.index_valuations[0] == (2, 5, False)
        assert verdict.index_valuations[1:] == unpatched.index_valuations[1:]
        assert verdict.per_prime_reports == unpatched.per_prime_reports[1:]
        assert verdict.notes == ("p = 2: not p-regular, index valuation >= 5",)
        assert verdict.witnesses == tuple([w for w in unpatched.witnesses if w[0] != 2])
        assert verdict.witness == (verdict.witnesses[0] if verdict.witnesses else None)

    def test_even_m_uses_generic_path(self):
        verdict = classify_engine(-2)
        assert verdict.status is Status.MONOGENIC_Z_ALPHA
        rep2 = next(r for r in verdict.per_prime_reports if r.p == 2)
        assert rep2.ef_multiset() == [(12, 1)]

    @pytest.mark.parametrize("m", [26, 51])
    def test_witness_above_three(self, m):
        """Witnesses come from every prime dividing n*m: at p = 5, x^20 - m
        has 8 primes of residue degree 1, and F_5 has only 5 monic linear
        polynomials."""
        verdict = classify_engine(m, n=20)
        assert verdict.status is Status.NOT_MONOGENIC
        assert verdict.witnesses == ((5, 1, 8, 5),)

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


class TestGeneralDegreeOracle:
    """For squarefree m, a prime p divides (Z_K : Z[m^(1/n)]) iff p | n and
    m^p = m (mod p^2) (Jakhar-Khanduja-Sangwan, J. Number Theory 166 (2016);
    Gassert, Albanian J. Math. 11 (2017)).  The criterion shares no code with
    the polygon engine; it is checked on a seeded sample of n in 2..30 and
    squarefree 2 <= |m| <= 150."""

    def test_index_and_verdict_follow_the_criterion(self):
        rng = random.Random(20261020)
        ms = [m for m in range(-150, 151) if abs(m) >= 2 and is_squarefree_int(m)]
        seen = {True: 0, False: 0}  # per-prime checks by whether p divides the index
        for _ in range(400):
            n, m = rng.randint(2, 30), rng.choice(ms)
            f = IntPolynomial.pure(n, m)
            index_free = True
            for p in _primes_dividing(n):
                divides = (m**p - m) % p**2 == 0
                value, exact = ore_index(f, p)
                assert exact, (n, m, p)
                assert (value > 0) == divides, (n, m, p, value)
                seen[divides] += 1
                index_free = index_free and not divides
            monogenic = classify_engine(m, n).status is Status.MONOGENIC_Z_ALPHA
            assert monogenic == index_free, (n, m)
        assert min(seen.values()) > 50, seen


class TestConcurrentUse:
    def test_parallel_classification_matches_sequential(self):
        # all operations are pure; shared caches may race benignly but
        # results must be identical to a sequential run
        from concurrent.futures import ThreadPoolExecutor

        ms = [m for m in range(2, 120) if is_squarefree_int(m)][:60]
        sequential = [classify_engine(m).status for m in ms]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda m: classify_engine(m).status, ms))
        assert parallel == sequential
