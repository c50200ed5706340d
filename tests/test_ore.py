import random
import sys
import threading
import traceback
from collections import Counter

import pytest

from conftest import FUZZ_PRIMES, FUZZ_SEED, patch_everywhere, run_snippet
from orefactor import cli, ffield, intpoly
from orefactor.errors import (
    IndexDivisible, NonMonicModulus, NotRegular, ReducibleModulus, RepeatedFactor,
)
from orefactor.ffield import FpPolynomial, ResidueField, _FieldPolynomial, factor_mod_p
from orefactor.intpoly import IntPolynomial, discriminant, phi_expand, vp_int
from orefactor.ore import (
    _analyze,
    _phi_report,
    dedekind_test,
    is_p_regular,
    kummer_factor,
    ore_factor,
    ore_index,
)
from orefactor.polygon import build_polygon, phi_index


def pure(m):
    return IntPolynomial.pure(12, m)


class TestDedekind:
    def test_three_mod_four_passes_at_two(self):
        for m in (3, 7, -5, 2023):
            assert m % 4 == 3
            verdict = dedekind_test(pure(m), 2)
            assert not verdict.divides_index
            assert verdict.failing_phi is None

    def test_p_dividing_squarefree_m_passes(self):
        for m, p in ((10, 2), (10, 5), (21, 3), (-30, 5)):
            assert not dedekind_test(pure(m), p).divides_index

    def test_one_mod_four_fails_at_two(self):
        for m in (13, 33, 41, -7):
            assert m % 4 == 1
            verdict = dedekind_test(pure(m), 2)
            assert verdict.divides_index
            assert verdict.failing_phi is not None
            # the reported factor really is a repeated factor of f mod 2
            factors = dict(factor_mod_p(pure(m), 2))
            assert factors[verdict.failing_phi] >= 2

    def test_agrees_with_index_on_pure_family(self):
        for m in range(2, 80):
            for p in (2, 3):
                verdict = dedekind_test(pure(m), p)
                value, exact = ore_index(pure(m), p)
                assert verdict.divides_index == (value > 0)
                if value == 0:
                    assert exact


class TestDedekindCriterion:
    """failing_phi is the first factor, in factor_mod_p order, whose
    phi-index is positive, and None iff there is none: Dedekind's test
    checked against the polygon route."""

    @staticmethod
    def divides(f, p):
        try:
            reports = _analyze(f, p)
        except RepeatedFactor:
            return None
        verdict = dedekind_test(f, p)
        expected = next((r.phibar for r in reports if r.index > 0), None)
        assert verdict.failing_phi == expected, (str(f), p)
        assert verdict.divides_index == (expected is not None), (str(f), p)
        return verdict.divides_index

    def test_fuzz_corpus(self, fuzz_corpus):
        assert sum(self.divides(f, p) for f, p in fuzz_corpus) == 42

    def test_coefficients_scaled_by_powers_of_p(self):
        rng = random.Random(FUZZ_SEED + 1)
        verdicts = Counter()
        for _ in range(2000):
            p = rng.choice(FUZZ_PRIMES)
            scale = p ** rng.randint(0, 2)
            degree = rng.randint(1, 12)
            f = IntPolynomial([scale * rng.randint(-40, 40) for _ in range(degree)] + [1])
            verdicts[self.divides(f, p)] += 1
        assert verdicts[True] > 500 and verdicts[False] > 500, verdicts

    def test_factor_not_dividing_f_mod_p_fails_loudly(self, monkeypatch):
        f = IntPolynomial([1, 0, 1])  # irreducible mod 3

        def wrong(g, p):
            return [(FpPolynomial(p, (1, 1)), 2)]  # x + 1 does not divide it

        patch_everywhere(monkeypatch, factor_mod_p, wrong)
        with pytest.raises(AssertionError, match="does not divide"):
            dedekind_test(f, 3)


class TestKummer:
    def test_totally_ramified_for_p_dividing_m(self):
        for m, p in ((10, 2), (10, 5), (33, 3), (33, 11)):
            rep = kummer_factor(pure(m), p)
            assert rep.ef_multiset() == [(12, 1)]
            assert rep.index_valuation == 0

    def test_squarefree_reduction_all_e_one(self):
        # 5 does not divide 12m and x^12 - 7 is squarefree mod 5
        rep = kummer_factor(pure(7), 5)
        assert all(e == 1 for e, _ in rep.ef_multiset())
        assert sum(f for _, f in rep.ef_multiset()) == 12

    def test_refuses_when_index_divisible(self):
        with pytest.raises(IndexDivisible):
            kummer_factor(pure(33), 2)

    def test_agrees_with_ore_when_both_apply(self):
        for m, p in ((10, 2), (10, 5), (7, 2), (7, 3), (7, 7), (2, 3), (-6, 3)):
            kum = kummer_factor(pure(m), p)
            ore = ore_factor(pure(m), p)
            assert kum.ef_multiset() == ore.ef_multiset()
            assert ore.index_valuation == 0


class TestOreIndex:
    def test_zero_cases(self):
        assert ore_index(pure(7), 3) == (0, True)  # 7 is not +-1 mod 9
        assert ore_index(pure(7), 2) == (0, True)  # 3 mod 4
        assert ore_index(pure(10), 2) == (0, True)  # p | m
        assert ore_index(pure(10), 5) == (0, True)

    def test_nine_mod_sixteen_value(self):
        # lattice counts: 3 under the (x-1)-polygon, 3 under the quadratic one
        value, exact = ore_index(pure(41), 2)
        assert value == 3 * 1 + 3 * 2 == 9
        assert exact

    def test_known_positive_values(self):
        assert ore_index(pure(13), 2) == (6, True)  # 5 mod 8
        assert ore_index(pure(10), 3) == (4, True)  # 1 mod 9
        assert ore_index(pure(26), 3) == (4, True)  # -1 mod 9


class TestRegularity:
    def test_pure_cases_regular(self):
        assert is_p_regular(pure(13), 2)
        assert is_p_regular(pure(10), 3)
        assert is_p_regular(pure(26), 3)
        assert is_p_regular(pure(33), 2)

    def test_constructed_non_regular(self):
        # x^4 + 3x^2 + 9 at p = 3: x-polygon is the single side (0,2)-(4,0)
        # and the residual is y^2 + y + 1 = (y - 1)^2 over F_3
        f = IntPolynomial([9, 0, 3, 0, 1])
        assert not is_p_regular(f, 3)
        value, exact = ore_index(f, 3)
        assert (value, exact) == (2, False)
        with pytest.raises(NotRegular) as err:
            ore_factor(f, 3)
        assert err.value.lower_bound == value

    def test_degenerate_square_divisibility_refused(self):
        f = IntPolynomial([1, 2, 1])  # (x+1)^2, divisible by the lift squared
        with pytest.raises(RepeatedFactor):
            ore_index(f, 2)
        with pytest.raises(RepeatedFactor):
            ore_factor(f, 2)

    @pytest.mark.parametrize(
        "route", [dedekind_test, kummer_factor, ore_factor, ore_index, is_p_regular],
        ids=lambda route: route.__name__,
    )
    def test_non_monic_f_refused(self, route):
        with pytest.raises(NonMonicModulus, match="f must be monic"):
            route(IntPolynomial([1, 0, 2]), 3)  # 2x^2 + 1


class TestOreFactor:
    SHAPES = {
        (33, 2): [(1, 1), (1, 1), (2, 1), (1, 2), (1, 2), (2, 2)],
        (41, 2): [(1, 2), (2, 1), (1, 2), (1, 2), (2, 2)],
        (13, 2): [(2, 2), (2, 2), (2, 2)],
        (10, 3): [(1, 1), (2, 1), (1, 1), (2, 1), (1, 2), (2, 2)],
        (26, 3): [(1, 2), (2, 2), (1, 2), (2, 2)],
    }

    @pytest.mark.parametrize("key", sorted(SHAPES))
    def test_splitting_shapes(self, key):
        m, p = key
        rep = ore_factor(pure(m), p)
        assert rep.ef_multiset() == sorted(self.SHAPES[key])
        assert sum(e * f for e, f in rep.ef_multiset()) == 12

    def test_ideal_metadata(self):
        rep = ore_factor(pure(13), 2)
        for ideal in rep.ideals:
            assert ideal.side_slope is not None
            assert ideal.residual_factor is not None
            assert ideal.residual_factor.is_monic()
            assert ideal.f == ideal.phi.degree * ideal.residual_factor.degree

    def test_deterministic_order(self):
        a = ore_factor(pure(41), 2)
        b = ore_factor(pure(41), 2)
        assert [(str(i.phi), str(i.side_slope), str(i.residual_factor)) for i in a.ideals] == [
            (str(i.phi), str(i.side_slope), str(i.residual_factor)) for i in b.ideals
        ]
        # phis appear in sorted blocks, slopes ascend within each block
        phis = [str(i.phi) for i in a.ideals]
        assert phis == sorted(phis, key=lambda s: (len(s), s))

    def test_whole_polynomial_as_single_factor(self):
        f = IntPolynomial([1, 1, 1])
        rep = ore_factor(f, 2)
        assert rep.ef_multiset() == [(1, 2)]
        assert ore_index(f, 2) == (0, True)


class TestFuzzCorpus:
    def test_fundamental_identity_and_dedekind_equivalence(self, fuzz_corpus):
        assert len(fuzz_corpus) == 500
        regular_seen = 0
        for f, p in fuzz_corpus:
            value, exact = ore_index(f, p)
            verdict = dedekind_test(f, p)
            assert verdict.divides_index == (value > 0), (str(f), p)
            if value == 0:
                assert exact
            if exact:
                rep = ore_factor(f, p)
                regular_seen += 1
                assert sum(e * ff for e, ff in rep.ef_multiset()) == f.degree
                assert rep.index_valuation == value
            else:
                with pytest.raises(NotRegular):
                    ore_factor(f, p)
        assert regular_seen > 250  # regularity is the common case

    def test_regular_iff_exact(self, fuzz_corpus):
        for f, p in fuzz_corpus[:120]:
            _, exact = ore_index(f, p)
            assert exact == is_p_regular(f, p)


class TestTameDiscriminantIdentity:
    def test_conductor_discriminant_relation(self):
        """Independent cross-check of index and (e, f) data at once.

        At a tamely ramified p (p divides no ramification index e) the
        p-valuation of disc(f) equals sum((e-1)*f) plus twice the
        p-valuation of the index.  Nothing in the engine uses this
        identity, so it validates ore_factor and ore_index together.
        """
        from orefactor.intpoly import discriminant, vp_int

        checked = 0
        for m in range(2, 400):
            if any(m % (d * d) == 0 for d in range(2, 20)):
                continue
            for p in (3, 5, 7, 11, 13):
                if p != 3 and m % p != 0:
                    continue  # p unramified, nothing to check
                rep = ore_factor(pure(m), p)
                if any(e % p == 0 for e, _ in rep.ef_multiset()):
                    continue  # wild ramification: only an inequality holds
                disc_val = vp_int(discriminant(pure(m)), p)
                conductor = sum((e - 1) * f for e, f in rep.ef_multiset())
                assert disc_val == conductor + 2 * rep.index_valuation, (m, p)
                checked += 1
        assert checked > 150


class TestDiscriminantDifferentIdentity:
    """v_p(disc f) = 2 v_p(ind) + v_p(disc K), and v_p(disc K) is the sum of
    v_P(different) * f over the primes P above p: (e - 1) * f where p does
    not divide e, at least e * f where it does.  disc f comes from the
    resultant over Z, which shares no code with the polygons."""

    def test_seeded_monic_f(self):
        rng = random.Random(FUZZ_SEED + 7)
        kinds = Counter()
        while kinds["tame"] + kinds["wild"] < 2000:
            p = rng.choice(FUZZ_PRIMES)
            degree = rng.randint(2, 12)
            scale = p ** rng.randint(0, 2)
            f = IntPolynomial([scale * rng.randint(-20, 20) for _ in range(degree)] + [1])
            disc = discriminant(f)
            if disc == 0:  # the ring is not reduced
                continue
            try:
                rep = ore_factor(f, p)
            except (NotRegular, RepeatedFactor):
                continue
            efs = rep.ef_multiset()
            tame = sum((e - 1) * f_ for e, f_ in efs if e % p)
            wild = sum(e * f_ for e, f_ in efs if e % p == 0)
            lower = 2 * rep.index_valuation + tame + wild
            case = (str(f), p, efs, rep.index_valuation)
            if wild:
                assert vp_int(disc, p) >= lower, case
                kinds["wild"] += 1
            else:
                assert vp_int(disc, p) == lower, case
                kinds["tame"] += 1
                kinds["tame, ramified"] += tame > 0
        assert kinds["wild"] > 200 and kinds["tame, ramified"] > 200, kinds


class TestOneAnalysisPerPrime:
    """Each route expands f once per phi, through intpoly._phi_digits: the
    library to the principal part's mult + 1 digits, the CLI's factor in
    full, since it prints every point.  From an empty field cache, no
    factor of factor_mod_p goes through Rabin's test, because its splitting
    proved it irreducible; a user's phi goes through it exactly once."""

    PATHS = {
        "ore_factor": ore_factor,
        "ore_index": ore_index,
        "is_p_regular": is_p_regular,
        "cli factor": lambda f, p: cli.main(["factor", "--f", str(f), "--p", str(p)]),
        "cli factor json": lambda f, p: cli.main(
            ["factor", "--f", str(f), "--p", str(p), "--format", "json"]
        ),
    }
    USER_PATHS = {
        "build_polygon": build_polygon,
        "phi_index": phi_index,
        "cli polygon": lambda f, phi, p: cli.main(
            ["polygon", "--f", str(f), "--phi", str(phi), "--p", str(p)]
        ),
    }

    @pytest.fixture
    def counters(self, monkeypatch):
        expanded, certified = Counter(), Counter()
        phi_digits = intpoly._phi_digits
        is_irreducible = _FieldPolynomial.is_irreducible

        def counted_digits(f, phi, limit):
            expanded[(phi.coeffs, limit)] += 1
            return phi_digits(f, phi, limit)

        def counted_irreducible(g):
            certified[(g.field.key, g.coeffs)] += 1
            return is_irreducible(g)

        patch_everywhere(monkeypatch, phi_digits, counted_digits)
        monkeypatch.setattr(_FieldPolynomial, "is_irreducible", counted_irreducible)
        ffield._field.cache_clear()
        return expanded, certified

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_x12_minus_13(self, counters, capsys, path, p):
        expanded, certified = counters
        f = pure(13)
        self.PATHS[path](f, p)
        factors = factor_mod_p(f, p)
        cli_path = path.startswith("cli")
        assert expanded == Counter(
            (phibar.lift().coeffs, None if cli_path else mult + 1) for phibar, mult in factors
        )
        for phibar, _ in factors:
            assert certified[(phibar.field.key, phibar.coeffs)] == 0, str(phibar)

    @pytest.mark.parametrize("path", sorted(USER_PATHS))
    def test_user_phi_tested_once(self, counters, capsys, path):
        expanded, certified = counters
        f, phi, p = pure(13), IntPolynomial([1, 1, 1]), 2  # x^2 + x + 1 divides f mod 2
        self.USER_PATHS[path](f, phi, p)
        assert expanded == Counter({(phi.coeffs, None): 1})
        phibar = FpPolynomial(p, phi.coeffs)
        assert certified[(phibar.field.key, phibar.coeffs)] == 1

    def test_user_phi_tested_after_the_cache_is_warm(self, counters):
        """A caller's phi is tested once even where ore_factor has already
        cached its field as a factor: x^2 + 1 divides x^12 - 13 mod 3."""
        _, certified = counters
        f, p = pure(13), 3
        ore_factor(f, p)
        phibar = FpPolynomial(p, (1, 0, 1))
        assert phibar.coeffs in [factor.coeffs for factor, _ in factor_mod_p(f, p)]
        assert sum(certified.values()) == 0
        build_polygon(f, phibar.lift(), p)
        assert certified == Counter({(phibar.field.key, phibar.coeffs): 1})
        build_polygon(f, phibar.lift(), p)
        assert sum(certified.values()) == 1


@pytest.mark.parametrize("path", ["build_polygon", "ResidueField.get", "cli polygon"])
def test_reducible_phi_refused_after_the_cache_is_warm(capsys, path):
    """The fields that ore_factor built without Rabin's test do not let a
    reducible phi through: x^2 - 1 = (x + 1)(x + 2) mod 3, whose factors
    ore_factor has just put in the field cache."""
    ffield._field.cache_clear()
    f, p = pure(13), 3
    ore_factor(f, p)
    linear = [phibar for phibar, _ in factor_mod_p(f, p) if phibar.degree == 1]
    product = linear[0] * linear[1]
    assert ffield._field.cache_info().currsize == 4  # F_3 and the three F_phi
    if path == "cli polygon":
        argv = ["polygon", "--f", str(f), "--phi", str(product.lift()), "--p", str(p)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: x^2 + 2 is reducible over F_3\n"
        return
    with pytest.raises(ReducibleModulus):
        if path == "build_polygon":
            build_polygon(f, product.lift(), p)
        else:
            ResidueField.get(p, product)


class TestPrincipalPartOnly:
    """_analyze expands f in each phi only to the digit mult + 1, where
    the principal polygon ends at (mult, 0).  Its reports must match
    reports built from the full phi_expand in everything the answers read."""

    @staticmethod
    def full_reports(f, p):
        return [
            _phi_report(phi_expand(f, phibar.lift()), ResidueField.get(p, phibar), mult)
            for phibar, mult in factor_mod_p(f, p)
        ]

    @staticmethod
    def cases():
        """Fuzz-style f scaled by 1, p or p^2 for p <= 13, and products of
        factors of degree 1-3, some squared, plus p times a tail, for large p."""
        rng = random.Random(FUZZ_SEED + 17)
        for _ in range(600):
            p = rng.choice(FUZZ_PRIMES)
            scale = p ** rng.randint(0, 2)
            degree = rng.randint(1, 12)
            yield IntPolynomial([scale * rng.randint(-40, 40) for _ in range(degree)] + [1]), p
        for _ in range(100):
            p = rng.choice((101, 10007, 2**61 - 1))
            f = IntPolynomial([1])
            for _ in range(rng.randint(1, 4)):
                factor = IntPolynomial([rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1])
                f = f * factor ** rng.randint(1, 2)
            yield f + IntPolynomial([p * rng.randint(-3, 3) for _ in range(f.degree)]), p

    def test_reports_match_the_full_expansion(self):
        compared = shortened = 0
        for f, p in self.cases():
            full = self.full_reports(f, p)
            try:
                reports = _analyze(f, p)
            except RepeatedFactor:
                assert any(r.exact_power >= 2 for r in full), (str(f), p)
                continue
            assert len(reports) == len(full)
            for got, want in zip(reports, full):
                case = (str(f), p, str(got.phibar))
                assert got.phibar == want.phibar and got.multiplicity == want.multiplicity, case
                assert got.exact_power == want.exact_power, case
                assert got.polygon.principal_sides == want.polygon.principal_sides, case
                assert got.residuals == want.residuals, case
                assert got.residual_factors == want.residual_factors, case
                assert got.index == want.index, case
                compared += 1
                shortened += len(got.polygon.points) < len(want.polygon.points)
        assert compared > 1200 and shortened > 600, (compared, shortened)


class TestTranslationIdentity:
    """x -> x + t maps Z[x]/(f(x)) onto Z[x]/(f(x + t)), so both define the
    same field and the same order Z[alpha].  The engine must give both the
    same splitting of p and the same index valuation, although it lifts
    different factors for them."""

    @staticmethod
    def shifted(f, t):
        """f(x + t), by Horner's rule over Z."""
        acc = IntPolynomial([])
        for c in reversed(f.coeffs):
            acc = acc * IntPolynomial([t, 1]) + IntPolynomial([c])
        return acc

    @staticmethod
    def outcome(f, p):
        """(ef multiset, index valuation), ("bound", lower bound) or None."""
        try:
            rep = ore_factor(f, p)
        except NotRegular as exc:
            return "bound", exc.lower_bound
        except RepeatedFactor:  # a statement about the lifts, not the field
            return None
        return rep.ef_multiset(), rep.index_valuation

    def test_shifted_pairs_agree(self):
        rng = random.Random(FUZZ_SEED + 5)
        kinds = Counter()
        while sum(kinds.values()) < 1000:
            p = rng.choice((2, 3, 5, 7))
            degree = rng.randint(2, 10)
            scale = p ** rng.randint(0, 2)
            f = IntPolynomial([scale * rng.randint(-20, 20) for _ in range(degree)] + [1])
            if discriminant(f) == 0:  # the ring is not reduced
                continue
            t = rng.choice([k for k in range(-20, 21) if k])
            pair = self.outcome(f, p), self.outcome(self.shifted(f, t), p)
            if None in pair:
                kinds["repeated"] += 1
                continue
            bounds = [value for kind, value in pair if kind == "bound"]
            case = (str(f), t, p, pair)
            if not bounds:
                assert pair[0] == pair[1], case
                kinds["answered, v > 0" if pair[0][1] else "answered"] += 1
            elif len(bounds) == 1:
                exact = next(value for kind, value in pair if kind != "bound")
                assert bounds[0] <= exact, case
                kinds["one bound"] += 1
            else:
                kinds["two bounds"] += 1
        assert kinds["answered, v > 0"] > 300 and kinds["one bound"] > 20, kinds


def test_primality_certified_once_per_field(monkeypatch):
    """ore_factor tests p for primality only where it builds a field
    (F_p, then F_phi per factor phi), not once per valuation."""
    calls = Counter()
    is_prime = intpoly.is_prime

    def counted(n):
        calls[n] += 1
        return is_prime(n)

    patch_everywhere(monkeypatch, is_prime, counted)
    ffield._field.cache_clear()
    ffield._factor_reduced.cache_clear()
    p = 10007
    # x^2 (x - 1)(x - 2) + p^2 (x + 1): phi = x has a side of degree 2
    f = IntPolynomial([p * p, p * p, 2, -3, 1])
    report = ore_factor(f, p)
    assert sum(i.e * i.f for i in report.ideals) == 4
    fields = {(0, 1)} | {phibar.coeffs for phibar, _ in factor_mod_p(f, p)}  # F_p = F_p[x]/(x)
    assert calls[p] == len(fields) == 3


def test_caches_shared_by_threads():
    """Threads share the field and factorization caches without locking.

    Each of six workers runs 70 seeded cases: f factored mod each fuzz
    prime, then ore_factor.  The inputs rarely repeat, so both caches keep
    evicting.  A 1 us switch interval makes the interpreter switch
    threads inside cache lookups; a hand-written LRU dict raised KeyError
    there in 39 of 40 runs.
    """
    raised = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(70):
                degree = rng.randint(1, 12)
                f = IntPolynomial([rng.randint(-40, 40) for _ in range(degree)] + [1])
                for p in FUZZ_PRIMES:
                    factor_mod_p(f, p)
                try:
                    ore_factor(f, rng.choice(FUZZ_PRIMES))
                except (NotRegular, RepeatedFactor):
                    pass
        except Exception:  # any escape is the failure
            raised.append(traceback.format_exc())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(FUZZ_SEED + i,)) for i in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert raised == []


def test_allocated_blocks_stay_flat():
    """A long run of the engine leaves no growing heap behind it.

    Before tuple([...]) replaced tuple(<generator>) on the hot paths,
    CPython 3.11 kept refilling every tuple free list but the one of
    size 10, and this count grew by about 5,000 blocks.
    """
    proc = run_snippet(
        """
import random, sys
from orefactor import IntPolynomial, NotRegular, RepeatedFactor, dedekind_test, ore_factor

rng = random.Random(20261018)

def case():
    degree = rng.randint(1, 12)
    f = IntPolynomial([rng.randint(-40, 40) for _ in range(degree)] + [1])
    p = rng.choice((3, 5, 7, 11, 13))
    dedekind_test(f, p)
    try:
        ore_factor(f, p)
    except (NotRegular, RepeatedFactor):
        pass

for _ in range(1000):
    case()
before = sys.getallocatedblocks()
for _ in range(3000):
    case()
print(sys.getallocatedblocks() - before)
""",
        timeout=90,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1500
