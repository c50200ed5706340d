"""The four benchmark workloads: seeded inputs, one case at a time, output checks.

Inputs are generated here without calling the library, so generation
neither warms the library's caches nor depends on the code it measures
(sweep12's expected statuses come from classify_theorem at set-up, before
any timing or tracing; it touches no cache).  Every check is independent of the code path it checks: sweep12 compares
against the closed-form congruence route, fuzz_corpus against invariants
of the answers, large_p against how its inputs were built, and cli_cold
against golden output captured once from the seed commit.

A workload object yields cases forever (``cases()``), runs one
(``run(case)``) and checks its answer (``check(case, answer)``, which
returns None or a description of what is wrong).  Cases come in rounds
(``case.round``); the rounds of large_p and cli_cold are strata that a
timed run only ever completes whole.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"


@dataclass
class Case:
    id: int
    round: int
    input: object
    label: str


def _squarefree(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _poly_mul_mod(a, b, p: int) -> list:
    """Product of two coefficient lists (low degree first), reduced mod p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


class Sweep12:
    """classify_engine(m) for every squarefree m with 2 <= |m| <= 2000.

    Each pass visits all 2,428 values in a seeded order; a timed run
    starts a new pass (reshuffled) when one ends.  The tail is the p98:
    the slowest cases are first-pass values whose cost depends on what
    the seeded order has cached before them, and over five seeds the p99
    varied by 10%, the p98 by 7%.
    """

    name = "sweep12"
    tail_percentile = 98
    time_limit_s = 10.0
    in_process = True

    def __init__(self, seed: int):
        import orefactor

        self.lib = orefactor
        self.rng = random.Random(seed)
        self.values = [m for a in range(2, 2001) for m in (a, -a) if _squarefree(m)]
        self.expected = {m: orefactor.classify_theorem(m).status for m in self.values}

    def cases(self):
        case_id = 0
        pass_no = 0
        while True:
            order = list(self.values)
            self.rng.shuffle(order)
            for m in order:
                yield Case(case_id, pass_no, m, f"m={m}")
                case_id += 1
            pass_no += 1

    def run(self, case):
        return self.lib.classify_engine(case.input).status

    def check(self, case, answer):
        if answer is self.lib.Status.UNDECIDED:
            return "engine status is UNDECIDED"
        if answer is not self.expected[case.input]:
            return f"engine says {answer.name}, theorem says {self.expected[case.input].name}"
        return None

    @staticmethod
    def answer_key(answer):
        return answer.name


class FuzzCorpus:
    """dedekind_test then ore_factor on seeded random monic f, 3 <= p <= 13.

    f has degree 1..12 and coefficients in [-40, 40], drawn as in the
    test suite's fuzz corpus but without its degenerate-input filter:
    RepeatedFactor is a documented refusal and is counted as one.  The
    degree and p are uniform as there, but stratified: each round visits
    all 60 (degree, p) pairs once, in a seeded order, so that the mix of
    heavy cases, which sets the p98 latency, varies little from seed to
    seed.  The tail is the p98, not the p99: over 1,800-case runs of five
    seeds the p99 ranged 49 to 57 ms and the p98 41 to 44 ms.

    p = 2 is left out: factoring mod 2 never returns for about one input
    in 500 of this shape (equal-degree splitting in characteristic 2 tries
    too few polynomials; test_selftest.py holds an example), and a
    benchmark run must not contain failing operations.  sweep12 and
    cli_cold still factor mod 2.
    """

    name = "fuzz_corpus"
    tail_percentile = 98
    time_limit_s = 5.0
    in_process = True
    PRIMES = (3, 5, 7, 11, 13)

    def __init__(self, seed: int):
        import orefactor

        self.lib = orefactor
        self.rng = random.Random(seed)

    def cases(self):
        strata = [(degree, p) for degree in range(1, 13) for p in self.PRIMES]
        case_id = 0
        round_no = 0
        while True:
            self.rng.shuffle(strata)
            for degree, p in strata:
                coeffs = [self.rng.randint(-40, 40) for _ in range(degree)] + [1]
                yield Case(case_id, round_no, (coeffs, p), f"f={coeffs} p={p}")
                case_id += 1
            round_no += 1

    def run(self, case):
        coeffs, p = case.input
        f = self.lib.IntPolynomial(coeffs)
        verdict = self.lib.dedekind_test(f, p)
        try:
            rep = self.lib.ore_factor(f, p)
        except self.lib.NotRegular as exc:
            return ("NotRegular", verdict.divides_index, exc.lower_bound)
        except self.lib.RepeatedFactor:
            return ("RepeatedFactor", verdict.divides_index)
        ef = [(i.e, i.f) for i in rep.ideals]
        return ("ok", verdict.divides_index, rep.index_valuation, ef)

    def check(self, case, answer):
        coeffs, _ = case.input
        kind, divides = answer[0], answer[1]
        if kind == "NotRegular":
            if answer[2] <= 0:
                return f"NotRegular with lower bound {answer[2]}"
            if not divides:
                return "NotRegular although Dedekind says p does not divide the index"
        elif kind == "ok":
            _, _, valuation, ef = answer
            if sum(e * f for e, f in ef) != len(coeffs) - 1:
                return f"sum e*f = {sum(e * f for e, f in ef)} != deg f"
            if divides != (valuation != 0):
                return f"divides_index={divides} but index valuation {valuation}"
        return None

    @staticmethod
    def answer_key(answer):
        if answer[0] == "ok":
            return answer[:3] + (sorted(answer[3]),)
        return answer


class LargeP:
    """factor_mod_p then ore_factor on f mod primes from 10^3 to about 10^5.

    One round draws one case from each of seven prime bands whose centres
    are log-uniformly spaced, a third of a decade apart (10^3, 10^(10/3),
    ..., 10^5); the seed jitters p upward by up to 2% inside the band and
    draws the coefficients.  f is monic of degree n = k + 2, built so that
        f = (x - a)(x - b)(x^k - c)  (mod p),   a != b,
    with x^k - c irreducible over F_p (k = 0, or 2..10).  Every case
    therefore needs exactly one equal-degree split of two linear
    factors, the step whose cost grows with p, and the answer is known
    from the construction.  Band i always has degree DEGREES[i]: with
    the split work fixed per band, a seed cannot change the run's cost
    by drawing more or fewer splits.  The bands stop at 10^5, where one
    case takes about 0.4 s at the seed commit (10^6 takes about 7 s), so
    that a run completes at least fifteen whole rounds: the median and
    p90 latencies are then each a middle-ranked sample of one band, with
    at least ten samples beyond the p90.
    """

    name = "large_p"
    tail_percentile = 90
    time_limit_s = 60.0
    in_process = True
    min_rounds = 15
    DEGREES = (2, 4, 6, 7, 8, 10, 12)
    CENTRES = tuple(round(10 ** (3 + i / 3)) for i in range(7))

    def __init__(self, seed: int):
        import orefactor

        self.lib = orefactor
        self.rng = random.Random(seed)

    def _case_input(self, centre: int, n: int):
        rng = self.rng
        k = n - 2
        radical = _prime_factors(k) if k >= 2 else []
        step = 1  # p = 1 (mod step): every prime r | k divides p - 1
        for r in radical:
            step *= r
        if k % 4 == 0 and k:
            step *= 2  # and p = 1 (mod 4) when 4 | k
        p = int(centre * (1 + 0.02 * rng.random()))
        while not ((p - 1) % step == 0 and _is_prime(p)):
            p += 1
        a = rng.randrange(p)
        b = rng.randrange(p - 1)
        b += b >= a  # distinct from a
        factors = [(-a % p, 1), (-b % p, 1)]
        if k >= 2:
            # With p as above, x^k - c is irreducible over F_p iff c is
            # no r-th power for every prime r | k (Lidl & Niederreiter,
            # Finite Fields, Thm 3.75).
            while True:
                c = rng.randrange(1, p)
                if all(pow(c, (p - 1) // r, p) != 1 for r in radical):
                    break
            factors.append((-c % p,) + (0,) * (k - 1) + (1,))
        coeffs = [1]
        for phi in factors:
            coeffs = _poly_mul_mod(coeffs, phi, p)
        return coeffs, p, sorted(factors)

    def cases(self):
        case_id = 0
        round_no = 0
        while True:
            for centre, n in zip(self.CENTRES, self.DEGREES):
                coeffs, p, factors = self._case_input(centre, n)
                yield Case(case_id, round_no, (coeffs, p, factors), f"deg={n} p={p}")
                case_id += 1
            round_no += 1

    def run(self, case):
        coeffs, p, _ = case.input
        f = self.lib.IntPolynomial(coeffs)
        factors = self.lib.factor_mod_p(f, p)
        rep = self.lib.ore_factor(f, p)
        return (
            [(phi.coeffs, mult) for phi, mult in factors],
            rep.index_valuation,
            [(i.e, i.f) for i in rep.ideals],
        )

    def check(self, case, answer):
        coeffs, p, expected = case.input
        factors, valuation, ef = answer
        product = [1]
        for phi, mult in factors:
            for _ in range(mult):
                product = _poly_mul_mod(product, list(phi), p)
        if product != coeffs:
            return "product of phi^mult differs from f mod p"
        degree = len(coeffs) - 1
        if sum((len(phi) - 1) * mult for phi, mult in factors) != degree:
            return "factor degrees times multiplicities do not sum to deg f"
        if sorted(phi for phi, _ in factors) != expected or any(m != 1 for _, m in factors):
            return f"factors {factors} differ from the constructed {expected}"
        if valuation != 0:
            return f"index valuation {valuation}, but f mod p is squarefree"
        if sorted(ef) != sorted((1, len(phi) - 1) for phi in expected):
            return f"ideal shape {sorted(ef)} differs from the factors mod p"
        return None

    @staticmethod
    def answer_key(answer):
        return answer


CLI_MIX = (
    ("factor_x12m13_p2", ["factor", "--f", "x^12-13", "--p", "2", "--format", "json"]),
    ("factor_x12m13_p3", ["factor", "--f", "x^12-13", "--p", "3", "--format", "json"]),
    ("polygon_x12m41_p2", ["polygon", "--f", "x^12-41", "--phi", "x-1", "--p", "2", "--format", "json"]),
    ("classify_m33", ["classify", "--m", "33", "--format", "json"]),
    ("sweep_m50_50", ["sweep", "--range=-50..50", "--format", "csv"]),
)


class CliCold:
    """orefactor.cli.main(argv), each invocation in a fresh interpreter.

    A round is the five-command mix in a seeded order.  Latency is the
    wall time from starting the interpreter to its exit, which is what a
    user of the command pays.  When the workload is traced, each child
    records its own spans into a file named by ``spans_dir``.
    """

    name = "cli_cold"
    tail_percentile = 75
    time_limit_s = 60.0
    in_process = False
    min_rounds = 8

    def __init__(self, seed: int):
        import orefactor.cli  # noqa: F401  (set-up cost a user pays per call)

        self.rng = random.Random(seed)
        manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
        self.golden = {
            name: (entry["exit"], (GOLDEN_DIR / f"{name}.out").read_bytes())
            for name, entry in manifest.items()
        }
        self.spans_dir = None

    def cases(self):
        case_id = 0
        round_no = 0
        while True:
            mix = list(CLI_MIX)
            self.rng.shuffle(mix)
            for name, argv in mix:
                yield Case(case_id, round_no, (name, argv), name)
                case_id += 1
            round_no += 1

    def run(self, case):
        name, argv = case.input
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py")]
        if self.spans_dir is not None:
            cmd += ["--spans", str(Path(self.spans_dir) / f"case{case.id}.json")]
        proc = subprocess.Popen(
            cmd + ["--"] + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
        )
        try:
            out, err = proc.communicate(timeout=self.time_limit_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out, err

    def check(self, case, answer):
        code, out, err = answer
        want_code, want_out = self.golden[case.input[0]]
        if code != want_code:
            return f"exit code {code}, golden {want_code}: {err.decode(errors='replace')[-300:]}"
        if code in (1, 2) and not err.startswith(b"error: "):
            return "refusal without an error message"
        if out != want_out:
            return "stdout differs from the golden file"
        return None

    @staticmethod
    def answer_key(answer):
        code, out, _ = answer
        return (code, out.decode())


WORKLOADS = {w.name: w for w in (Sweep12, FuzzCorpus, LargeP, CliCold)}
