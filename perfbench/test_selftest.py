"""Self-test of the benchmark harness.

    python3 -m pytest perfbench -q

Tracing must change no answer, self times must fit inside the traced
wall time, failures must be counted without stopping the loop, and the
large_p inputs must factor as they were built.  The speed scale must
follow the probe.  One test records why fuzz_corpus leaves out p = 2.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

import speed
import worker
from workloads import BENCH_DIR, ROOT, SRC, Case, LargeP

SLICE = {"sweep12": 60, "fuzz_corpus": 40, "large_p": 4, "cli_cold": 5}


def run_worker(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SLICE))
def test_tracing_changes_no_answer(workload):
    args = ["--workload", workload, "--seed", "7", "--cases", str(SLICE[workload])]
    plain = run_worker(*args)
    traced = run_worker(*args, "--trace")
    assert plain["attempted"] == traced["attempted"] == SLICE[workload]
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]
    layer = traced["per_layer"]
    self_ms = sum(v for k, v in layer.items() if k.endswith(".self_ms"))
    wall_ms = sum(traced["latencies_ns"]) / 1e6
    assert 0 < self_ms <= wall_ms


class _Scripted:
    """Cases that answer, raise, answer wrongly and overrun, in turn."""

    in_process = True
    time_limit_s = 0.2

    def cases(self):
        for i, kind in enumerate(["ok", "raise", "wrong", "overrun", "ok"]):
            yield Case(i, i, kind, kind)

    def run(self, case):
        if case.input == "raise":
            raise ValueError("boom")
        while case.input == "overrun":
            pass
        return case.input

    def check(self, case, answer):
        return "wrong answer" if answer == "wrong" else None

    @staticmethod
    def answer_key(answer):
        return answer


def test_failures_are_counted_and_the_loop_goes_on():
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        res = worker.run_loop(_Scripted(), None, 5, None)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert res["attempted"] == 5
    assert [f["kind"] for f in res["failures"]] == ["error", "wrong", "timeout"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_large_p_inputs_factor_as_built(seed):
    sys.path.insert(0, str(SRC))
    from orefactor import FpPolynomial

    wl = LargeP(seed)
    cases = wl.cases()
    for centre, degree in zip(LargeP.CENTRES, LargeP.DEGREES):
        coeffs, p, factors = next(cases).input
        assert centre <= p and len(coeffs) == degree + 1 and coeffs[-1] == 1
        assert len(set(factors)) == (2 if degree == 2 else 3)
        assert all(FpPolynomial(p, phi).is_irreducible() for phi in factors)
        product = FpPolynomial(p, [1])
        for phi in factors:
            product = product * FpPolynomial(p, phi)
        assert product == FpPolynomial(p, coeffs)


def test_speed_factor_uses_the_probes_around_the_interval():
    meter = speed.SpeedMeter()
    meter.times = [0, 100, 200, 10**12]
    meter.durations = [speed.REF_PROBE_NS, 2 * speed.REF_PROBE_NS, 2 * speed.REF_PROBE_NS, 1]
    # probes 0, 100 and 200 are within the window; the one far after is not
    assert meter.factor(150, 160) == 0.5
    # with none in the window, the nearest before and after are used
    ref = speed.REF_PROBE_NS
    assert meter.factor(10**11, 10**11 + 1) == pytest.approx(ref / ((2 * ref + 1) / 2))


@pytest.mark.xfail(strict=True, reason="factor_mod_p does not return for this input mod 2")
def test_factor_mod_2_returns():
    # x^12 + x^7 + x^5 + x^4 + x^3 + x^2 + x + 1: its degree-10 part mod 2
    # is a product of two quintics that no trial polynomial of degree <= 3
    # separates.  When this passes, put p = 2 back into fuzz_corpus.
    code = (
        "from orefactor import IntPolynomial, factor_mod_p\n"
        "print(factor_mod_p(IntPolynomial([1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1]), 2))"
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=20,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("factor_mod_p did not return within 20 s")
    assert proc.returncode == 0, proc.stderr
