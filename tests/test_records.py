"""The value types' contract: constructor signature and defaults, equality
and hash over the fields, exact repr, immutability, pickling and copying,
and a CLI import that pulls in no code-generation machinery."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from conftest import run_snippet
from orefactor import (
    DedekindVerdict,
    IntPolynomial,
    MonogenityVerdict,
    NewtonPolygon,
    PhiExpansion,
    PrimeFactorization,
    PrimeIdealData,
    PureFieldInput,
    ResidualPolynomial,
    Side,
    Status,
    build_polygon,
    classify_engine,
    classify_theorem,
    dedekind_test,
    ore_factor,
    phi_expand,
)
from orefactor._record import Record
from orefactor.ffield import FpPolynomial
from orefactor.ore import _analyze, _PhiReport

REQUIRED = inspect.Parameter.empty

# (field, default) in constructor order; REQUIRED marks a field without one
SIGNATURES = {
    PhiExpansion: [("phi", REQUIRED), ("terms", REQUIRED)],
    Side: [("start", REQUIRED), ("end", REQUIRED)],
    NewtonPolygon: [
        ("phi", REQUIRED),
        ("p", REQUIRED),
        ("points", REQUIRED),
        ("sides", REQUIRED),
        ("principal_sides", REQUIRED),
    ],
    ResidualPolynomial: [("side", REQUIRED), ("poly", REQUIRED)],
    DedekindVerdict: [("divides_index", REQUIRED), ("failing_phi", None)],
    PrimeIdealData: [
        ("phi", REQUIRED),
        ("e", REQUIRED),
        ("f", REQUIRED),
        ("side_slope", None),
        ("residual_factor", None),
    ],
    PrimeFactorization: [("p", REQUIRED), ("ideals", REQUIRED), ("index_valuation", REQUIRED)],
    _PhiReport: [
        ("phibar", REQUIRED),
        ("exact_power", REQUIRED),
        ("polygon", REQUIRED),
        ("residuals", REQUIRED),
        ("residual_factors", REQUIRED),
        ("index", REQUIRED),
    ],
    PureFieldInput: [("m", REQUIRED), ("n", 12), ("squarefree_bound", 10**7)],
    MonogenityVerdict: [
        ("m", REQUIRED),
        ("n", REQUIRED),
        ("status", REQUIRED),
        ("witness", None),
        ("witnesses", ()),
        ("per_prime_reports", ()),
        ("index_valuations", ()),
        ("notes", ()),
    ],
}

TYPES = sorted(SIGNATURES, key=lambda cls: cls.__name__)


def _sample(cls):
    """One instance of cls, as the engine makes it."""
    f = IntPolynomial.pure(12, 13)
    if cls is PhiExpansion:
        return phi_expand(f, IntPolynomial([1, 1]))
    if cls is NewtonPolygon:
        return build_polygon(f, IntPolynomial([1, 1]), 3)
    if cls is Side:
        return build_polygon(f, IntPolynomial([1, 1]), 3).sides[0]
    if cls in (_PhiReport, ResidualPolynomial):
        report = _analyze(f, 3)[0]
        return report if cls is _PhiReport else report.residuals[0]
    if cls is DedekindVerdict:
        return dedekind_test(f, 2)
    if cls is PrimeFactorization:
        return ore_factor(f, 2)
    if cls is PrimeIdealData:
        return ore_factor(f, 2).ideals[0]
    if cls is PureFieldInput:
        return PureFieldInput(m=-30, n=12, squarefree_bound=1000)
    return classify_engine(33)


def _values(record):
    return [getattr(record, name) for name, _ in SIGNATURES[type(record)]]


def _other(value):
    """A value of the field's kind that differs from value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return value + (None,)
    return None if value is not None else 0


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_signature_and_defaults(self, cls):
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    def test_positional_and_keyword_construction(self, cls):
        record = _sample(cls)
        values = _values(record)
        names = [name for name, _ in SIGNATURES[cls]]
        assert cls(*values) == record
        assert cls(**dict(zip(names, values))) == record
        required = [v for v, (_, d) in zip(values, SIGNATURES[cls]) if d is REQUIRED]
        bare = cls(*required)
        for name, default in SIGNATURES[cls]:
            if default is not REQUIRED:
                assert getattr(bare, name) == default

    def test_equality_reads_every_field(self, cls):
        record = _sample(cls)
        values = _values(record)
        assert record == cls(*values) and not record != cls(*values)
        assert record.__eq__(tuple(values)) is NotImplemented
        if cls is PureFieldInput:
            assert record != PureFieldInput(-30, 12, 999)
            assert record != PureFieldInput(-31, 12, 1000)
            return
        for k in range(len(values)):
            changed = list(values)
            changed[k] = _other(values[k])
            assert record != cls(*changed), SIGNATURES[cls][k][0]

    def test_hash_is_the_hash_of_the_fields(self, cls):
        record = _sample(cls)
        values = tuple(_values(record))
        try:
            expected = hash(values)
        except TypeError:  # a field holds a list: unhashable, as its fields are
            with pytest.raises(TypeError):
                hash(record)
            return
        assert hash(record) == expected == hash(cls(*values))

    def test_repr_names_every_field(self, cls):
        record = _sample(cls)
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name, _ in SIGNATURES[cls])
        assert repr(record) == f"{cls.__name__}({fields})"

    def test_immutable(self, cls):
        record = _sample(cls)
        for name, _ in SIGNATURES[cls]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert _values(record) == _values(_sample(cls))

    def test_pickle_and_copy_round_trip(self, cls):
        record = _sample(cls)
        for clone in (
            pickle.loads(pickle.dumps(record)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert type(clone) is cls
            assert clone == record
            assert repr(clone) == repr(record)


def test_exact_reprs():
    assert repr(Side((0, 1), (3, 0))) == "Side(start=(0, 1), end=(3, 0))"
    assert repr(PureFieldInput(33)) == "PureFieldInput(m=33, n=12, squarefree_bound=10000000)"
    assert repr(DedekindVerdict(False)) == "DedekindVerdict(divides_index=False, failing_phi=None)"
    assert repr(PrimeIdealData(FpPolynomial(2, (1, 1)), 2, 1, Fraction(-1, 2))) == (
        "PrimeIdealData(phi=FpPolynomial(p=2, 'x + 1'), e=2, f=1, "
        "side_slope=Fraction(-1, 2), residual_factor=None)"
    )
    assert repr(classify_theorem(33)) == (
        "MonogenityVerdict(m=33, n=12, status=<Status.NOT_MONOGENIC: 'not monogenic'>, "
        "witness=None, witnesses=(), per_prime_reports=(), index_valuations=(), notes=())"
    )


def test_record_stores_exactly_its_fields():
    """Record.__init__ takes one value per field, so a constructor that
    passes too few or too many raises instead of leaving a field unset."""

    class Pair(Record):
        __slots__ = _fields = ("left", "right")

        def __init__(self, left, right):
            super().__init__(left)  # forgets right

    with pytest.raises(ValueError):
        Pair(1, 2)
    for cls in SIGNATURES:
        values = _values(_sample(cls))
        with pytest.raises(ValueError):
            Record.__init__(cls.__new__(cls), *values[:-1])
        with pytest.raises(ValueError):
            Record.__init__(cls.__new__(cls), *values, None)


def test_pure_field_input_certified_primes_stay_out_of_the_value():
    a = PureFieldInput(m=-30)
    b = PureFieldInput(m=-30)
    object.__setattr__(b, "_m_primes", [7])
    assert a == b and hash(a) == hash(b) == hash((-30, 12, 10**7))
    assert "_m_primes" not in repr(a)
    assert a.ramified_candidates() == [2, 3, 5]


def test_side_degree_is_computed_once_and_stays_out_of_the_value():
    assert Side._fields == ("start", "end")
    side = Side((0, 3), (4, 1))
    assert side.degree == 2 and side.e == 2
    assert repr(side) == "Side(start=(0, 3), end=(4, 1))"
    assert hash(side) == hash(((0, 3), (4, 1)))
    forged = Side((0, 3), (4, 1))
    object.__setattr__(forged, "degree", 7)
    assert forged == side and hash(forged) == hash(side)
    clone = pickle.loads(pickle.dumps(forged))  # rebuilt from start and end
    assert clone == side and clone.degree == 2
    assert Side((0, 0), (0, 0)).degree == 0
    with pytest.raises(AttributeError):
        side.degree = 3
    assert side.degree == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: ore_factor(IntPolynomial.pure(12, 13), 2),
        lambda: classify_engine(41),
        lambda: build_polygon(IntPolynomial.pure(12, 41), IntPolynomial([-1, 1]), 2),
        lambda: PureFieldInput(m=210, n=6),
    ],
    ids=["ore_factor", "classify_engine", "build_polygon", "PureFieldInput"],
)
def test_results_survive_pickle_and_copy(make):
    result = make()
    for clone in (
        pickle.loads(pickle.dumps(result)),
        copy.copy(result),
        copy.deepcopy(result),
    ):
        assert clone == result
        assert repr(clone) == repr(result)
    if isinstance(result, PureFieldInput):
        assert copy.deepcopy(result).ramified_candidates() == [2, 3, 5, 7]
    if isinstance(result, MonogenityVerdict):
        assert pickle.loads(pickle.dumps(result)).status is Status.NOT_MONOGENIC


def test_cli_import_generates_no_code():
    proc = run_snippet(
        "import sys\n"
        "import orefactor.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
