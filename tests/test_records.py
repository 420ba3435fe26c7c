"""The value classes: equality, hashing, repr, immutability and copying.

Series and operator nodes are immutable too, through the same sealed base,
and refuse assignment and deletion as the records do.

Each case builds the same record twice from separately made fields. The
expected repr is the ``Name(field=value, ...)`` text the classes have always
printed (``GaussRational`` keeps its own shorter form).
"""

import copy
from fractions import Fraction as F

import pytest

from qsusy import qspecial
from qsusy.cli import RunConfig
from qsusy.operators import (
    Compose,
    FactorizationPair,
    Jackson,
    Mult,
    MultPoly,
    Scale,
    Shift,
    Sum,
    SweepRow,
    identity_op,
    jackson_op,
    multiplication_op,
    poly_multiplication_op,
)
from qsusy.qcore import Deformation, GaussRational
from qsusy.qspecial import VacuumSpec
from qsusy.series import make_series
from qsusy.verify import CheckResult

# operators compare by identity, so both pairs are built on the same two
PLUS, MINUS = identity_op(), jackson_op(Deformation(F(3, 2)))

CASES = {
    "GaussRational": (lambda: GaussRational(F(1, 2), -3),
                      "GaussRational(Fraction(1, 2), Fraction(-3, 1))"),
    "Deformation": (lambda: Deformation(F(3, 2)), "Deformation(q=Fraction(3, 2))"),
    "VacuumSpec": (lambda: VacuumSpec(F(-1, 2), Deformation(F(3, 2)), 8),
                   "VacuumSpec(beta=Fraction(-1, 2), d=Deformation(q=Fraction(3, 2)), order=8)"),
    "FactorizationPair": (lambda: FactorizationPair(PLUS, MINUS, 0, "vacuum"),
                          f"FactorizationPair(t_plus={PLUS!r}, t_minus={MINUS!r}, "
                          "epsilon=Fraction(0, 1), source='vacuum')"),
    "SweepRow": (lambda: SweepRow(q=F(2), deviation=F(1, 3)),
                 "SweepRow(q=Fraction(2, 1), deviation=Fraction(1, 3))"),
    "CheckResult": (lambda: CheckResult("kernel", {"q": "2"}),
                    "CheckResult(name='kernel', params={'q': '2'}, status='pass', "
                    "worst_deviation='0', first_failure_index=None)"),
    "RunConfig": (lambda: RunConfig("beta", q=F(2)),
                  "RunConfig(command='beta', q=Fraction(2, 1), beta=Fraction(-1, 2), order=32, "
                  "n_or_p=0, input_path=None, output_path=None, emit='json', suite=None, op=None, "
                  "func='beta', delta=False, qs=(Fraction(2, 1), Fraction(3, 2), Fraction(5, 4), "
                  "Fraction(9, 8), Fraction(17, 16), Fraction(1, 1)), xs=(), q_given=False, "
                  "beta_given=False, order_given=False, jobs=1)"),
}
# a CheckResult holds a dict and a RunConfig can change, so neither hashes
UNHASHABLE = ("CheckResult", "RunConfig")
FROZEN = [name for name in CASES if name != "RunConfig"]


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_make_equal_records(name):
    build, text = CASES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    assert copy.copy(a) == a
    assert a != object()
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(name):
    record = CASES[name][0]()
    field = type(record).__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, field) is before


# two series, one of them built from a real GaussRational, and one operator of each node kind
NODES = [
    PLUS + MINUS,
    PLUS * 2,
    MINUS @ PLUS,
    multiplication_op(make_series([1, 2], 4)),
    poly_multiplication_op([0, 1]),
    MINUS,
    PLUS,
]
SEALED = [make_series([1, F(1, 2)], 3), make_series([GaussRational(1)], 2), *NODES]


def test_every_operator_node_kind_is_checked():
    assert [type(op) for op in NODES] == [Sum, Scale, Compose, Mult, MultPoly, Jackson, Shift]


@pytest.mark.parametrize("value", SEALED, ids=lambda v: type(v).__name__)
def test_series_and_operators_refuse_assignment_and_deletion(value):
    field = type(value).__slots__[0]
    before = getattr(value, field)
    for act in (lambda: setattr(value, field, before), lambda: delattr(value, field),
                lambda: setattr(value, "other", 1)):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable; cannot set"):
            act()
    assert getattr(value, field) is before


def test_a_run_config_can_change():
    config = RunConfig("beta")
    config.order = 12
    assert config == RunConfig("beta", order=12)
    with pytest.raises(AttributeError):
        config.other = 1


def test_unequal_fields_or_classes_make_unequal_records():
    assert Deformation(2) != Deformation(3)
    assert SweepRow(F(2), F(1)) != SweepRow(F(2), F(0))
    assert CheckResult("kernel") != CheckResult("kernel", status="fail")
    assert CheckResult("kernel").params == {}
    assert CheckResult("kernel").params is not CheckResult("kernel").params


def test_beta_q_hits_its_cache_for_an_equal_vacuum_built_separately():
    qspecial.beta_q.cache_clear()
    first = qspecial.beta_q(VacuumSpec(F(-1, 2), Deformation(F(3, 2)), 8))
    again = qspecial.beta_q(VacuumSpec(F(-2, 4), Deformation(F(6, 4)), 8))
    info = qspecial.beta_q.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert again is first
