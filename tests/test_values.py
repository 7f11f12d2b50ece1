"""The value classes on ``frobsplit._value.Value`` behave as the dataclasses
they replaced: construction, ``==``, hash, repr, immutability, copy and
pickle.  The repr texts are the dataclass reprs, recorded as literals."""

import copy
import dataclasses
import pickle

import pytest

from frobsplit import (
    Coefficient,
    ExistsSplitVerdict,
    GroebnerBasis,
    IdealPresentation,
    MonomialOrder,
    NumericalSemigroup,
    P1Extension,
    Prime,
    ResidueChain,
    RingContext,
    SemigroupVerdict,
    SplitVerdict,
    TwistedEndo,
    VerdictKind,
    ring,
)
from frobsplit._value import Factory, Value
from frobsplit.cli import CheckResult, CorpusCase, Report

CTX = ring(3, "x y")
X, Y = CTX.variable(0), CTX.variable(1)
T = ring(3, "x").variable(0)
GREVLEX = MonomialOrder("grevlex")
CTX_REPR = "RingContext(prime=Prime(value=3), variables=('x', 'y'))"

# class: (built by position, the same built by keyword, its repr, an unequal one)
CASES = {
    "Prime": (
        lambda: Prime(3),
        lambda: Prime(value=3),
        "Prime(value=3)",
        lambda: Prime(5),
    ),
    "Coefficient": (
        lambda: Coefficient(5, Prime(3)),
        lambda: Coefficient(prime=Prime(3), residue=2),
        "Coefficient(residue=2, prime=Prime(value=3))",
        lambda: Coefficient(1, Prime(3)),
    ),
    "RingContext": (
        lambda: RingContext(3, ["x", "y"]),
        lambda: RingContext(prime=Prime(3), variables=("x", "y")),
        CTX_REPR,
        lambda: RingContext(3, ["y", "x"]),
    ),
    "MonomialOrder": (
        lambda: MonomialOrder("elim", 1),
        lambda: MonomialOrder(kind="elim", block=1),
        "MonomialOrder(kind='elim', block=1)",
        lambda: MonomialOrder("elim", 2),
    ),
    "IdealPresentation": (
        lambda: IdealPresentation(CTX, [X, CTX.zero(), Y]),
        lambda: IdealPresentation(context=CTX, generators=(X, Y)),
        f"IdealPresentation(context={CTX_REPR}, generators=(Polynomial(x), Polynomial(y)))",
        lambda: IdealPresentation(CTX, [Y, X]),
    ),
    "GroebnerBasis": (
        lambda: GroebnerBasis(CTX, GREVLEX, (Y**2, X + Y)),
        lambda: GroebnerBasis(context=CTX, order=GREVLEX, basis=(Y**2, X + Y)),
        f"GroebnerBasis(context={CTX_REPR}, order=MonomialOrder(kind='grevlex', block=0),"
        " basis=(Polynomial(y^2), Polynomial(x + y)))",
        lambda: GroebnerBasis(CTX, GREVLEX, (X + Y,)),
    ),
    "TwistedEndo": (
        lambda: TwistedEndo(X**2 * Y**2),
        lambda: TwistedEndo(coeff=X**2 * Y**2),
        "TwistedEndo(coeff=Polynomial(x^2*y^2))",
        lambda: TwistedEndo(X * Y),
    ),
    "SplitVerdict": (
        lambda: SplitVerdict(VerdictKind.SPLITTING, Coefficient(1, Prime(3)), None),
        lambda: SplitVerdict(VerdictKind.SPLITTING, constant=Coefficient(1, Prime(3))),
        "SplitVerdict(kind=<VerdictKind.SPLITTING: 'Splitting'>,"
        " constant=Coefficient(residue=1, prime=Prime(value=3)), witness=None)",
        lambda: SplitVerdict(VerdictKind.NOT_SPLITTING, witness=X),
    ),
    "P1Extension": (
        lambda: P1Extension(True, T**2, True, False),
        lambda: P1Extension(extends=True, other_chart=T**2, compatible_zero=True, compatible_infinity=False),
        "P1Extension(extends=True, other_chart=Polynomial(x^2), compatible_zero=True,"
        " compatible_infinity=False)",
        lambda: P1Extension(True, T**2, True, True),
    ),
    "NumericalSemigroup": (
        lambda: NumericalSemigroup([3, 2]),
        lambda: NumericalSemigroup(generators=(2, 3)),
        "NumericalSemigroup(generators=(2, 3), gaps=(1,), conductor=2)",
        lambda: NumericalSemigroup([2, 5]),
    ),
    "SemigroupVerdict": (
        lambda: SemigroupVerdict(False, 1),
        lambda: SemigroupVerdict(witness=1, split=False),
        "SemigroupVerdict(split=False, witness=1)",
        lambda: SemigroupVerdict(True, None),
    ),
    "CheckResult": (
        lambda: CheckResult("chain", True, None, False, {"a": 1}),
        lambda: CheckResult(kind="chain", verdict=True, passed=False, certificate={"a": 1}),
        "CheckResult(kind='chain', verdict=True, expected=None, passed=False, certificate={'a': 1})",
        lambda: CheckResult("chain", True),
    ),
    "Report": (
        lambda: Report("c", 3, [CheckResult("k", 1)]),
        lambda: Report(case="c", prime=3, checks=[CheckResult("k", 1)]),
        "Report(case='c', prime=3, checks=[CheckResult(kind='k', verdict=1, expected=None,"
        " passed=True, certificate=None)])",
        lambda: Report("c", 3),
    ),
    "CorpusCase": (
        lambda: CorpusCase("c", 3, ("x",), "x^2", ()),
        lambda: CorpusCase(name="c", prime=3, variables=("x",), sigma="x^2", checks=()),
        "CorpusCase(name='c', prime=3, variables=('x',), sigma='x^2', checks=())",
        lambda: CorpusCase("c", 3, ("x",), "x^3", ()),
    ),
}
MUTABLE = {"CheckResult", "Report"}


@pytest.mark.parametrize("name", CASES)
def test_construction_by_position_and_keyword(name):
    positional, keyword, _, other = CASES[name]
    a, b = positional(), keyword()
    assert type(a).__name__ == name and not dataclasses.is_dataclass(a)
    assert a == b and not a != b
    assert a != other() and not a == other()
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_text(name):
    positional, keyword, text, _ = CASES[name]
    assert repr(positional()) == repr(keyword()) == text


@pytest.mark.parametrize("name", CASES)
def test_hash_is_the_hash_of_the_field_tuple(name):
    a, b = CASES[name][0](), CASES[name][1]()
    if name in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        return
    fields = tuple(getattr(a, key) for key in type(a)._fields)
    assert hash(a) == hash(b) == hash(fields)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", CASES)
def test_assignment(name):
    a = CASES[name][0]()
    field = type(a)._fields[0]
    if name in MUTABLE:
        setattr(a, field, "changed")
        assert getattr(a, field) == "changed"
        return
    for attribute in (field, "new_attribute"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(a, attribute, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, attribute, None)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(a, field)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_copy_and_pickle_give_equal_objects(name, clone):
    a = CASES[name][0]()
    b = clone(a)
    assert b == a and repr(b) == repr(a) and type(b) is type(a)


def test_defaults():
    assert MonomialOrder("grevlex") == MonomialOrder("grevlex", 0) == GREVLEX
    assert repr(GREVLEX) == "MonomialOrder(kind='grevlex', block=0)"
    assert repr(SplitVerdict(VerdictKind.NOT_SPLITTING)) == (
        "SplitVerdict(kind=<VerdictKind.NOT_SPLITTING: 'NotSplitting'>, constant=None, witness=None)"
    )
    assert repr(CheckResult("splitting", "Splitting")) == (
        "CheckResult(kind='splitting', verdict='Splitting', expected=None, passed=True, certificate=None)"
    )
    a, b = Report("c", 3), Report("c", 3)
    assert repr(a) == "Report(case='c', prime=3, checks=[])"
    assert a.checks == [] and a.checks is not b.checks


def test_fields_left_out_of_repr_and_equality():
    s = NumericalSemigroup([2, 3])
    assert s._table == "101" and "_table" not in repr(s)
    assert 3 in pickle.loads(pickle.dumps(s)) and 1 not in copy.deepcopy(s)
    case = CorpusCase("c", 3, ("x", "y"), None, ({"kind": "splitting"},))
    assert case.context == CTX and "context" not in repr(case)
    assert pickle.loads(pickle.dumps(case)).context == CTX
    assert CorpusCase("c", 3, (), None, ()).context is None


def test_cached_properties_survive_copy():
    case = CorpusCase("c", 3, ("x", "y"), "x*y", ())
    section = case.section
    assert case.section is section and copy.copy(case).section is section
    G = GroebnerBasis(CTX, GREVLEX, (Y**2, X + Y))
    assert G.leads == copy.copy(G).leads == ((0, 2), (1, 0))


def test_post_init_normalises_and_validates():
    assert Coefficient(-1, Prime(3)).residue == 2
    assert RingContext(3, ["x"]).prime == Prime(3)
    with pytest.raises(ValueError, match="not prime"):
        Prime(4)
    with pytest.raises(ValueError, match="distinct"):
        RingContext(3, ["x", "x"])


def test_bad_arguments_are_type_errors():
    with pytest.raises(TypeError, match="takes 1 arguments but 2 were given"):
        Prime(3, 5)
    with pytest.raises(TypeError, match="missing argument 'value'"):
        Prime()
    with pytest.raises(TypeError, match="unexpected or repeated argument 'prime'"):
        Prime(3, prime=3)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'kind'"):
        MonomialOrder("lex", kind="lex")


def test_a_class_names_its_fields_once():
    class Pair(Value):
        first: int
        second: list = Factory(list)

    assert Pair._fields == ("first", "second")
    assert Pair(1) == Pair(first=1, second=[]) and Pair(1).second is not Pair(1).second
    assert repr(Pair(1, [2])).endswith("<locals>.Pair(first=1, second=[2])")


def test_the_two_dataclasses_stay():
    assert dataclasses.is_dataclass(ExistsSplitVerdict)
    assert dataclasses.is_dataclass(ResidueChain)
