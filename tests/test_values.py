"""The value base (``graphs.Value``) against the frozen dataclasses it replaced.

Every value type is checked for what its frozen dataclass gave: positional
and keyword construction, ``__post_init__`` refusing bad input, equality and
hashing over the field tuple, a different class comparing unequal, frozen
fields, pickling, and the repr.  The dataclass built here from the same
fields is the reference.
"""

import dataclasses
import pickle
from fractions import Fraction as F

import pytest

from heredit.crg import CRG, EmbeddingWitness
from heredit.curves import Curve, CurveAnalysis, SearchResult
from heredit.editing import EditResult, EstimateResult
from heredit.errors import ValidationError
from heredit.gfun import GResult, PMatrix, VertexStats, WeightStats
from heredit.graphs import Graph, Value
from heredit.spectrum import CliqueSpectrum

K = CRG(("W", "B"), ("G",))
STATS = VertexStats(F(1, 2), F(1, 2), F(1, 2), F(0), 1)

# one set of field values per value type, in field order
SAMPLES = {
    Graph: {"n": 2, "adj": (2, 1)},
    CRG: {"vcolors": ("W", "B"), "ecolors": ("G",)},
    EmbeddingWitness: {"mapping": (0, 1, 1)},
    PMatrix: {"p": F(1, 3), "entries": ((F(1, 3), F(0)), (F(0), F(2, 3)))},
    GResult: {"value": F(2, 9), "weights": (F(2, 3), F(1, 3)), "support": (0, 1)},
    VertexStats: {"weight": F(1, 2), "gray_weight": F(1, 2), "white_weight": F(1, 2),
                  "black_weight": F(0), "gray_degree": 1},
    WeightStats: {"vertices": (STATS,), "gray_codegree_weight": {(0, 1): F(0)},
                  "gray_codegree_count": {(0, 1): 0}},
    CliqueSpectrum: {"members": frozenset({(1, 0), (0, 1)})},
    Curve: {"samples": ((F(0), F(0)), (F(1, 2), F(1, 4))), "source": "gamma",
            "witnesses": (("K(1,0)",), ("K(1,0)", "K(0,1)"))},
    CurveAnalysis: {"d_star": F(1, 4), "p_star": F(1, 2), "concavity_violations": ()},
    SearchResult: {"value": F(1, 6), "witnesses": (K,)},
    EditResult: {"edits": 1, "normalized": F(1), "witness": Graph(2, (0, 0))},
    EstimateResult: {"max_normalized": F(0), "witness": None, "skipped": 3},
}
# bad field values that each ``__post_init__`` refuses
REFUSED = {
    Graph: [(2, (2, 0)), (1, (1,)), (3, (0, 0))],
    CRG: [((), ()), (("W", "X"), ("G",)), (("W", "B"), ())],
    Curve: [(((F(1), F(0)), (F(0), F(0))), "x", ((), ())),
            (((F(0), F(2)),), "x", ((),)), (((F(0), F(0)),), "x", ())],
}
OWN_REPR = {Graph: "Graph(n=2, edges=[(0, 1)])", CRG: "CRG('WB:G')"}
IDS = [cls.__name__ for cls in SAMPLES]


def _reference(cls: type) -> type:
    """The frozen dataclass with ``cls``'s name and fields."""
    return dataclasses.make_dataclass(cls.__name__, list(SAMPLES[cls]), frozen=True)


def _hashable(values: dict) -> bool:
    try:
        hash(tuple(values.values()))
    except TypeError:
        return False
    return True


def test_every_value_type_is_sampled():
    found, todo = set(), [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("heredit."):
                found.add(sub)
                todo.append(sub)
    assert found == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=IDS)
class TestParity:
    def test_fields_in_order(self, cls):
        assert cls._fields == tuple(SAMPLES[cls])
        value = cls(**SAMPLES[cls])
        assert tuple(getattr(value, f) for f in cls._fields) == tuple(SAMPLES[cls].values())

    def test_positional_and_keyword_construction_agree(self, cls):
        values = SAMPLES[cls]
        names = list(values)
        by_position = cls(*values.values())
        assert cls(**values) == by_position
        assert cls(*list(values.values())[:1], **{n: values[n] for n in names[1:]}) == by_position

    def test_equal_fields_give_equal_values_and_hashes(self, cls):
        values = SAMPLES[cls]
        a, b = cls(**values), cls(**values)
        assert a == b and not a != b and a is not b
        if _hashable(values):
            # the dataclass hash: the hash of the field tuple
            assert hash(a) == hash(b) == hash(tuple(values.values()))
            assert hash(a) == hash(_reference(cls)(**values))
            assert len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_other_classes_compare_unequal(self, cls):
        values = SAMPLES[cls]
        value = cls(**values)
        twin = type("Twin", (Value,), {"__annotations__": dict.fromkeys(values, "object")})
        assert value != twin(**values)
        assert value != _reference(cls)(**values)
        assert value != tuple(values.values())
        assert value.__eq__(tuple(values.values())) is NotImplemented

    def test_differing_field_compares_unequal(self, cls):
        values = SAMPLES[cls]
        if cls in REFUSED:  # its __post_init__ refuses an arbitrary field
            values = {name: object() for name in values}
            value = object.__new__(cls)
            value.__dict__.update(values)
        else:
            value = cls(**values)
        for name in values:
            other = object.__new__(cls)
            other.__dict__.update(values, **{name: object()})
            assert value != other

    def test_fields_are_frozen(self, cls):
        value = cls(**SAMPLES[cls])
        for name in list(SAMPLES[cls]) + ["extra"]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert value == cls(**SAMPLES[cls])

    def test_pickle_round_trip(self, cls):
        value = cls(**SAMPLES[cls])
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is cls and back == value

    def test_repr(self, cls):
        values = SAMPLES[cls]
        text = repr(cls(**values))
        assert text == OWN_REPR.get(cls, repr(_reference(cls)(**values)))

    def test_bad_calls_raise_type_error(self, cls):
        values = list(SAMPLES[cls].values())
        with pytest.raises(TypeError, match="arguments but"):
            cls(*values, None)
        with pytest.raises(TypeError, match="missing arguments"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match="unexpected or repeated argument 'nope'"):
            cls(*values, nope=1)
        with pytest.raises(TypeError, match="repeated argument"):
            cls(*values, **{cls._fields[0]: values[0]})


@pytest.mark.parametrize("cls", REFUSED, ids=[c.__name__ for c in REFUSED])
def test_post_init_refuses_bad_input(cls):
    for args in REFUSED[cls]:
        with pytest.raises(ValidationError):
            cls(*args)
        with pytest.raises(ValidationError):
            cls(**dict(zip(cls._fields, args)))
