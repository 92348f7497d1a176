"""The value records are immutable named tuples.

Each keeps the fields, field order, constructors, ``repr`` and value hash
of the frozen record class it replaced.  Being a tuple, a record is also
iterable, indexable and equal to the plain tuple of its fields.
"""

import pytest

from posetcodes import (
    GF,
    BoundReport,
    CensusReport,
    ChainPartition,
    Flag,
    InputError,
    LengthMismatch,
    LinearCode,
    Matrix,
    RangeError,
    Subspace,
    chain,
    span,
)
from posetcodes.linalg import GeneratorFile
from posetcodes.verify import CheckResult


def _records():
    """(class, field names in order, builder of fresh field values)."""
    f2, f3 = GF(2), GF(3)

    def line():
        return Subspace(f2, 2, ((1, 0),))

    return [
        (Matrix, ("field", "rows", "ncols"), lambda: (f3, ((1, 2), (0, 1)), 2)),
        (Subspace, ("field", "n", "basis"), lambda: (f2, 2, ((1, 0),))),
        (GeneratorFile, ("q", "n", "k", "lines"), lambda: (2, 3, 1, ((1, 0, 1),))),
        (LinearCode, ("poset", "subspace"), lambda: (chain(2), line())),
        (Flag, ("subspaces", "weights"), lambda: ((line(),), (1,))),
        (ChainPartition, ("chains",), lambda: (((1, 2), (3,)),)),
        (BoundReport, ("nu", "q", "bound", "addends"), lambda: ((2, 1), 2, 5, ((3, 1), (1,)))),
        (
            CensusReport,
            (
                "poset",
                "q",
                "n",
                "max_dim",
                "per_dim_total",
                "per_dim_chain",
                "chain_condition_total",
            ),
            lambda: (chain(2), 2, 2, 2, (3, 1), (3, 1), 4),
        ),
        (CheckResult, ("name", "ok", "detail"), lambda: ("rank", False, "rows 1 and 2")),
    ]


RECORDS = _records()
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values):
    args = values()
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    for rec in (by_position, by_keyword):
        assert tuple(getattr(rec, name) for name in names) == args
    assert by_position == by_keyword


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_records_are_immutable(cls, names, values):
    rec = cls(*values())
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_equality_and_hash_by_value(cls, names, values):
    # two constructions from equal, separately built values
    a, b = cls(*values()), cls(*values())
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(values()))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values):
    args = values()
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
    assert repr(cls(*args)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_tuple_semantics(cls, names, values):
    args = values()
    rec = cls(*args)
    assert rec._fields == names
    assert rec == args and tuple(rec) == args
    assert rec[0] == args[0] and len(rec) == len(names)
    # no per-instance dict: a record costs what its tuple costs
    assert not hasattr(rec, "__dict__")


def test_check_result_detail_defaults_to_empty():
    assert CheckResult("rank", True).detail == ""
    assert CheckResult(name="rank", ok=True) == CheckResult("rank", True, "")


def test_subspace_list_rows_equal_and_hash_like_tuple_rows():
    f3 = GF(3)
    listed = Subspace(f3, 3, [[1, 0, 2], [0, 1, 1]])
    keyed = Subspace(field=f3, n=3, basis=[[1, 0, 2], [0, 1, 1]])
    tupled = Subspace(f3, 3, ((1, 0, 2), (0, 1, 1)))
    assert listed.basis == keyed.basis == ((1, 0, 2), (0, 1, 1))
    assert listed == keyed == tupled
    assert hash(listed) == hash(keyed) == hash(tupled)


def test_validated_records_still_validate():
    f2 = GF(2)
    for basis in (((0, 1), (1, 0)), ((0, 0),), [[1, 1], [0, 1]]):
        with pytest.raises(InputError, match="reduced row-echelon"):
            Subspace(f2, 2, basis)
    with pytest.raises(InputError, match="reduced row-echelon"):
        Subspace(field=f2, n=2, basis=((0, 1), (1, 0)))
    with pytest.raises(LengthMismatch):
        Subspace(f2, 3, ((1, 0),))
    with pytest.raises(RangeError):
        Subspace(f2, 2, ((1, 2),))
    with pytest.raises(LengthMismatch):
        LinearCode(chain(3), span(f2, 2, [(1, 0)]))
    with pytest.raises(LengthMismatch):
        Matrix(f2, ((1, 0), (1,)), 2)
    with pytest.raises(RangeError):
        Matrix(f2, ((1, 2),), 2)


def test_trusted_subspace_skips_validation():
    f2 = GF(2)
    # not in reduced row-echelon form: only the package's own bases may skip
    s = Subspace._trusted(f2, 2, ((0, 1), (1, 0)))
    assert type(s) is Subspace
    assert s.basis == ((0, 1), (1, 0)) and s.dim == 2
    assert Subspace._trusted(f2, 2, ((1, 0),)) == Subspace(f2, 2, ((1, 0),))
