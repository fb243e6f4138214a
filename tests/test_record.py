"""The frozen records: construction, repr, equality, hashing, immutability,
round trips and the copy-with-changes API, for each of the ten record types."""
import copy
import pickle
from fractions import Fraction

import pytest

from rungelenz.basis import BBlock, ManifoldState, ParabolicLabel, SphericalLabel, b_block
from rungelenz.diamagnetic import DiamagneticParams, OperatorMatrix
from rungelenz.errors import DomainError
from rungelenz.operators import GeneratorWord, OperatorExpression
from rungelenz.radical import RadicalSum, parse_exact
from rungelenz.stark import TransitionTable
from rungelenz.wigner import ThreeJmArgs

_BBLOCK_FIELDS = ("n", "m", "a", "b_num", "b_den", "roots", "rho_num", "rho_den",
                  "up", "down", "j_den")

# (type, field names in order, positional arguments, repr); each argument is
# already in the form the type's checks leave it in
CASES = [
    (SphericalLabel, ("n", "l", "m"), (3, 1, -1), "SphericalLabel(n=3, l=1, m=-1)"),
    (ParabolicLabel, ("n1", "n2", "m"), (3, 1, 4), "ParabolicLabel(n1=3, n2=1, m=4)"),
    (ManifoldState, ("basis", "n", "m", "coeffs"),
     ("parabolic", 2, 1, (parse_exact("(1/2)*sqrt(3)"),)),
     "ManifoldState(basis='parabolic', n=2, m=1, coeffs=(RadicalSum('(1/2)*sqrt(3)'),))"),
    (BBlock, _BBLOCK_FIELDS,
     (2, 0, (1, 1), (1, 1), 2, ((Fraction(1, 2), 2), (Fraction(1, 6), 6)),
      ((1, -1), (-1, -1)), (1, 1), (1,), (1,), 1),
     "BBlock(n=2, m=0, a=(1, 1), b_num=(1, 1), b_den=2, roots=((Fraction(1, 2), 2), "
     "(Fraction(1, 6), 6)), rho_num=((1, -1), (-1, -1)), rho_den=(1, 1), up=(1,), "
     "down=(1,), j_den=1)"),
    (DiamagneticParams, ("gamma", "n"), (0.5, 3), "DiamagneticParams(gamma=0.5, n=3)"),
    (OperatorMatrix, ("n", "m", "scale_text", "entries"),
     (2, 0, "gamma^2*n^2/16", ((RadicalSum.from_rational(10), RadicalSum.from_rational(4)),
                               (RadicalSum.from_rational(4), RadicalSum.from_rational(10)))),
     "OperatorMatrix(n=2, m=0, scale_text='gamma^2*n^2/16', entries=((RadicalSum('10/1'), "
     "RadicalSum('4/1')), (RadicalSum('4/1'), RadicalSum('10/1'))))"),
    (GeneratorWord, ("gens",), (("j1z", "j2plus"),), "GeneratorWord(gens=('j1z', 'j2plus'))"),
    (OperatorExpression, ("terms",),
     (((Fraction(1, 2), GeneratorWord(("j1z",))), (Fraction(3), GeneratorWord(("identity",)))),),
     "OperatorExpression(terms=((Fraction(1, 2), GeneratorWord(gens=('j1z',))), "
     "(Fraction(3, 1), GeneratorWord(gens=('identity',)))))"),
    (TransitionTable, ("n", "kind", "entries", "chi"), (1, "p", ((1.0,),), 0.5),
     "TransitionTable(n=1, kind='p', entries=((1.0,),), chi=0.5)"),
    (ThreeJmArgs, ("j1", "j2", "j3", "m1", "m2", "m3"),
     (Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(-1, 2)),
     "ThreeJmArgs(j1=Fraction(1, 1), j2=Fraction(1, 2), j3=Fraction(1, 2), "
     "m1=Fraction(0, 1), m2=Fraction(1, 2), m3=Fraction(-1, 2))"),
]

_EACH = pytest.mark.parametrize("cls,names,args,text", CASES,
                                ids=[case[0].__name__ for case in CASES])


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


_TRIPS = pytest.mark.parametrize("trip", [_pickled, copy.copy, copy.deepcopy],
                                 ids=["pickle", "copy", "deepcopy"])


class TestConstruction:
    @_EACH
    def test_repr(self, cls, names, args, text):
        assert repr(cls(*args)) == text

    def test_repr_of_a_default_field(self):
        table = TransitionTable(1, "pbar", ((Fraction(1),),))
        assert table.chi is None
        assert repr(table) == ("TransitionTable(n=1, kind='pbar', "
                               "entries=((Fraction(1, 1),),), chi=None)")

    @_EACH
    def test_keyword_and_positional_agree(self, cls, names, args, text):
        x = cls(*args)
        assert tuple(getattr(x, name) for name in names) == args
        assert cls(**dict(zip(names, args))) == x
        assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == x

    @_EACH
    def test_missing_argument(self, cls, names, args, text):
        with pytest.raises(TypeError, match=repr(names[0])):
            cls(**dict(zip(names[1:], args[1:])))
        with pytest.raises(TypeError):
            cls()

    @_EACH
    def test_extra_argument(self, cls, names, args, text):
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError, match="'bogus'"):
            cls(*args, bogus=1)

    @_EACH
    def test_duplicated_argument(self, cls, names, args, text):
        with pytest.raises(TypeError, match=repr(names[0])):
            cls(*args, **{names[0]: args[0]})

    def test_checks_run_on_construction(self):
        with pytest.raises(DomainError, match=">= 0"):
            ParabolicLabel(-1, 0, 0)
        with pytest.raises(DomainError, match="kind"):
            TransitionTable(1, "q", ((1.0,),))


class TestEqualityAndHash:
    @_EACH
    def test_by_fields(self, cls, names, args, text):
        x, y = cls(*args), cls(*args)
        assert x is not y and x == y and not x != y
        assert hash(x) == hash(y) == hash(args)  # the hash of the field tuple
        assert x != args and len({x, y}) == 1

    def test_different_fields_differ(self):
        assert ParabolicLabel(3, 1, 4) != ParabolicLabel(1, 3, 4)
        assert SphericalLabel(3, 1, -1) != SphericalLabel(3, 1, 1)

    def test_cached_values_stay_out(self):
        blk = b_block(4, 1)
        fresh = BBlock(*(getattr(blk, name) for name in _BBLOCK_FIELDS))
        assert fresh is not blk
        blk.b_floats  # reads _float_tables, kept in the instance __dict__
        blk.az_eigenvalues
        assert "_float_tables" in vars(blk) and "_float_tables" not in vars(fresh)
        assert blk == fresh and hash(blk) == hash(fresh)
        assert repr(blk) == repr(fresh)


class TestFrozen:
    @_EACH
    def test_assignment_and_deletion_raise(self, cls, names, args, text):
        x = cls(*args)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(x, name, args[0])
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.bogus = 1
        assert tuple(getattr(x, name) for name in names) == args


class TestSubclassWithoutNewFields:
    @_EACH
    def test_keeps_the_fields_and_its_own_name(self, cls, names, args, text):
        sub = type("Sub", (cls,), {})
        x = sub(*args)
        assert repr(x) == "Sub" + text[len(cls.__name__):]
        assert x == sub(**dict(zip(names, args))) and hash(x) == hash(args)
        assert x != cls(*args)  # a record equals only its own type
        with pytest.raises(AttributeError):
            setattr(x, names[0], args[0])


class TestRoundTrips:
    @_TRIPS
    @_EACH
    def test_equal_after_round_trip(self, trip, cls, names, args, text):
        x = cls(*args)
        got = trip(x)
        assert type(got) is cls and got == x and repr(got) == text

    @_TRIPS
    @_EACH
    def test_round_trip_runs_the_checks(self, monkeypatch, trip, cls, names, args, text):
        x = cls(*args)
        calls = []
        real = cls.__post_init__

        def counted(self):
            calls.append(type(self))
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        assert trip(x) == x
        assert calls == [cls]

    @_TRIPS
    def test_a_tampered_record_is_refused(self, trip):
        label = ParabolicLabel(3, 1, 4)
        object.__setattr__(label, "n1", -1)
        with pytest.raises(DomainError, match=">= 0"):
            trip(label)


class TestFieldsAndReplace:
    @_EACH
    def test_fields(self, cls, names, args, text):
        assert cls._fields == names
        assert type("Sub", (cls,), {})._fields == names

    @_EACH
    def test_replace_nothing_is_an_equal_copy(self, cls, names, args, text):
        x = cls(*args)
        got = x._replace()
        assert got is not x and got == x

    def test_replace_changes_the_named_fields(self):
        label = ParabolicLabel(3, 1, 4)
        assert label._replace(m=-4, n2=0) == ParabolicLabel(3, 0, -4)
        assert label == ParabolicLabel(3, 1, 4)
        table = TransitionTable(1, "p", ((1.0,),), 0.5)
        assert table._replace(chi=0.25).chi == 0.25

    def test_replace_runs_the_checks(self):
        with pytest.raises(DomainError, match=">= 0"):
            ParabolicLabel(3, 1, 4)._replace(n1=-1)
        with pytest.raises(TypeError, match="'bogus'"):
            ParabolicLabel(3, 1, 4)._replace(bogus=1)

    def test_replace_keeps_a_subclass(self):
        sub = type("Sub", (ParabolicLabel,), {})
        assert type(sub(3, 1, 4)._replace(m=0)) is sub
