"""The record contract: every record is an immutable namedtuple that compares,
hashes and prints by value, refuses assignment, and checks every way it is
built."""

import pytest

from qrpat import (
    BundleCurve,
    Canvas,
    FractionParams,
    LayoutComparison,
    ParabolaFamily,
    ReducedFraction,
    Scene,
    family_rows,
    fraction_params,
    layouts_equivalent,
    parabola_family,
)

THIRD = ReducedFraction(1, 3)
PARAMS = fraction_params(20171, THIRD)
FAMILY = parabola_family(PARAMS)
PARAMS_REPR = ("FractionParams(m=20171, frac=ReducedFraction(a=1, b=3), b_prime=3, c=1, "
               "alpha=-1, beta=4, x0=6724, r0=8965)")


def records():
    """One record of each kind, with its repr."""
    yield THIRD, "ReducedFraction(a=1, b=3)"
    yield PARAMS, PARAMS_REPR
    yield FAMILY, (f"ParabolaFamily(params={PARAMS_REPR}, members=((-1, 1, -4, 15689, 7), "
                   "(0, 0, 2, 8965, 4), (1, 2, 8, 2243, 1)))")
    yield (layouts_equivalent(20171, 20173, 5040, 9),
           "LayoutComparison(equivalent=False, witness=ReducedFraction(a=1, b=2))")
    yield (Scene(16, 32, 415, 7, range(-1, 2), (THIRD,)),
           "Scene(width=16, height=32, modulus=415, s=7, lines=range(-1, 2), "
           "fractions=(ReducedFraction(a=1, b=3),))")
    yield BundleCurve(-1, (((0.0, 0.25),),)), "BundleCurve(n=-1, segments=(((0.0, 0.25),),))"
    yield (Canvas(2, 1, bytearray([0, 255])),
           "Canvas(width=2, height=1, pixels=bytearray(b'\\x00\\xff'))")


RECORDS = list(records())


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_equality_repr_and_immutability(record, text):
    assert repr(record) == text
    twin = type(record)(*record)
    assert twin == record and twin is not record
    assert record == tuple(record)  # a namedtuple: unpacks and equals the plain tuple
    if not isinstance(record, Canvas):  # a Canvas holds its mutable bytearray
        assert hash(twin) == hash(record) == hash(tuple(record))
    assert record._replace() == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1  # __slots__ = (): no instance dict


def test_records_with_different_fields_differ():
    assert ReducedFraction(1, 3) != ReducedFraction(2, 3)
    assert fraction_params(20173, THIRD) != PARAMS
    assert hash(ReducedFraction(1, 3)) != hash(ReducedFraction(2, 3))
    assert Scene(64, 64, 415) != Scene(64, 64, 415, lines=range(1))


def test_every_record_kind_is_covered():
    kinds = {type(record) for record, _ in RECORDS}
    assert kinds == {ReducedFraction, FractionParams, ParabolaFamily,
                     LayoutComparison, Scene, BundleCurve, Canvas}
    assert all(issubclass(kind, tuple) and kind.__slots__ == () for kind in kinds)


def test_only_the_family_holds_params():
    # a member is its family_rows row (i, a_prime, B, C, h), a plain tuple of ints;
    # m, x0 and b_prime belong to the family alone
    assert FAMILY.members == tuple(family_rows(PARAMS))
    assert all(type(row) is tuple and set(map(type, row)) == {int} for row in FAMILY.members)
    holders = {type(r) for r, _ in RECORDS if any(isinstance(v, FractionParams) for v in r)}
    assert holders == {ParabolaFamily}


@pytest.mark.parametrize("a, b, message", [
    (1, 0, "denominator must be positive, got 0"),
    (4, 3, "4/3 lies outside [0, 1]"),
    (2, 4, "2/4 is not in lowest terms"),
])
def test_reduced_fraction_checks_every_construction(a, b, message):
    for build in (lambda: ReducedFraction(a, b), lambda: ReducedFraction._make((a, b)),
                  lambda: THIRD._replace(a=a, b=b)):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message


def test_valid_make_and_replace_build_the_record():
    assert THIRD._replace(a=2) == ReducedFraction(2, 3)
    assert type(ReducedFraction._make([1, 2])) is ReducedFraction
    assert Canvas(2, 2, bytearray(4))._replace(width=4, height=1) == (4, 1, bytearray(4))


def test_canvas_checks_every_construction():
    canvas = Canvas(2, 2, bytearray(4))
    message = "pixel buffer of 1 bytes does not match 2x2"
    for build in (lambda: Canvas(2, 2, bytearray(1)), lambda: Canvas._make((2, 2, bytearray(1))),
                  lambda: canvas._replace(pixels=bytearray(1))):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message


def test_family_replace_swaps_members():
    first, *rest = FAMILY.members
    tampered = FAMILY._replace(members=((*first[:4], first[4] + 1), *rest))
    assert type(tampered) is ParabolaFamily
    assert tampered.params is PARAMS
    assert tampered.members[0] == (-1, 1, -4, 15689, 8)  # h, the last field, moved by 1
    assert tampered.members[1:] == FAMILY.members[1:]
    assert FAMILY.members[0] is first  # the original is untouched


def test_scene_defaults_draw_nothing():
    # A Scene names what draws its scatter, curves and vertices, and holds none of
    # them, so it is as immutable as the other records.  Its modulus has no default:
    # every scene draws its scatter, and by default no curve and no vertex.
    scene = Scene(64, 64, 415)
    assert scene == (64, 64, 415, 0, range(0), ())
    assert not (scene.lines or scene.fractions)
    with pytest.raises(TypeError):
        Scene(64, 64)
