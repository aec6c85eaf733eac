"""Every input check that a wrong call reaches raises its own error.

The checks are the library's, plus those of the test subjects in
tests/subjects.py (`CyclicGroup`, `CoboundaryCocycle`), which the other
tests rely on to refuse a malformed subject.  One row per check that no
other test reaches; each row builds its wrong call from the p = 11 toy
instance and a second curve y^2 = x^3 + x + 1.
"""

import pytest

from genjac.curve import Curve, eval_line_fraction
from genjac.field import ExtField, PrimeField
from genjac.groups import MultiplicativeGroup
from genjac.jacobian import Modulus, ModulusCocycle, pairing_order, tate_by_miller

from subjects import CoboundaryCocycle, CyclicGroup

F11, F19 = PrimeField(11), PrimeField(19)
OTHER = Curve(F11, 1, 1)  # shares F_11 with the toy curve, not its equation


def _base_point(toy):
    return toy.curve.point(0, 0)


CHECKS = {
    # curve.py
    "Curve.extend": (
        lambda toy: toy.curve.extend(ExtField(F19, (1, 0, 1))),
        ValueError, "does not contain the curve's field",
    ),
    "Curve.embed_point": (
        lambda toy: toy.ext_curve.embed_point(toy.modulus.M),
        ValueError, "does not come from this curve's base curve",
    ),
    "Curve.add": (
        lambda toy: toy.curve.add(_base_point(toy), OTHER.point(0, 1)),
        ValueError, "points on mismatched curves",
    ),
    "Curve.neg": (
        lambda toy: toy.curve.neg(OTHER.point(0, 1)),
        ValueError, "points on mismatched curves",
    ),
    "Curve.enumerate_points": (
        # 2053 = 5 mod 8 makes 2 a non-square; F_{2053^2} has 4,214,809 > 2^22 elements
        lambda toy: Curve(ExtField(PrimeField(2053), (-2, 0, 1)), 1, 0).enumerate_points(),
        ValueError, "field of order 4214809 exceeds enumeration bound 4194304",
    ),
    "eval_line_fraction M, N": (
        lambda toy: eval_line_fraction(_base_point(toy), _base_point(toy), toy.modulus.M, _base_point(toy)),
        ValueError, "M and N must live on the same curve",
    ),
    "eval_line_fraction over F_p": (
        # a modulus lives over F_p^2, so there is no line kernel over F_p
        lambda toy: eval_line_fraction(
            toy.curve.point(5, 3), toy.curve.point(7, 8), _base_point(toy), toy.curve.point(9, 1)),
        ValueError, "M and N must live over F_p\\^2",
    ),
    "eval_line_fraction P, Q": (
        lambda toy: eval_line_fraction(OTHER.point(0, 1), OTHER.point(0, 1), toy.modulus.M, toy.modulus.N),
        ValueError, "M and N must live on the points' curve or an extension of it",
    ),
    # field.py
    "_Field.__call__": (lambda toy: F11(1.5), TypeError, "cannot coerce 1.5 into"),
    "ExtField base": (
        lambda toy: ExtField(toy.ext_curve.field, (1, 0, 1)),
        ValueError, "extension must sit over a PrimeField",
    ),
    "ExtField.embed": (
        lambda toy: toy.ext_curve.field.embed(F19(1)),
        ValueError, "mismatched field parameters",
    ),
    # tests/subjects.py
    "CyclicGroup": (lambda toy: CyclicGroup(0), ValueError, "modulus must be positive"),
    "CoboundaryCocycle identity": (
        lambda toy: CoboundaryCocycle(CyclicGroup(3), CyclicGroup(5), {0: 1, 1: 0, 2: 0}),
        ValueError, "coboundary table must send 0 to 0",
    ),
    "CoboundaryCocycle coverage": (
        lambda toy: CoboundaryCocycle(CyclicGroup(3), CyclicGroup(5), {0: 0, 1: 4}),
        ValueError, "coboundary table misses 2",
    ),
    # jacobian.py
    "Modulus": (
        lambda toy: Modulus(toy.modulus.M, _base_point(toy)),
        ValueError, "modulus points live on different curves",
    ),
    "ModulusCocycle field": (
        lambda toy: ModulusCocycle(toy.curve, MultiplicativeGroup(F11), toy.modulus),
        ValueError, "modulus points must live over the unit group's field",
    ),
    "ModulusCocycle curve": (
        lambda toy: ModulusCocycle(OTHER, toy.units(), toy.modulus),
        ValueError, "curve group must be the modulus curve or its base curve",
    ),
    "pairing_order": (
        lambda toy: pairing_order(toy.modulus.M, toy),
        ValueError, "P must lie on the base curve",
    ),
    "tate_by_miller M, N": (
        lambda toy: tate_by_miller(_base_point(toy), toy.modulus.M, _base_point(toy), 2),
        ValueError, "evaluation points live on different curves",
    ),
    "tate_by_miller P": (
        lambda toy: tate_by_miller(OTHER.point(0, 1), toy.modulus.M, toy.modulus.N, 2),
        ValueError, "P must lie on the evaluation curve or its base curve",
    ),
}


@pytest.mark.parametrize("call, error, message", CHECKS.values(), ids=CHECKS.keys())
def test_input_check_raises(toy, call, error, message):
    with pytest.raises(error, match=message):
        call(toy)
