from fractions import Fraction

from doublehurwitz import exact


def _value(nums: dict, den: int) -> dict:
    return {k: Fraction(n, den) for k, n in nums.items()}


def test_add_into_widens_and_scales_by_mult():
    acc = {"x": 1, "y": 3}  # x/4 + 3y/4
    den = exact.add_into(acc, 4, {"y": 1, "z": 5}, 6, 7)  # + 7 (y + 5z)/6
    assert den == 12  # lcm(4, 6), and the accumulator is rescaled in place
    assert acc == {"x": 3, "y": 9 + 14, "z": 70}
    assert _value(acc, den) == {"x": Fraction(1, 4), "y": Fraction(3, 4) + Fraction(7, 6),
                                "z": Fraction(35, 6)}
    # a part whose denominator already divides the running one leaves it
    assert exact.add_into(acc, den, {"x": 1}, 3, -4) == 12
    assert acc["x"] == 3 - 16


def test_add_is_in_lowest_terms():
    # 1/6 x + 1/3 y plus 1/3 x - 1/3 y: x/2, with y cancelled and 2 | 6 removed
    assert exact.add({"x": 1, "y": 2}, 6, {"x": 1, "y": -1}, 3) == ({"x": 1}, 2)
    assert exact.add({"x": 1}, 2, {"x": 1}, 2) == ({"x": 1}, 1)
    assert exact.add({}, 1, {"x": 3}, 9) == ({"x": 1}, 3)
