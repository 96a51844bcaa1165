"""How `job_ab.py` sizes a difference between two sides' job outputs."""
import math
import sys
from enum import Enum
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import job_ab  # noqa: E402


class Scheme(Enum):
    EXACT = "truncated_exact"


def test_numbers_follow_the_comparison_order():
    output = {"b": [1, (2.5, True)], "a": np.array([3.0 + 4.0j]), Scheme.EXACT: "text"}
    # keys sorted by repr: 'a', 'b', then the enum; its string value adds no number
    assert job_ab.numbers(output).tolist() == [3.0, 4.0, 1.0, 2.5, 1.0]


def test_equal_outputs_change_nothing():
    output = {"kernel": np.array([[1.0, np.nan], [0.5, 2.0]]), "traces": [0.9, 0.8]}
    assert job_ab.relative_change(output, {k: np.copy(v) for k, v in output.items()}) == 0.0


def test_change_is_the_largest_difference_over_the_largest_old_number():
    old = {"kernel": np.array([4.0, -8.0, 1.0]), "decay": 2.0}
    new = {"kernel": np.array([4.0, -8.0, 1.5]), "decay": 2.25}
    assert job_ab.relative_change(old, new) == 0.5 / 8.0


def test_imaginary_parts_count():
    old, new = np.array([1.0 + 0.0j, 0.5 + 0.25j]), np.array([1.0 + 0.0j, 0.5 + 0.5j])
    assert job_ab.relative_change(old, new) == 0.25
    assert not job_ab.same(old, new)


def test_zero_old_outputs_give_the_absolute_difference():
    assert job_ab.relative_change([0.0, 0.0], [0.0, 3e-17]) == 3e-17


def test_a_different_count_of_numbers_is_infinite():
    assert job_ab.relative_change({"rows": [(1.0, 2.0)]}, {"rows": [(1.0, 2.0), (3.0, 4.0)]}) == math.inf
