"""Tests of the benchmark's persistent-rank oracle.

Run from the repository root: python3 -m pytest bench/test_oracle.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracle import components, gf2_rank, persistent_rank, triangle_radius  # noqa: E402

EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE_DEATH = 1.0 / math.sqrt(3.0)
SQUARE_DEATH = math.sqrt(2.0) / 2.0


def test_gf2_rank_differs_from_the_real_rank():
    # Rows 011, 110, 101 are independent over the reals but sum to 0 mod 2.
    assert gf2_rank([0b011, 0b110, 0b101]) == 2
    assert gf2_rank([0b001, 0b010, 0b100]) == 3
    assert gf2_rank([0b101, 0b101, 0]) == 1
    assert gf2_rank([]) == 0


def test_triangle_radius_closed_forms():
    assert triangle_radius(*EQUILATERAL.tolist()) == pytest.approx(TRIANGLE_DEATH, rel=1e-15)
    # Right and obtuse triangles: half the longest side.
    assert triangle_radius((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == SQUARE_DEATH
    assert triangle_radius((0.0, 0.0), (2.0, 0.0), (1.0, 0.1)) == 1.0


def test_equilateral_triangle_lives_on_half_open_interval():
    # Born at 1/2 (its sides), filled at the circumradius 1/sqrt(3).
    assert persistent_rank(EQUILATERAL, 0.5, 0.5) == 1
    assert persistent_rank(EQUILATERAL, 0.5, TRIANGLE_DEATH * (1.0 - 1e-9)) == 1
    assert persistent_rank(EQUILATERAL, 0.5, TRIANGLE_DEATH * (1.0 + 1e-9)) == 0
    assert persistent_rank(EQUILATERAL, 0.5 * (1.0 - 1e-9), 0.55) == 0


def test_square_persists_up_to_ratio_sqrt2_with_closed_ties():
    # Sides of length exactly 1 enter at exactly 1/2 (closed), and the
    # diagonals and the right triangles at exactly sqrt(2)/2 (closed).
    assert persistent_rank(SQUARE, 0.5, 0.5) == 1
    assert persistent_rank(SQUARE, 0.5, math.nextafter(SQUARE_DEATH, 0.0)) == 1
    assert persistent_rank(SQUARE, 0.5, SQUARE_DEATH) == 0
    assert persistent_rank(SQUARE, math.nextafter(0.5, 0.0), 0.6) == 0
    for theta, alive in ((1.4, 1), (1.414, 1), (math.sqrt(2.0), 0), (1.5, 0)):
        assert persistent_rank(SQUARE, 0.5, theta * 0.5) == alive


def test_ranks_add_over_components():
    far = np.vstack([SQUARE, EQUILATERAL + 10.0, SQUARE * 0.1 - 5.0])
    # Shifting the triangle rounds its sides off 1, so r stays off 1/2.
    assert persistent_rank(far, 0.51, 0.55) == 2
    assert persistent_rank(far, 0.051, 0.06) == 1
    _, labels = components(far, 1.2)
    assert len(np.unique(labels)) == 3


def test_square_with_centre_point_has_no_persistent_cycle():
    cross = np.vstack([SQUARE, [[0.5, 0.5]]])
    # The centre joins the square at sqrt(2)/4 < 1/2, coning it off.
    assert persistent_rank(cross, 0.5, 0.5) == 0


def test_guards_and_degenerate_inputs():
    assert persistent_rank(np.zeros((0, 2)), 0.1, 0.2) == 0
    assert persistent_rank(SQUARE[:2], 1.0, 1.0) == 0
    with pytest.raises(ValueError):
        persistent_rank(SQUARE, 0.6, 0.5)
    with pytest.raises(ValueError):
        persistent_rank(np.zeros((3, 3)), 0.1, 0.2)


@pytest.mark.parametrize("theta", [1.0, 1.2, 1.4, 2.0])
def test_matches_cechlab_on_random_clouds(theta):
    from cechlab import Density, persistent_betti, sample_poisson, stream

    box = Density.unit_cube(2)
    positive = 0
    for t in range(60):
        cloud = sample_poisson(25, box, stream(11, int(theta * 10), t))
        expected = persistent_betti(cloud, 0.12, theta, 1)
        assert persistent_rank(cloud.points, 0.12, theta * 0.12) == expected
        positive += expected > 0
    if theta < 2.0:
        assert positive > 0
