"""Deterministic random configurations.

The period search's refutation samples draw from them, as do the tests'
conjugacy and characterization samples; everything is driven by an
explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random

from .heights import MINUS_INF, PLUS_INF
from .lattice import Configuration, grid_config, line_config, periodic_config


def random_height(rand: random.Random, hmax: int = 5, p_inf: float = 0.08):
    u = rand.random()
    if u < p_inf / 2:
        return PLUS_INF
    if u < p_inf:
        return MINUS_INF
    return rand.randint(-hmax, hmax)


def random_line_config(
    rand: random.Random,
    max_width: int = 6,
    hmax: int = 4,
    p_inf: float = 0.08,
) -> Configuration:
    width = rand.randint(0, max_width)
    core = [random_height(rand, hmax, p_inf) for _ in range(width)]
    left = random_height(rand, hmax, p_inf)
    right = random_height(rand, hmax, p_inf)
    origin = rand.randint(-3, 3)
    return line_config(core, origin, left, right)


def random_periodic_config(rand: random.Random, max_period: int = 5, hmax: int = 4) -> Configuration:
    p = rand.randint(1, max_period)
    return periodic_config([random_height(rand, hmax, 0.05) for _ in range(p)])


def random_configuration(rand: random.Random, dim: int = 1, bounded: bool = False) -> Configuration:
    p_inf = 0.0 if bounded else 0.08
    if dim == 2:
        rows = [
            [random_height(rand, 4, p_inf) for _ in range(rand.randint(1, 4))]
        ]
        w = len(rows[0])
        for _ in range(rand.randint(0, 3)):
            rows.append([random_height(rand, 4, p_inf) for _ in range(w)])
        return grid_config(rows, (rand.randint(-2, 2), rand.randint(-2, 2)), random_height(rand, 3, p_inf))
    if not bounded and rand.random() < 0.25:
        return random_periodic_config(rand)
    return random_line_config(rand, p_inf=p_inf)
