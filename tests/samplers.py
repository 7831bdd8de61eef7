"""Random rules and configurations that only the tests draw, and the
seeded conjugacy loop over them.

Every generator takes an explicit ``random.Random`` or seed, so each test
is reproducible.
"""

from __future__ import annotations

import random

from sandlab.bridge import build_ca_from_sa, check_conjugacy_on
from sandlab.lattice import Configuration, line_config
from sandlab.sa import FuncRule, dense_rule
from sandlab.sampling import random_configuration


def random_bounded_line(
    rand: random.Random, max_width: int = 16, hmax: int = 8
) -> Configuration:
    """A bounded configuration whose background is its minimum height."""
    width = rand.randint(1, max_width)
    core = [rand.randint(-hmax, hmax) for _ in range(width)]
    bg = min(core)
    return line_config(core, rand.randint(-4, 4), bg, bg)


def random_table_rule(rand: random.Random, radius: int = 1, dim: int = 1) -> FuncRule:
    n = (2 * radius + 3) ** ((2 * radius + 1) ** dim - 1)
    table = tuple(rand.randint(-radius, radius) for _ in range(n))
    return dense_rule(dim, radius, table, name=f"RANDOM-{rand.randint(0, 10**6)}")


def sample_table_rules(count: int, radius: int = 1, dim: int = 1, seed: int = 0) -> list[FuncRule]:
    rand = random.Random(seed)
    return [random_table_rule(rand, radius, dim) for _ in range(count)]


def column_is_monotone(bits) -> bool:
    """True when the column (bottom-to-top) has all its ones below its zeros."""
    seen_zero = False
    for b in bits:
        if b == 0:
            seen_zero = True
        elif seen_zero:
            return False
    return True


def conjugacy_witness(f: FuncRule, samples: int, n_steps: int, seed: int = 0):
    """Encode-then-CA against step-then-encode on ``samples`` seeded random
    1-d configurations: the first mismatch witness, or None."""
    g = build_ca_from_sa(f)
    rand = random.Random(seed)
    for _ in range(samples):
        w = check_conjugacy_on(f, g, random_configuration(rand, dim=1), n_steps)
        if w is not None:
            return w
    return None
