import random
from itertools import product

import pytest

from sandlab.ca import (
    CaRule,
    ca_extend,
    extend_columns,
    flat_from_masks,
    neighborhood_index,
    table_rule,
)
from sandlab.pattern import Pattern


def make_min_rule():
    tab = [0] * 8
    tab[7] = 1
    return table_rule(1, 1, 2, tab, name="MIN")


def test_neighborhood_index_positional():
    assert neighborhood_index(2, (1, 0, 0)) == 1
    assert neighborhood_index(2, (0, 0, 1)) == 4
    assert neighborhood_index(3, (2, 1)) == 5


def test_table_rule_lookup():
    g = make_min_rule()
    assert g.apply_flat((1, 1, 1)) == 1
    assert g.apply_flat((1, 0, 1)) == 0


def test_table_rule_validation():
    with pytest.raises(ValueError):
        table_rule(1, 1, 2, [0] * 7)
    with pytest.raises(ValueError):
        table_rule(1, 1, 2, [2] * 8)


def test_function_rule_output_validated():
    g = CaRule(1, 1, 2, lambda flat: 7, name="BAD")
    with pytest.raises(ValueError):
        g.apply_flat((0, 0, 0))


@pytest.mark.parametrize("value", [2, -1])
def test_non_state_output_rejected_on_every_path(value):
    from sandlab.bridge import decide_sa

    with pytest.raises(ValueError, match="non-state"):
        extend_columns(CaRule(2, 1, 2, lambda flat: value), [0b111] * 3, 3)
    with pytest.raises(ValueError, match="non-state"):
        decide_sa(CaRule(2, 1, 2, lambda flat: value))


def test_non_state_neighborhood_entries_rejected():
    # a stray 2 must not read as the bit of the next cell, nor index past
    # the table
    t = [0] * 512
    t[2] = 1
    g = table_rule(2, 1, 2, t)
    for flat in [(2,) + (0,) * 8, (2,) + (1,) * 8]:
        with pytest.raises(ValueError, match="non-state: 2"):
            g.apply_flat(flat)
    h = CaRule(1, 1, 3, lambda flat: 0)
    with pytest.raises(ValueError, match="non-state: -1"):
        h.apply_flat((0, -1, 2))
    assert h.apply_flat((0, 1, 2)) == 0
    # the whole window is checked before the rule reads any neighborhood
    calls = []
    k = CaRule(1, 1, 3, lambda flat: calls.append(flat) or 0)
    with pytest.raises(ValueError, match="non-state: 3"):
        ca_extend(k, Pattern(1, (5,), (0, 1, 2, 0, 3)))
    assert calls == []


def test_ca_extend_shrinks_window():
    g = make_min_rule()
    p = Pattern(1, (5,), (1, 1, 0, 1, 1))
    out = ca_extend(g, p)
    assert out.order == (3,)
    assert out.entries == (0, 0, 0)


def test_flat_from_masks_order():
    # two columns of height 3: vertical index runs fastest, bottom-up
    flat = flat_from_masks((0b001, 0b110), 1)
    assert flat == (1, 0, 0, 0, 1, 1)


@pytest.mark.parametrize("rho", [1, 2, 3, 4])
def test_flat_from_masks_matches_per_bit_decode(rho):
    rand = random.Random(rho)
    span = 2 * rho + 1
    for _ in range(200):
        masks = tuple(rand.getrandbits(span) for _ in range(rand.randint(1, span)))
        assert flat_from_masks(masks, rho) == tuple(
            (m >> v) & 1 for m in masks for v in range(span)
        )


def _weighted_parity(flat):
    # position-sensitive, so a transposed or shifted neighborhood shows
    return sum(i * b for i, b in enumerate(flat)) % 7 % 2


def _extend_both(make_rule, cols: list[int], height: int):
    """extend_columns on one rule instance and the reference ca_extend on
    another, so the two never share a memo; both as flat output bits."""
    g = make_rule()
    rho = g.radius
    width = len(cols)
    out, out_h = extend_columns(g, cols, height)
    assert out_h == height - 2 * rho and len(out) == width - 2 * rho
    # columns major, each read bottom-to-top
    flat = tuple((c >> v) & 1 for c in cols for v in range(height))
    exp = ca_extend(make_rule(), Pattern(2, (width, height), flat))
    got_bits = tuple((c >> v) & 1 for c in out for v in range(out_h))
    return got_bits, exp.entries


def _random_window(rand, span: int, hole_free: bool):
    width, height = rand.randint(span, span + 4), rand.randint(span, span + 4)
    if hole_free:
        return [(1 << rand.randint(0, height)) - 1 for _ in range(width)], height
    return [rand.getrandbits(height) for _ in range(width)], height


def test_extend_columns_matches_ca_extend():
    for rho, seed in product((1, 2), range(4)):
        rand = random.Random(seed)
        cols, height = _random_window(rand, 2 * rho + 1, False)
        got, exp = _extend_both(lambda: CaRule(2, rho, 2, _weighted_parity, name="WPAR"), cols, height)
        assert got == exp, (rho, seed)


def _mask_rules(rand):
    """Rules that read column masks: a radius-1 binary table, radius-2 bridges."""
    from sandlab.bridge import build_ca_from_sa
    from sandlab.nilpotency import make_collapse
    from sandlab.sa import raise_rule

    table = [rand.randint(0, 1) for _ in range(512)]
    return [
        lambda: table_rule(2, 1, 2, table, name="RANDOM"),
        lambda: build_ca_from_sa(make_collapse(1, 1)),
        lambda: build_ca_from_sa(raise_rule()),
    ]


def test_extend_columns_matches_ca_extend_on_mask_rules():
    rand = random.Random(9)
    for make_rule in _mask_rules(rand):
        span = 2 * make_rule().radius + 1
        for t in range(8):
            cols, height = _random_window(rand, span, t % 2 == 0)
            got, exp = _extend_both(make_rule, cols, height)
            assert got == exp, (make_rule().name, cols, height)


def test_mask_rule_memo_holds_only_masks():
    rand = random.Random(10)
    for make_rule in _mask_rules(rand):
        g = make_rule()
        rho = g.radius
        span = 2 * rho + 1
        cols, height = _random_window(rand, span, True)
        flat = tuple((c >> v) & 1 for c in cols for v in range(height))
        window = Pattern(2, (len(cols), height), flat)
        by_flat = [
            g.apply_flat(window.crop((c + 1, v + 1), (c + span, v + span)).entries)
            for c in range(len(cols) - 2 * rho)
            for v in range(height - 2 * rho)
        ]
        out, out_h = extend_columns(g, cols, height)
        assert by_flat == [(c >> v) & 1 for c in out for v in range(out_h)]
        assert g._memo and all(
            len(key) == span and all(0 <= m < 1 << span for m in key) for key in g._memo
        ), g.name
