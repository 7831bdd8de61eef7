import pytest

from sandlab.ca import (
    CaRule,
    ca_apply,
    ca_extend,
    extend_columns,
    find_quiescent_states,
    find_spreading_states,
    flat_from_masks,
    materialize_table,
    neighborhood_index,
    table_rule,
)
from sandlab.pattern import pattern1, pattern2


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
    assert ca_apply(g, pattern1([1, 1, 1])) == 1
    assert ca_apply(g, pattern1([1, 0, 1])) == 0


def test_table_rule_validation():
    with pytest.raises(ValueError):
        table_rule(1, 1, 2, [0] * 7)
    with pytest.raises(ValueError):
        table_rule(1, 1, 2, [2] * 8)


def test_materialize_matches_function():
    g = CaRule(1, 1, 2, lambda flat: min(flat), name="MINFN")
    t = materialize_table(g)
    from itertools import product

    for flat in product((0, 1), repeat=3):
        assert t.apply_flat(flat) == g.apply_flat(flat)


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


def test_ca_extend_shrinks_window():
    g = make_min_rule()
    p = pattern1([1, 1, 0, 1, 1])
    out = ca_extend(g, p)
    assert out.order == (3,)
    assert out.entries == (0, 0, 0)


def test_flat_from_masks_order():
    # two columns of height 3: vertical index runs fastest, bottom-up
    flat = flat_from_masks((0b001, 0b110), 1)
    assert flat == (1, 0, 0, 0, 1, 1)


def test_extend_columns_matches_ca_extend():
    from itertools import product

    g = CaRule(2, 1, 2, lambda flat: max(flat) - min(flat), name="EDGE")
    cols = [0b10101, 0b00111, 0b11111, 0b00001, 0b01011]
    out, out_h = extend_columns(g, cols, 5)
    assert out_h == 3 and len(out) == 3
    grid = pattern2([[(c >> v) & 1 for v in range(5)] for c in cols])
    exp = ca_extend(g, grid)
    got_bits = tuple((out[c] >> v) & 1 for c in range(3) for v in range(3))
    assert got_bits == exp.entries


def test_quiescent_and_spreading():
    g = make_min_rule()
    assert find_quiescent_states(g) == {0, 1}
    assert find_spreading_states(g) == {0}
    const1 = table_rule(1, 1, 2, [1] * 8)
    assert find_spreading_states(const1) == {1}
