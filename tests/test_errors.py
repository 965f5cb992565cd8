import numpy as np
import pytest

from qbcap.errors import raise_first


class Reported(Exception):
    """Carries the index ``raise_first`` passed, as one tuple."""

    def __init__(self, *index):
        super().__init__(index)
        self.index = index


def reported_index(bad):
    with pytest.raises(Reported) as caught:
        raise_first(bad, Reported)
    return caught.value.index


@pytest.mark.parametrize("shape", [(), (5,), (2, 3), (2, 3, 4)])
def test_an_all_false_mask_does_not_raise(shape):
    raise_first(np.zeros(shape, dtype=bool), Reported)


def test_nan_comparisons_do_not_raise():
    values = np.array([[np.nan, 0.5], [np.nan, np.nan]])
    raise_first(values > 1.0, Reported)
    raise_first(values < 0.0, Reported)


@pytest.mark.parametrize(
    "shape, set_entries, first",
    [
        ((6,), [(4,), (1,), (5,)], (1,)),
        ((3, 4), [(2, 0), (1, 3), (1, 2)], (1, 2)),
        ((2, 3, 4), [(1, 0, 0), (0, 2, 3), (0, 2, 1), (1, 2, 3)], (0, 2, 1)),
    ],
    ids=["1-d", "2-d", "3-d"],
)
def test_the_first_set_entry_in_c_order_is_passed_as_an_index_tuple(shape, set_entries, first):
    bad = np.zeros(shape, dtype=bool)
    for entry in set_entries:
        bad[entry] = True
    index = reported_index(bad)
    assert index == first
    assert all(isinstance(i, (int, np.integer)) for i in index)


def test_a_0d_mask_passes_the_empty_index():
    assert reported_index(np.array(True)) == ()
    assert reported_index(np.float64(-1.0) < 0.0) == ()  # a numpy bool scalar, as a comparison of scalars gives
    raise_first(np.array(False), Reported)

