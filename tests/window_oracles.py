"""Reference operations on window subgroups, shared by the oracle tests."""

from lampirs.irs import WindowSubgroup, _check_same_window


def sum_with(a, b):
    """The subgroup that window subgroups a and b on the same window
    generate together: their rows, row-reduced by the checked constructor.
    ``irs._direct_sum`` is tested against it."""
    _check_same_window(a, b)
    return WindowSubgroup(a.p, a.n, a.lo, a.hi, a.rows + b.rows)
