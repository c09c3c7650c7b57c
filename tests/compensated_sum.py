"""The builtin ``sum`` as CPython 3.12 and later adds floats.

From 3.12 on, once ``sum``'s running total is a float, every exact float
term is added with Neumaier's compensation, and the compensation is added
at the end; earlier versions add the terms one after another.  Tests swap
``builtins.sum`` for :func:`compensated_sum` to check, on any interpreter,
that the printed numbers do not depend on which of the two ``sum`` adds
them.
"""

import builtins
import math

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum(iterable, start)`` with the float path of CPython 3.12: ints
    add exactly until the total becomes a float, exact floats then add with
    Neumaier's compensation, ints as floats, and any other term ends the
    compensated part and leaves the rest to the builtin."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is not float:
        return _builtin_sum(items, total)
    compensation = 0.0
    for item in items:
        if isinstance(item, int):
            total += float(item)
            continue
        if type(item) is not float:
            if compensation and math.isfinite(compensation):
                total += compensation
            return _builtin_sum(items, total + item)
        t = total + item
        if abs(total) >= abs(item):
            compensation += (total - t) + item
        else:
            compensation += (item - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total
