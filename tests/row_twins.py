"""Checks that the solver's one-row loops equal its batched loops, bit for bit.

``_edge_max`` and ``_interior_max`` hand a one-row block to a twin on Python
floats; a block of R > 1 rows runs the numpy loops.  Plain functions, so a
fresh interpreter (a different numpy dispatch level) can run them too.
"""

from unittest import mock

import numpy as np

from sqclick import estimate


def record_row_calls(solve):
    """(function, arguments, result) of each one-row _edge_max and _interior_max
    call that ``solve()`` makes."""
    calls = []

    def spy(fn):
        def recorded(*args):
            found = fn(*args)
            if args[-1].shape[0] == 1:
                calls.append((fn, args, found))
            return found
        return recorded

    with mock.patch.object(estimate, "_edge_max", spy(estimate._edge_max)), \
            mock.patch.object(estimate, "_interior_max", spy(estimate._interior_max)):
        solve()
    return calls


# the row axis of each of _edge_max's and _interior_max's per-row arguments; the
# dark offset e0 becomes a column, and the edge coefficients are shared by a block
ROW_AXES = {"_edge_max": {0: 1, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0},
            "_interior_max": {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}}


def assert_row_twins_match_batched(calls):
    """Each one-row result against the batched loop (R > 1 takes the numpy path)
    on a block that holds that row twice.  The batched loops solve every row on
    its own, so the calls with the same loop, settings and edges share a block."""
    groups = {}
    for fn, args, found in calls:
        axes = ROW_AXES[fn.__name__]
        args = [np.full((1, 1), x) if np.ndim(x) == 0 else x for x in args]  # e0
        shared = tuple(x.tobytes() for i, x in enumerate(args) if i not in axes)
        groups.setdefault((fn, args[-1].shape[1], shared), []).append((args, found))
    for (fn, _, _), members in groups.items():
        axes = ROW_AXES[fn.__name__]
        block = [np.concatenate([args[i] for args, _ in members for _ in range(2)], axis=axes[i])
                 if i in axes else x for i, x in enumerate(members[0][0])]
        with np.errstate(divide="ignore", invalid="ignore"):
            batched = fn(*block)
        for j, (args, found) in enumerate(members):
            if fn is estimate._edge_max:
                got, want = batched[:, 2 * j:2 * j + 2], np.repeat(found, 2, axis=1)
            else:
                got = np.stack([x[2 * j:2 * j + 2] for x in batched])
                want = np.stack([np.repeat(x, 2) for x in found])
            assert got.tobytes() == want.tobytes(), args
