"""Checks that the solver's one-row float path equals its batched numpy path, bit for bit.

``_ml_solve`` hands a one-row block to ``_ml_row``, which runs on Python floats
and calls the loop twins ``_edge_row`` and ``_interior_row``; a block of R > 1
rows runs the numpy loops ``_edge_max`` and ``_interior_max``.  Plain
functions, so a fresh interpreter (a different numpy dispatch level) can run
them too.
"""

from unittest import mock

import numpy as np

from sqclick import estimate
from sqclick.estimate import EstimationError, _ml_solve, _setting_arrays


def record_row_calls(solve):
    """(function, arguments, result) of each _edge_row and _interior_row call
    that ``solve()`` makes."""
    calls = []

    def spy(fn):
        def recorded(*args):
            calls.append((fn, args, fn(*args)))
            return calls[-1][2]
        return recorded

    with mock.patch.object(estimate, "_edge_row", spy(estimate._edge_row)), \
            mock.patch.object(estimate, "_interior_row", spy(estimate._interior_row)):
        solve()
    return calls


def assert_row_twins_match_batched(calls):
    """Each row twin's result against its batched loop on a block that holds
    that row twice.  The batched loops solve every row on its own, so the calls
    with the same loop, number of settings and edge share a block; the dark
    offset e0 becomes a column."""
    groups = {}
    for fn, args, found in calls:
        n_starts = 1 if fn is estimate._edge_row else 2  # b, or (a, b)
        shared = args[1:3] if fn is estimate._edge_row else ()  # the edge's kappa and lam
        starts, row = args[:n_starts], args[len(shared) + n_starts:]
        groups.setdefault((fn, len(row[-1]), shared), []).append((starts, row, found))
    for (fn, _, shared), members in groups.items():
        twice = [m for m in members for _ in range(2)]
        starts = [np.array([m[0][i] for m in twice]) for i in range(len(twice[0][0]))]
        e2, e1, e0, ns, cs = (np.array([m[1][i] for m in twice], float) for i in range(5))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if fn is estimate._edge_row:
                got = estimate._edge_max(starts[0][None], *(np.array([[x]]) for x in shared),
                                         e2, e1, e0[:, None], ns, cs)
            else:
                got = np.stack(estimate._interior_max(*starts, e2, e1, e0[:, None], ns, cs))
        want = np.array([m[2] for m in twice], float).T
        for j, (row_starts, row, _) in enumerate(members):
            assert got[..., 2 * j:2 * j + 2].tobytes() == want[..., 2 * j:2 * j + 2].tobytes(), \
                (fn.__name__, row_starts, shared, row)


def solve_rows(blocks, dark):
    """Each row's (trace, det, det_reliable, log-likelihood) bytes from one _ml_solve
    of the (eff, ns, cs) ``blocks`` stacked, or for every row the refusal's message."""
    eff, ns, cs = (np.concatenate(x) for x in zip(*blocks))
    try:
        with np.errstate(over="ignore"):
            solved = _ml_solve(eff, ns, cs, dark)
    except EstimationError as exc:
        return [str(exc)] * eff.shape[0]
    return [[x[i].tobytes() for x in solved] for i in range(eff.shape[0])]


def assert_float_path_matches_numpy(runs):
    """Solve each (records, eta, dark) of ``runs`` alone, on the float path, and
    check it against the numpy path: each row twin's call against its batched loop
    (``assert_row_twins_match_batched``), and the whole solve against a block that
    holds the row twice, which must give the same bytes in both rows or the same
    refusal.  The batched solver solves every row on its own, so runs with the same
    number of settings and dark mean share a block, unless the solver refuses one
    of them.  numpy's products may overflow to inf, on tables at effective
    transmittances below 1e-150.  Returns the row twins' calls."""
    groups = {}

    def solve():
        for records, eta, dark in runs:
            arrays = _setting_arrays([records], [eta])
            groups.setdefault((len(records), dark), []).append(
                (arrays, solve_rows([arrays], dark)[0], (records, eta, dark)))

    calls = record_row_calls(solve)
    assert_row_twins_match_batched(calls)
    for (_, dark), members in groups.items():
        if any(isinstance(alone, str) for _, alone, _ in members):  # it would stop the block
            twice = [x for arrays, _, _ in members for x in solve_rows([arrays] * 2, dark)]
        else:
            twice = solve_rows([arrays for arrays, _, _ in members for _ in range(2)], dark)
        for j, (_, alone, run) in enumerate(members):
            assert twice[2 * j:2 * j + 2] == [alone] * 2, run
    return calls
