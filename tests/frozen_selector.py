"""Frozen copies of the minimum-distance selector code that the mask class
and the batched scorer replaced, shared by the tests that check against
them: the frozenset class and the per-sample selector."""

import numpy as np

from densagg import ValidationError


def _old_yatracos_class(candidates):
    vals = candidates.values
    sets = {frozenset()}
    for i in range(vals.shape[0]):
        gt = vals[i] > vals
        for j in range(vals.shape[0]):
            if i != j:
                sets.add(frozenset(np.flatnonzero(gt[j]).tolist()))
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def _old_yatracos_select(candidates, x):
    return _old_selector(candidates)(x)


def _old_selector(candidates):
    """The replaced selector with its per-family work (class, masks and set
    integrals) done once; the returned function selects for one sample."""
    sets = _old_yatracos_class(candidates)
    masks = np.zeros((len(sets), candidates.values.shape[1]), dtype=bool)
    for s, cells in enumerate(sets):
        masks[s, list(cells)] = True
    cell_masses = candidates.values * candidates.cell_lengths
    set_integrals = cell_masses @ masks.T

    def select(x):
        pts = np.asarray(x, dtype=float)
        if pts.size == 0:
            raise ValidationError("yatracos_select needs at least one sample point")
        counts = np.bincount(candidates.cell_indices(pts), minlength=candidates.values.shape[1])
        empirical = (counts @ masks.T) / pts.size
        scores = np.max(np.abs(set_integrals - empirical), axis=1)
        return int(np.argmin(scores))

    return select
