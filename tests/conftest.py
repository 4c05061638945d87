import numpy as np
import pytest

from dimino import dims
from dimino.data import Batch, Grid, Sample
from dimino.solvers import random_fourier_field


def make_sample(system, grid, fields, constants, t_final, targets=None):
    return Sample(
        system=system,
        grid=grid,
        fields=fields,
        constants=dict(constants),
        t_final=t_final,
        targets=targets or {},
    )


def random_sample(system, seed=0, t_final=1.0, with_targets=False):
    """A structurally valid sample with random smooth fields (no solver run)."""
    rng = np.random.default_rng(seed)
    if system == "advection1d":
        grid = Grid((64,), (1.0,))
        fields = {"u": random_fourier_field(rng, grid)}
        constants = {"beta": float(rng.uniform(0.2, 2.0))}
    elif system == "burgers1d":
        grid = Grid((64,), (1.0,))
        fields = {"u": random_fourier_field(rng, grid)}
        constants = {"nu": float(rng.uniform(1e-3, 1e-1))}
    elif system == "diffreact2d":
        grid = Grid((16, 16), (1.0, 1.0))
        fields = {
            "u": random_fourier_field(rng, grid),
            "v": random_fourier_field(rng, grid),
        }
        constants = {
            "Du": float(rng.uniform(1e-3, 1e-2)),
            "Dv": float(rng.uniform(1e-3, 1e-2)),
            "k": float(rng.uniform(1e-3, 1e-2)),
        }
    elif system == "ns-vorticity2d":
        grid = Grid((16, 16), (1.0, 1.0))
        fields = {
            "omega": random_fourier_field(rng, grid),
            "f": random_fourier_field(rng, grid, amplitude=0.1),
        }
        constants = {"nu": float(rng.uniform(1e-3, 1e-2))}
    else:
        raise ValueError(system)
    targets = None
    if with_targets:
        targets = {
            name: arr + 0.1 * random_fourier_field(rng, grid)
            for name, arr in fields.items()
            if name != "f"
        }
    return make_sample(system, grid, fields, constants, t_final, targets)


def random_batch(system, seeds=(0,), t_final=1.0, with_targets=False):
    """``random_sample`` of each seed, stacked to one Batch."""
    return Batch.stack([random_sample(system, seed=s, t_final=t_final,
                                      with_targets=with_targets) for s in seeds])


def row_scales(sample):
    """One row's characteristic scales as floats, written out one at a time:
    the reference for ``dims.characteristic_scales_from_sample``'s columns."""
    scales = {name: max(float(np.max(np.abs(arr))), dims.EPS_FLOOR)
              for name, arr in sample.fields.items()}
    scales.update({name: max(abs(float(v)), dims.EPS_FLOOR)
                   for name, v in sample.constants.items()})
    scales["x"] = float(sample.grid.extent[0])
    scales["t"] = float(sample.t_final)
    return scales


@pytest.fixture(scope="session")
def tmp_workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("work")
