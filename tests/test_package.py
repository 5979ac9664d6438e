import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotopt as ko

# Names the package no longer has: a second, dense Hessian, single-node
# energy variants, pointwise density and geodesic helpers, and wrappers
# that only tests called.
REMOVED = ("AdjacentEdges", "QuadPoint", "d2_energy", "energy_density",
           "geodesic_distance", "hess_vec", "ks_energy",
           "min_nonadjacent_distance", "segment_distance")


def test_every_exported_name_resolves():
    assert len(ko.__all__) == len(set(ko.__all__)) == 50
    for name in ko.__all__:
        assert getattr(ko, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_not_exported(name):
    assert name not in ko.__all__
    assert not hasattr(ko, name)


def test_import_leaves_scipy_sparse_out():
    src = str(Path(ko.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, knotopt; print(sorted(m for m in sys.modules "
         "if m.startswith('scipy.sparse')))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "[]"
