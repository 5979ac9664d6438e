import numpy as np
import pytest

import knotopt as ko


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_embedded_polygon(n, dim=2, noise=0.25, seed=0):
    """Regular n-gon with per-vertex noise, retried until embedded.

    ``noise`` is relative to the edge length, so the perturbation scale is
    mesh-consistent.
    """
    rng = np.random.default_rng(seed)
    base = ko.regular_ngon(n, dim=dim)
    scale = noise * base.total_length / n
    for _ in range(50):
        vertices = base.vertices + scale * rng.standard_normal(base.vertices.shape)
        try:
            return ko.Polygon(vertices)
        except ko.KnotOptError:
            continue
    raise RuntimeError(f"could not sample an embedded polygon with n={n}")


def dense(operator):
    """Dense matrix of a Gram operator, ``scalar (x) I_dim``, or of the
    system ``[[G, J^T], [J, -c I]]`` of a saddle factorization with
    compliance ``c``."""
    if isinstance(operator, ko.SaddleFactorization):
        g, j = operator.gram, operator.jacobian.dense()
        if isinstance(g, ko.GramOperator):
            g = dense(g)
        return np.block([[g, j.T], [j, -operator.compliance * np.eye(j.shape[0])]])
    return np.kron(operator.scalar, np.eye(operator.dim))


def fail_on_call(fn, k, exc):
    """Wrap ``fn`` so that its k-th call raises ``exc`` instead."""
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] == k:
            raise exc
        return fn(*args, **kwargs)

    return wrapper


def feasible_targets(polygon):
    return ko.ConstraintTargets.from_polygon(polygon)


def rotation_matrix(dim, rng, plane=(0, 1)):
    """Random rotation in one coordinate plane (exactly orthogonal)."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    r = np.eye(dim)
    i, j = plane
    r[i, i] = r[j, j] = np.cos(theta)
    r[i, j] = -np.sin(theta)
    r[j, i] = np.sin(theta)
    return r
