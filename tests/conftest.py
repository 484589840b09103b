import os
import random

import pytest

from lgck.exactalg import MultiPoly
from lgck.glsm import GlsmModel
from lgck.statespace import StateSpace

SEED = int(os.environ.get("LGCK_SEED", "20260810"))


@pytest.fixture(scope="session")
def rng():
    return random.Random(SEED)


def scale_variables(p: MultiPoly, scalars) -> MultiPoly:
    """p with x_i -> s_i * x_i, by polynomial substitution."""
    return p.substitute({v: MultiPoly.var(p.variables, v) * s
                         for v, s in zip(p.variables, scalars)})


def make_quintic_lg() -> GlsmModel:
    return GlsmModel.from_dict({
        "variables": ["x1", "x2", "x3", "x4", "x5"],
        "torus_weights": [[1, 1, 1, 1, 1]],
        "finite_generators": [],
        "chi": [5],
        "nu": [0],
        "r_charges": [1, 1, 1, 1, 1],
        "d_w": 5,
        "potential": "x1^5+x2^5+x3^5+x4^5+x5^5",
    })


def make_quintic_glsm(nu, charges, d_w) -> GlsmModel:
    return GlsmModel.from_dict({
        "variables": ["x1", "x2", "x3", "x4", "x5", "x6"],
        "torus_weights": [[1, 1, 1, 1, 1, -5], [0, 0, 0, 0, 0, 1]],
        "finite_generators": [],
        "chi": [0, 1],
        "nu": nu,
        "r_charges": charges,
        "d_w": d_w,
        "potential": "x6*x1^5+x6*x2^5+x6*x3^5+x6*x4^5+x6*x5^5",
    })


@pytest.fixture(scope="session")
def quintic_lg():
    return make_quintic_lg()


@pytest.fixture(scope="session")
def quintic_state(quintic_lg):
    return StateSpace(quintic_lg)
