import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qsum.fourier import FourierFn, make_space
from qsum.geometry import ForcingTerm, MahlerTerm, ProblemSpec
from qsum.qcore import QParams


@pytest.fixture
def p2():
    """q = 2, order 1."""
    return QParams(q=2.0, k=1)


@pytest.fixture
def p32():
    """q = 3/2, order 1."""
    return QParams(q=1.5, k=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def benchmark_workloads():
    """``perfbench/workloads.py``, whose seeded generators some tests replay."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def gaussian_profile(space, scale, center=0.0):
    return FourierFn.from_callable(
        space, lambda m: scale * np.exp(-((m - center) ** 2) / 2.0)
    )


def build_spec(
    *,
    terms="full",
    forcing="both",
    cA=0.02,
    cF=0.1,
    ratio=0.08,
    n_points=601,
    half_width=12.0,
    beta=1.0,
    mu=3.0,
    q=2.0,
    k=1,
):
    """Contraction-regime problem used across the solver and transform tests.

    The symbol ratio defaults to 0.08, well below the disc floor of the
    q-exponential for q = 2, so the separation delta_1 stays comfortable.
    Smaller q needs a smaller ratio (the floor shrinks with the disc
    radius growing like 1/(q-1)). ``terms`` picks the coupling set: "full"
    (one shift term, one Mahler term), "shift" (shift term only), or
    "none" (forcing only); ``forcing`` is "both", "first" or "none".
    """
    space = make_space(beta, mu, half_width=half_width, n_points=n_points)
    params = QParams(q=q, k=k)
    coupling = []
    if terms in ("full", "shift"):
        coupling.append(
            MahlerTerm(l0=2, l1=1, l2=1, R=[1.0, 0.25], A=gaussian_profile(space, cA))
        )
    if terms == "full":
        coupling.append(
            MahlerTerm(l0=2, l1=1, l2=2, R=[0.5, 0.125], A=gaussian_profile(space, cA))
        )
    driving = []
    if forcing in ("both", "first"):
        driving.append(ForcingTerm(j=1, F=gaussian_profile(space, cF)))
    if forcing == "both":
        driving.append(ForcingTerm(j=2, F=gaussian_profile(space, 0.5 * cF, center=1.0)))
    return ProblemSpec(
        Q=[ratio, ratio],
        R_D=[1.0, 1.0],
        alpha_D=1.0,
        d_D=1,
        terms=tuple(coupling),
        forcing=tuple(driving),
        params=params,
        space=space,
    )


@pytest.fixture
def basic_spec():
    return build_spec(terms="full")


@pytest.fixture
def forcing_spec():
    return build_spec(terms="none")
