"""Shared fixtures and the acceptance-criterion summary hook.

Tests marked ``@pytest.mark.criterion("...")`` contribute one PASS or
FAIL line to a dedicated section at the end of the terminal report, so
the acceptance status is readable at a glance.
"""

import numpy as np
import pytest

from cohexp import (
    Condition,
    Const,
    FuzzyExpr,
    Piece,
    Piecewise,
    Projection,
    TConorm,
    TNorm,
)

_CRITERION_RESULTS: list[tuple[str, str]] = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(name): this test certifies one acceptance criterion",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        name = marker.args[0]
        if report.when == "call":
            _CRITERION_RESULTS.append((name, "PASS" if report.passed else "FAIL"))
        elif report.when == "setup" and report.failed:
            _CRITERION_RESULTS.append((name, "FAIL"))
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in _CRITERION_RESULTS:
        terminalreporter.write_line(f"{status}  {name}")


# ---------------------------------------------------------------------------
# shared building blocks
# ---------------------------------------------------------------------------


@pytest.fixture
def threshold():
    return Projection.threshold(0.5)


@pytest.fixture
def luk_or():
    """min(1, x + y); incoherent on the triangle x + y >= 0.5,
    x < 0.5, y < 0.5 under the 0.5 threshold."""
    return TConorm("lukasiewicz")


@pytest.fixture
def luk_and():
    """max(0, x + y - 1); incoherent on the triangle x >= 0.5,
    y >= 0.5, x + y < 1.5 under the 0.5 threshold."""
    return TNorm("lukasiewicz")


def jump_low(after: float = 1.0) -> Piecewise:
    """0 at the left endpoint, ``after`` elsewhere; incoherent on
    (0, 0.5) when ``after >= 0.5``."""
    return Piecewise(
        regions=(Piece((Condition(0, "le", 0.0),), Const((0.0,), in_arity=1)),),
        default=Const((float(after),), in_arity=1),
    )


def jump_high(before: float = 0.2) -> Piecewise:
    """``before`` everywhere except the right endpoint; incoherent on
    [0.5, 1) when ``before < 0.5``."""
    return Piecewise(
        regions=(Piece((Condition(0, "ge", 1.0),), Const((1.0,), in_arity=1)),),
        default=Const((float(before),), in_arity=1),
    )


def step_at(alpha: float, low: float, high: float) -> Piecewise:
    """``low`` below alpha, ``high`` from alpha on."""
    return Piecewise(
        regions=(Piece((Condition(0, "ge", float(alpha)),), Const((float(high),), in_arity=1)),),
        default=Const((float(low),), in_arity=1),
    )


@pytest.fixture
def functor_law_violating_pair():
    """(inner, outer) whose booleanizations do not compose: the inner
    function sends vertex 0 to the non-Boolean value 0.4 and the outer
    one is incoherent exactly there."""
    f_step = step_at(0.5, low=0.4, high=1.0)
    g_jump = Piecewise(
        regions=(
            Piece((Condition(0, "le", 0.0),), Const((0.0,), in_arity=1)),
            Piece((Condition(0, "ge", 1.0),), Const((1.0,), in_arity=1)),
        ),
        default=Const((0.9,), in_arity=1),
    )
    return f_step, g_jump


class BatchRecorder(FuzzyExpr):
    """Wraps an expression and records the size of every batch it is
    evaluated on."""

    def __init__(self, inner: FuzzyExpr) -> None:
        self.inner = inner
        self.sizes: list[int] = []

    @property
    def in_arity(self) -> int:
        return self.inner.in_arity

    @property
    def out_arity(self) -> int:
        return self.inner.out_arity

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        self.sizes.append(len(xs))
        return self.inner._eval(xs)


def grid_points(k: int, arity: int) -> np.ndarray:
    axis = np.linspace(0.0, 1.0, k)
    mesh = np.meshgrid(*([axis] * arity), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, arity)
