import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant, running_sup
from gronwall.expr import parse
from gronwall.grid import (
    Grid,
    GridError,
    GridFunction,
    NonFiniteSampleError,
    _running_trapezoid_raw,
    cumulative_trapezoid,
    sample,
)


def gf(g, values):
    return GridFunction(g, np.asarray(values, dtype=float))


class TestGrid:
    def test_nodes_hit_endpoints_exactly(self):
        g = Grid(0.3, 1.7, 7)
        assert g.nodes[0] == 0.3
        assert g.nodes[-1] == 1.7
        assert (np.diff(g.nodes) > 0).all()

    def test_invalid_intervals(self):
        with pytest.raises(GridError):
            Grid(1.0, 1.0, 4)
        with pytest.raises(GridError):
            Grid(2.0, 1.0, 4)
        with pytest.raises(GridError):
            Grid(0.0, 1.0, 0)

    def test_values_length_checked(self):
        with pytest.raises(GridError):
            GridFunction(Grid(0, 1, 4), np.zeros(4))

    def test_immutable(self):
        f = constant(1.0, Grid(0, 1, 4))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestSample:
    def test_constant(self):
        f = sample(parse("1", set()), Grid(0, 1, 4))
        assert (f.values == 1.0).all()

    def test_identity(self):
        f = sample(parse("t", {"t"}), Grid(0, 1, 2))
        assert f.values.tolist() == [0.0, 0.5, 1.0]

    def test_pole_reports_node(self):
        with pytest.raises(NonFiniteSampleError) as err:
            sample(parse("1/(1-t)", {"t"}), Grid(0, 2, 2))
        assert err.value.node == 1

    def test_foreign_variable_rejected(self):
        with pytest.raises(GridError):
            sample(parse("s", {"s"}), Grid(0, 1, 2))


class TestCumulativeTrapezoid:
    def test_constant_one(self):
        g = Grid(0, 1, 4)
        out = cumulative_trapezoid(constant(1.0, g))
        assert out.values.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_exact_on_linear(self):
        g = Grid(0, 1, 2)
        out = cumulative_trapezoid(sample(parse("t", {"t"}), g))
        assert out.values.tolist() == [0.0, 0.125, 0.5]

    def test_exp_integral(self):
        g = Grid(0, 1, 1024)
        out = cumulative_trapezoid(sample(parse("exp(t)", {"t"}), g))
        assert out.values[-1] == pytest.approx(math.e - 1.0, abs=1e-6)

    def test_linearity(self):
        g = Grid(0, 1, 64)
        rng = np.random.default_rng(7)
        f = gf(g, rng.uniform(-1, 1, g.m + 1))
        h = gf(g, rng.uniform(-1, 1, g.m + 1))
        lhs = cumulative_trapezoid(gf(g, 2.5 * f.values + (-1.25) * h.values)).values
        rhs = 2.5 * cumulative_trapezoid(f).values - 1.25 * cumulative_trapezoid(h).values
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(scale, 1.0)

    def test_nonnegative_gives_nondecreasing(self):
        g = Grid(0, 1, 64)
        rng = np.random.default_rng(8)
        f = gf(g, rng.uniform(0, 5, g.m + 1))
        out = cumulative_trapezoid(f).values
        assert (np.diff(out) >= 0).all()

    def test_raw_helper_matches_bit_for_bit_without_warnings(self):
        g = Grid(0, 1, 8)
        v = np.array([1.0, np.inf, 2.0, -np.inf, 3.0, np.nan, 4.0, 1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(all="ignore"):
                raw = _running_trapezoid_raw(v, g.dt)
            wrapped = cumulative_trapezoid(gf(g, v)).values
        assert raw.tobytes() == wrapped.tobytes()
        assert np.isnan(raw[3:]).all() and np.isinf(raw[1:3]).all()

    def test_second_order_convergence(self):
        errors = {}
        for m in (64, 128, 256, 512):
            g = Grid(0, 1, m)
            out = cumulative_trapezoid(sample(parse("exp(t)", {"t"}), g))
            errors[m] = abs(out.values[-1] - (math.e - 1.0))
        for m in (64, 128, 256):
            assert 3.5 <= errors[m] / errors[2 * m] <= 4.5


class TestRunningSup:
    def test_identity_on_nondecreasing(self):
        g = Grid(0, 1, 4)
        f = gf(g, [0, 1, 1, 2, 3])
        assert running_sup(f).values.tolist() == f.values.tolist()

    def test_constant(self):
        out = running_sup(constant(2.5, Grid(0, 1, 4)))
        assert (out.values == 2.5).all()

    def test_sine(self):
        g = Grid(0, 2 * math.pi, 1024)
        out = running_sup(sample(parse("sin(t)", {"t"}), g))
        assert out.values[-1] == pytest.approx(1.0, abs=1e-5)
        past_peak = g.nodes >= math.pi / 2
        assert (out.values[past_peak] == out.values[-1]).all()

    @given(st.lists(st.floats(-100, 100), min_size=5, max_size=5))
    def test_idempotent(self, values):
        f = gf(Grid(0, 1, 4), values)
        once = running_sup(f)
        assert running_sup(once).values.tolist() == once.values.tolist()

    @given(
        st.lists(st.floats(-100, 100), min_size=5, max_size=5),
        st.lists(st.floats(0, 10), min_size=5, max_size=5),
    )
    @settings(max_examples=50)
    def test_monotone(self, values, bumps):
        g = Grid(0, 1, 4)
        f = gf(g, values)
        h = gf(g, np.asarray(values) + np.asarray(bumps))
        assert (running_sup(f).values <= running_sup(h).values).all()
