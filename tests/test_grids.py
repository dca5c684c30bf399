import numpy as np
import pytest

from collapselab.errors import ConfigError, OutOfGrid
from collapselab.grids import TimeGrid, Window


def test_grid_nodes_and_times():
    g = TimeGrid(0.0, 1.0, 0.25)
    assert g.steps == 4
    assert g.n_nodes == 5
    assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_rejects_bad_intervals():
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 1.0, 0.1)
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 1.0, -0.1)
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 1.0, 0.3)
    for t0, t1, dt in ((0.0, np.inf, 0.1), (0.0, 1.0, np.inf),
                       (np.nan, 1.0, 0.1), (-np.inf, 1.0, 0.1),
                       (-1e308, 1e308, 0.1)):
        with pytest.raises(ConfigError):
            TimeGrid(t0, t1, dt)


def test_node_index_roundtrip():
    g = TimeGrid(0.0, 2.0, 0.125)
    for i, t in enumerate(g.times):
        assert g.node_index(float(t)) == i
    with pytest.raises(OutOfGrid):
        g.node_index(0.1)
    with pytest.raises(OutOfGrid):
        g.node_index(2.125)


def test_refined_grid():
    g = TimeGrid(0.0, 1.0, 0.25)
    h = g.refined(4)
    assert h.dt == 0.0625
    assert h.n_nodes == 4 * g.steps + 1
    with pytest.raises(ConfigError):
        g.refined(0)


def test_flat_window_is_one_everywhere():
    w = Window.flat()
    t = np.linspace(-5.0, 5.0, 11)
    assert np.all(w(t) == 1.0)


def test_window_plateau_and_support():
    w = Window(t_on=1.0, t_off=3.0, ramp=0.5)
    assert w(0.5) == 0.0
    assert w(3.5) == 0.0
    assert w(2.0) == 1.0
    # cos^2 ramps pass through one half at the ramp midpoint
    assert abs(w(1.25) - 0.5) < 1e-12
    assert abs(w(2.75) - 0.5) < 1e-12
    vals = w(np.linspace(0.0, 4.0, 401))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_window_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        Window(t_on=0.0, t_off=1.0, ramp=0.6)
    with pytest.raises(ConfigError):
        Window(t_on=0.0, t_off=1.0, ramp=-0.1)
    for bad in (np.nan, np.inf, -np.inf):
        for kwargs in ({"t_on": bad, "t_off": 1.0, "ramp": 0.1},
                       {"t_on": 0.0, "t_off": bad, "ramp": 0.1},
                       {"t_on": 0.0, "t_off": 1.0, "ramp": bad}):
            with pytest.raises(ConfigError):
                Window(**kwargs)


def test_window_vanishes_near_ends():
    g = TimeGrid(0.0, 4.0, 0.25)
    assert Window(t_on=1.0, t_off=3.0, ramp=0.5).vanishes_near_ends(g, 1.0)
    assert not Window(t_on=0.5, t_off=3.0, ramp=0.5).vanishes_near_ends(g, 1.0)
    assert not Window.flat().vanishes_near_ends(g, 1.0)
