"""Qualitative behavior of the concurrence across the figure families:
lifetime orderings, revival windows, delayed birth, postponement and
enhancement by the mirror."""

import pytest

from mirroratoms import coefficients as co
from mirroratoms import dynamics as dy
from mirroratoms import entanglement as en

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)


def events(a, wl, yl, alignment, d1, d2, init, horizon=40.0, boundary=True):
    cfg = co.PhysicalConfig.from_ratios(a, wl, yl, alignment, d1=d1, d2=d2)
    gen = dy.build_generator(co.assemble(cfg, include_boundary=boundary))
    traj = en.scan_trajectory(gen, dy.XState.preset(init), horizon)
    return en.analyze_events(traj)


# ---------------------------------------------------------------------
# initially entangled atoms (|S>)
# ---------------------------------------------------------------------

def test_entanglement_lifetime_shrinks_with_acceleration():
    # parallel pair polarized along the acceleration at y/L = 1/2
    slow = events(0.1, 1.0, 0.5, "parallel", X, X, "S", horizon=20.0)
    mid = events(0.5, 1.0, 0.5, "parallel", X, X, "S", horizon=20.0)
    fast = events(1.0, 1.0, 0.5, "parallel", X, X, "S", horizon=20.0)
    assert slow.death_times == ()  # outlives the scan
    assert mid.death_times and fast.death_times
    assert fast.death_times[0] < mid.death_times[0]


def test_decay_slows_near_mirror_for_tangential_dipoles():
    # x-polarized parallel pair: closer mirror, later sudden death
    near = events(0.5, 1.0, 0.1, "parallel", X, X, "S", horizon=30.0)
    mid = events(0.5, 1.0, 0.7, "parallel", X, X, "S", horizon=30.0)
    far = events(0.5, 1.0, 1.2, "parallel", X, X, "S", horizon=30.0)
    assert near.death_times == ()  # outlives the scan entirely
    assert mid.death_times[0] > far.death_times[0]


def test_decay_speeds_up_near_mirror_for_normal_dipoles():
    # y-polarized parallel pair: the trend reverses
    deaths = [events(0.5, 1.0, yl, "parallel", Y, Y, "S",
                     horizon=30.0).death_times[0]
              for yl in (0.1, 0.7, 1.2)]
    assert deaths[0] < deaths[1] < deaths[2]


def test_revival_window_for_acceleration_normal_pair():
    # one dipole along the acceleration, the other along the mirror normal:
    # inertial atoms never revive, moderate acceleration does, large kills it
    assert not events(0.0, 1.0, 0.5, "parallel", X, Y, "S").revival_intervals
    assert not events(0.1, 1.0, 0.5, "parallel", X, Y, "S").revival_intervals
    assert events(0.5, 1.0, 0.5, "parallel", X, Y, "S").revival_intervals
    assert not events(2.0, 1.0, 0.5, "parallel", X, Y, "S").revival_intervals


def test_acceleration_normal_pair_is_assignment_symmetric():
    # the xy coupling is a symmetric tensor component, so swapping which
    # atom carries which dipole changes nothing
    e1 = events(0.5, 1.0, 0.5, "parallel", X, Y, "S")
    e2 = events(0.5, 1.0, 0.5, "parallel", Y, X, "S")
    assert e1.death_times == pytest.approx(e2.death_times, abs=1e-9)
    assert e1.max_c == pytest.approx(e2.max_c, abs=1e-12)


def test_acceleration_separation_pair_never_revives():
    for yl in (0.3, 0.5, 1.0):
        for a in (0.1, 0.5, 1.0, 1.5):
            ev = events(a, 1.0, yl, "parallel", X, Z, "S")
            assert not ev.revival_intervals


def test_separation_normal_pair_has_a_revival_window():
    assert events(0.6, 1.0, 0.5, "parallel", Z, Y, "S").revival_intervals
    assert not events(0.1, 1.0, 0.5, "parallel", Z, Y, "S").revival_intervals


def test_inertial_cross_polarized_atoms_never_revive():
    for alignment in ("parallel", "vertical"):
        ev = events(0.0, 1.0, 0.5, alignment, X, Y, "S")
        assert not ev.revival_intervals


# ---------------------------------------------------------------------
# initially separable atoms (|E>)
# ---------------------------------------------------------------------

def test_delayed_birth_for_inertial_identical_dipoles():
    e_par = events(0.0, 1.0, 0.5, "parallel", X, X, "E")
    e_ver = events(0.0, 1.0, 0.5, "vertical", X, X, "E")
    assert e_par.birth_times and e_par.birth_times[0] > 1.0
    assert e_ver.birth_times and e_ver.birth_times[0] > 1.0


def test_no_generation_at_large_acceleration():
    e = events(2.0, 1.0, 0.5, "parallel", X, X, "E")
    assert e.birth_times == ()
    assert e.max_c <= 1e-10


def test_mirror_postpones_birth_for_tangential_parallel_pair():
    # x-polarized parallel pair, initial |E>: the closer the mirror, the
    # later the birth, while the generated maximum barely changes
    free = events(0.5, 2.0 / 3.0, 0.3, "parallel", X, X, "E",
                  horizon=60.0, boundary=False)
    b = {yl: events(0.5, 2.0 / 3.0, yl, "parallel", X, X, "E", horizon=60.0)
         for yl in (0.3, 0.7, 1.2)}
    assert free.birth_times[0] < b[1.2].birth_times[0] \
        < b[0.7].birth_times[0] < b[0.3].birth_times[0]
    assert b[0.3].max_c > 0.5 * free.max_c


def test_mirror_enhances_generated_entanglement_for_vertical_pair():
    close = events(0.5, 2.0 / 3.0, 0.3, "vertical", X, X, "E")
    far = events(0.5, 2.0 / 3.0, 1.2, "vertical", X, X, "E")
    free = events(0.5, 2.0 / 3.0, 0.3, "vertical", X, X, "E",
                  boundary=False)
    assert close.max_c > far.max_c > free.max_c
    assert close.max_c > 10.0 * free.max_c


def test_birth_advances_and_weakens_with_acceleration_near_mirror():
    # normal dipoles pressed against a parallel mirror, initial |E>
    runs = {a: events(a, 1.0, 0.01, "parallel", Y, Y, "E")
            for a in (0.5, 0.8, 1.2)}
    assert (runs[0.5].birth_times[0] > runs[0.8].birth_times[0]
            > runs[1.2].birth_times[0])
    assert runs[0.5].max_c > runs[0.8].max_c > runs[1.2].max_c


def test_mirror_does_not_change_maximum_for_normal_parallel_pair():
    # rates exactly double at the mirror, so the evolution is a pure time
    # rescaling and the maximal concurrence is untouched
    for a in (0.3, 0.8):
        mirror = events(a, 1.0, 0.01, "parallel", Y, Y, "E")
        free = events(a, 1.0, 0.01, "parallel", Y, Y, "E", boundary=False)
        assert mirror.max_c == pytest.approx(free.max_c, abs=1e-5)


def test_excited_start_is_assignment_independent():
    # |E> is invariant under local phases, so for any dipole pair the
    # labeling of the atoms cannot matter
    e1 = events(0.5, 1.0, 0.5, "parallel", X, Z, "E")
    e2 = events(0.5, 1.0, 0.5, "parallel", Z, X, "E")
    assert e1.max_c == pytest.approx(e2.max_c, abs=1e-12)
    assert e1.birth_times == pytest.approx(e2.birth_times, abs=1e-9)
