"""Every size argument of the package follows `errors.check_int`'s rule.

A size is an int, not a bool, and at least its least value.  For each
argument in the table, True, 2.0 and least - 1 are refused with
ParameterError before any draw, census, fork or sample starts.
"""

from __future__ import annotations

import pytest

import unimap.experiments
import unimap.parallel
from unimap.core import core_less_M
from unimap.errors import ParameterError
from unimap.expansion import (
    branch_substitution_transfer_check,
    count_subset_volumes,
    wilson_interval,
)
from unimap.experiments import (
    profile_census,
    run_core_expander_experiment,
    verify_branch_profile_law,
    verify_cm_unicellular,
    verify_decomposition_identity,
    verify_one_vertex_law,
    verify_substitution_transfer,
)
from unimap.maps import Multigraph, from_polygon_gluing
from unimap.samplers import (
    DegreeSequence,
    count_one_vertex_maps,
    double_factorial_odd,
    enumerate_pairings,
    sample_pairing,
    sample_polygon_gluing,
    sample_unicellular_fixed_genus,
)
from unimap.series import (
    series_C,
    series_C_closed_form,
    series_D,
    series_D_closed_form,
    series_sqrt_one_minus_4z,
    series_T,
    tail_bound,
)
from unimap.trees import (
    doubly_rooted_count,
    enumerate_plane_trees,
    sample_doubly_rooted_tree,
    sample_dyck_word,
)

from .test_samplers import _UncalledRng


SQUARE = from_polygon_gluing(((0, 2), (1, 3)), 2)
EDGE = Multigraph(2, ((0, 1),))

# (function(argument), least): every other argument is valid
SIZES = {
    "DegreeSequence(degree)": (lambda v: DegreeSequence((3, 3, v)), 3),
    "double_factorial_odd(p)": (double_factorial_odd, 0),
    "count_one_vertex_maps(p)": (count_one_vertex_maps, 1),
    "sample_pairing(n_points)": (lambda v: sample_pairing(v, _UncalledRng()), 2),
    "enumerate_pairings(n_pairs)": (enumerate_pairings, 0),
    "sample_polygon_gluing(n)": (lambda v: sample_polygon_gluing(v, _UncalledRng()), 1),
    "sample_unicellular_fixed_genus(n)": (
        lambda v: sample_unicellular_fixed_genus(v, 0, _UncalledRng()),
        1,
    ),
    "sample_unicellular_fixed_genus(g)": (
        lambda v: sample_unicellular_fixed_genus(4, v, _UncalledRng()),
        0,
    ),
    "sample_dyck_word(n)": (lambda v: sample_dyck_word(v, _UncalledRng()), 0),
    "enumerate_plane_trees(n_edges)": (enumerate_plane_trees, 0),
    "doubly_rooted_count(k)": (doubly_rooted_count, 1),
    "sample_doubly_rooted_tree(k)": (lambda v: sample_doubly_rooted_tree(v, _UncalledRng()), 1),
    "core_less_M(M)": (lambda v: core_less_M(SQUARE, v), 2),
    "series_sqrt_one_minus_4z(order)": (series_sqrt_one_minus_4z, 0),
    "series_T(order)": (series_T, 0),
    "series_D(order)": (series_D, 0),
    "series_C(order)": (series_C, 0),
    "series_D_closed_form(order)": (series_D_closed_form, 0),
    "series_C_closed_form(order)": (series_C_closed_form, 0),
    "tail_bound(k)": (lambda v: tail_bound(0.1, 1.5, v), 0),
    "wilson_interval(trials)": (lambda v: wilson_interval(0, v), 1),
    "branch_substitution_transfer_check(M)": (
        lambda v: branch_substitution_transfer_check(EDGE, v, _UncalledRng()),
        1,
    ),
    "count_subset_volumes(V)": (lambda v: count_subset_volumes((3, 3, 3, 3), v), 1),
    "profile_census(n)": (profile_census, 1),
    "verify_decomposition_identity(n)": (lambda v: verify_decomposition_identity(v, 1), 2),
    "verify_branch_profile_law(g)": (lambda v: verify_branch_profile_law(4, v), 1),
    "verify_one_vertex_law(p)": (lambda v: verify_one_vertex_law((v,)), 2),
    "verify_cm_unicellular(trials)": (
        lambda v: verify_cm_unicellular((3,) * 6, trials=v, seed=1),
        1,
    ),
    "verify_substitution_transfer(instances)": (
        lambda v: verify_substitution_transfer(instances=v),
        1,
    ),
    "verify_substitution_transfer(max_h_vertices)": (
        lambda v: verify_substitution_transfer(max_h_vertices=v),
        2,
    ),
    "verify_substitution_transfer(max_m)": (lambda v: verify_substitution_transfer(max_m=v), 1),
    "run_core_expander_experiment(n)": (
        lambda v: run_core_expander_experiment(0.4, 0.1, (v,), 1, 0),
        1,
    ),
    "run_core_expander_experiment(trials)": (
        lambda v: run_core_expander_experiment(0.4, 0.1, (10,), v, 0),
        1,
    ),
}


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


@pytest.mark.parametrize("bad", ["True", "2.0", "least - 1"])
@pytest.mark.parametrize("argument", sorted(SIZES))
def test_every_size_argument_refuses_a_bool_a_float_and_a_value_below_its_least(
    monkeypatch, argument, bad
):
    for attr in ("profile_census", "min_degree3_census", "sample_pairing"):
        monkeypatch.setattr(unimap.experiments, attr, _no_work)
    monkeypatch.setattr(unimap.parallel, "fork_map", _no_work)
    call, least = SIZES[argument]
    value = {"True": True, "2.0": 2.0, "least - 1": least - 1}[bad]
    with pytest.raises(ParameterError, match=f"must be an int >= {least}, got {value!r}"):
        call(value)
