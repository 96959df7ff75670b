from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from unimap.errors import GenusError, MalformedGraphError, MalformedMapError
from unimap.maps import (
    CombinatorialMap,
    Multigraph,
    decode_map,
    encode_map,
    face_tour,
    from_face_word,
    from_polygon_gluing,
    genus,
    parse_multigraph,
    underlying_graph,
    vertex_degrees,
)
from unimap.samplers import sample_configuration_model, sample_pairing, sample_polygon_gluing

from .oracles import (
    _cycle_lengths,
    all_matchings,
    corner_genus,
    face_order_form,
    polygon_map,
    relabel,
    write_multigraph,
)

SQUARE = from_polygon_gluing(((0, 2), (1, 3)), 2)
# one vertex with three loops and two faces, on the torus
TWO_FACES = CombinatorialMap((1, 0, 4, 5, 2, 3), (1, 2, 3, 4, 5, 0), 0)
# two disjoint edges: sigma fixes every dart, so four vertices of degree 1
TWO_EDGES = CombinatorialMap((1, 0, 3, 2), (0, 1, 2, 3), 0)
# one loop on the sphere: one vertex, two faces
PLANE_LOOP = CombinatorialMap((1, 0), (1, 0), 0)
HAND_MAPS = (SQUARE, TWO_FACES, TWO_EDGES, PLANE_LOOP)


def random_gluings(seed: int, count: int, n_lo: int = 1, n_hi: int = 12):
    rng = random.Random(seed)
    for _ in range(count):
        yield sample_polygon_gluing(rng.randint(n_lo, n_hi), rng)


def test_square_is_the_torus_map():
    assert SQUARE.n_vertices() == 1
    assert SQUARE.n_faces() == 1
    assert SQUARE.n_edges == 2
    assert genus(SQUARE) == 1


def test_malformed_inputs_rejected():
    with pytest.raises(MalformedMapError):
        CombinatorialMap((1, 0, 3, 3), (1, 2, 3, 0), 0)  # alpha not involution
    with pytest.raises(MalformedMapError):
        CombinatorialMap((0, 1, 3, 2), (1, 0, 3, 2), 0)  # alpha has fixed points
    with pytest.raises(MalformedMapError):
        CombinatorialMap((1, 0, 3, 2), (1, 2, 3, 0), 7)  # root out of range
    with pytest.raises(MalformedMapError):
        CombinatorialMap((1, 0, 2), (0, 1, 2), 0)  # odd dart count
    with pytest.raises(MalformedMapError):
        CombinatorialMap((1, 0), (1, 2, 0), 0)  # sigma longer than alpha
    with pytest.raises(MalformedMapError):
        CombinatorialMap((1, 0, 3, 2), (1, 0, 1, 2), 0)  # sigma not a permutation


@pytest.mark.parametrize(
    "alpha, sigma, root",
    [((1, 0), (0, 1.0), 0), ((1, 0), (0, 1), 1.0), ((1, 0), (0, 1), True), ((1.0, 0), (0, 1), 0)],
    ids=repr,
)
def test_map_fields_must_be_ints(alpha, sigma, root):
    # a float equal to a dart passes every range test, and face_tour used
    # to raise TypeError on it later; a float alpha entry raised TypeError
    with pytest.raises(MalformedMapError, match="must hold ints"):
        CombinatorialMap(alpha, sigma, root)


@pytest.mark.parametrize(
    "n_vertices, edges",
    [
        (2, ((0, 1.0),)),
        (2.0, ((0, 1),)),
        (True, ()),  # True would pass for 1
        (0, ()),
        (2, ((True, 0),)),  # would equal the graph with edge (0, 1)
        (2, ((0, False),)),
        (2, ((0, 1, 2),)),  # not a pair
        (2, ((0,),)),
    ],
    ids=repr,
)
def test_multigraph_refuses_non_int_vertices(n_vertices, edges):
    with pytest.raises(MalformedGraphError, match="vertices must be ints"):
        Multigraph(n_vertices, edges)


@pytest.mark.parametrize(
    "pairing, n",
    [
        (((0, 5),), 1),  # side past the polygon
        (((0, 1),), -1),  # negative n
        (((0, 1, 2),), 1),  # not a pair
        (((0, 1), (1, 0)), 1),  # more pairs than sides allow
        (((0, 1), (2, 3), (0, 1)), 2),  # a pair given twice
        (((0, 0), (1, 2)), 2),  # a side glued to itself
        (((0, -2), (1, 3)), 2),  # negative side
        ((), 0),  # no polygon
        (((0, -1), (1, 2)), 2),  # side -1, which Python reads as side 3
        (((0, 1), (3, 3)), 2),  # the last side glued to itself
    ],
)
def test_malformed_pairings_rejected(pairing, n):
    with pytest.raises(MalformedMapError):
        from_polygon_gluing(pairing, n)


def _gluings_to_check():
    for n in range(1, 7):
        for pairing in all_matchings(tuple(range(2 * n))):
            yield pairing, n
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 1000)
        yield sample_pairing(2 * n, rng), n


def test_gluing_equals_the_checked_map():
    # from_polygon_gluing skips CombinatorialMap's checks; the checking
    # constructor must accept and agree with every map it builds
    for pairing, n in _gluings_to_check():
        m, checked = from_polygon_gluing(pairing, n), polygon_map(pairing, n)
        assert m == checked
        assert hash(m) == hash(checked)


def test_face_word_builds_the_face_order_form():
    # every one-face map with n <= 6 edges, its darts renamed at random:
    # the face tour and alpha give back the polygon-gluing labelling
    rng = random.Random(31)
    for n in range(1, 7):
        for pairing in all_matchings(tuple(range(2 * n))):
            m = relabel(polygon_map(pairing, n), rng)
            assert from_face_word(face_tour(m), m.alpha) == face_order_form(m)


def test_face_word_reads_only_the_darts_of_the_face():
    # darts 1 and 4 are left out, and their partner entries never read
    assert from_face_word([5, 0, 2, 3], [3, None, 5, 0, "x", 2]) == SQUARE


@pytest.mark.parametrize(
    "face, partner",
    [
        ([0, 1, 2], [1, 0, 2]),  # odd length
        ([], []),  # no dart
        ([0], [0]),  # one dart
        ([0, 2], [1, 0, 3, 2]),  # skips darts 1 and 3, the partners of 0 and 2
        ([0, 1, 2, 2], [1, 0, 3, 2]),  # repeats dart 2 and skips its partner 3
        ([0, 1, 0, 1], [1, 0]),  # repeats both darts of an edge
        ([0, 1, 2, 3], [1, 2, 3, 0]),  # partner not an involution
        # the next two glue a valid square from their places, which only
        # the comparison of its alpha with the places' mates refuses
        ([0, 1, 2, 3], [1, 0, 3, 1]),  # 3's partner is 1, whose partner is 0
        ([0, 0, 1, 1], [0, 1]),  # each dart met twice and its own partner
        ([0, 1, 2, 3], [0, 1, 3, 2]),  # darts 0 and 1 their own partners
        ([0, 1, 2, 3], [1, 0, 3, 5]),  # partner past the darts
        ([0, 1, 2, -1], [1, 0, 3, 2]),  # dart -1, which Python reads as dart 3
        ([0, 1, 2, 3], [1, 0, -1, 2]),  # partner -1, which Python reads as 3
        ([0, 1, 2, 3], [1, 0, 3.0, 2]),  # a float partner
        ([0, 1.0], [1, 0]),  # a float dart
        ([0, 1], None),  # no partner table
    ],
    ids=repr,
)
def test_malformed_face_words_rejected(face, partner):
    with pytest.raises(MalformedMapError):
        from_face_word(face, partner)


def test_gluing_sets_every_field():
    # a gluing is built field by field, so a new field must be set there too
    assert [f.name for f in dataclasses.fields(CombinatorialMap)] == ["alpha", "sigma", "root"]
    assert vars(SQUARE) == vars(CombinatorialMap(SQUARE.alpha, SQUARE.sigma, SQUARE.root))


def test_genus_agrees_with_corner_walk_oracle():
    for m in random_gluings(seed=101, count=300):
        assert genus(m) == corner_genus(m)


def test_genus_requires_connected():
    # two disjoint edges on one "map": not a single surface
    with pytest.raises(GenusError):
        genus(TWO_EDGES)


def test_face_tour_covers_polygon_in_order():
    assert list(face_tour(SQUARE)) == [0, 1, 2, 3]
    m = sample_polygon_gluing(9, random.Random(3))
    assert list(face_tour(m)) == list(range(18))
    with pytest.raises(MalformedMapError):
        face_tour(TWO_FACES)


def test_encode_decode_round_trip():
    for m in random_gluings(seed=7, count=50):
        assert decode_map(encode_map(m)) == m
    with pytest.raises(MalformedMapError):
        decode_map("{not json")
    with pytest.raises(MalformedMapError):
        decode_map('{"n_darts": 2}')


def test_maps_with_bool_darts_round_trip():
    # Python counts bools as ints, so a gluing, which skips the map checks,
    # takes bool sides; the encoding writes them as JSON integers, which
    # decode_map accepts.  CombinatorialMap refuses bool darts and roots.
    glued = from_polygon_gluing(((False, True),), 1)
    text = encode_map(glued)
    assert "true" not in text and "false" not in text
    assert decode_map(text) == glued
    with pytest.raises(MalformedMapError, match="must hold ints"):
        CombinatorialMap((True, False), (0, 1), False)


def test_decode_map_rejects_a_dart_count_that_disagrees_with_alpha():
    text = encode_map(SQUARE)
    assert json.loads(text)["n_darts"] == 4
    for wrong in (2, 6, 0, -4):
        with pytest.raises(MalformedMapError, match="n_darts"):
            decode_map(text.replace('"n_darts":4', f'"n_darts":{wrong}'))


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha", [1.7, 0.2]),
        ("alpha", ["1", 0]),
        ("alpha", [True, False]),
        ("alpha", "10"),
        ("sigma", [1.0, 0]),
        ("sigma", [True, 0]),
        ("n_darts", 2.5),
        ("n_darts", "2"),
        ("n_darts", True),
        ("root", 0.9),
        ("root", "0"),
        ("root", False),
        ("root", None),
    ],
)
def test_decode_map_requires_json_integers(field, value):
    obj = {"n_darts": 2, "alpha": [1, 0], "sigma": [1, 0], "root": 0}
    assert decode_map(json.dumps(obj)) == CombinatorialMap((1, 0), (1, 0), 0)
    obj[field] = value
    with pytest.raises(MalformedMapError):
        decode_map(json.dumps(obj))


def test_face_order_form_is_identity_on_gluings():
    # polygon gluings already carry the face-order labelling
    for m in random_gluings(seed=13, count=40):
        assert face_order_form(m) == m


def test_vertex_degrees_sum_to_dart_count():
    for m in random_gluings(seed=31, count=50):
        degs = vertex_degrees(m)
        assert sum(degs) == m.n_darts
        assert degs == tuple(sorted(degs))


def test_underlying_graph_degrees_match():
    for m in random_gluings(seed=37, count=50):
        g, dart_vertex = underlying_graph(m)
        assert g.n_edges == m.n_edges
        assert tuple(sorted(g.degrees)) == vertex_degrees(m)
        assert len(dart_vertex) == m.n_darts


def _oracle_maps():
    for n in range(1, 6):
        for pairing in all_matchings(tuple(range(2 * n))):
            yield from_polygon_gluing(pairing, n)
    rng = random.Random(41)
    for _ in range(200):
        degrees = [rng.randint(3, 6) for _ in range(rng.randint(1, 6))]
        if sum(degrees) % 2:
            degrees[0] += 1
        yield sample_configuration_model(degrees, rng)
    yield from HAND_MAPS


def _dart_orbit_count(m: CombinatorialMap) -> int:
    """Components of the map: orbits of the darts under sigma and alpha."""
    seen, count = set(), 0
    for start in range(m.n_darts):
        if start in seen:
            continue
        count += 1
        todo = [start]
        while todo:
            d = todo.pop()
            if d not in seen:
                seen.add(d)
                todo += [m.sigma[d], m.alpha[d]]
    return count


def test_cycle_counts_and_dart_table_match_the_oracle():
    faces_seen, components_seen = set(), set()
    for m in _oracle_maps():
        vertex_lengths = _cycle_lengths(m.sigma)
        face_lengths = _cycle_lengths(tuple(m.sigma[m.alpha[d]] for d in range(m.n_darts)))
        assert m.n_vertices() == len(vertex_lengths)
        assert m.n_faces() == len(face_lengths)
        assert vertex_degrees(m) == tuple(sorted(vertex_lengths))
        components = _dart_orbit_count(m)
        if components == 1:
            assert genus(m) == corner_genus(m)
        # a dart's vertex is its sigma orbit; orbits are numbered in order
        # of first appearance along the darts
        number: dict[frozenset, int] = {}
        dart_vertex = []
        for d in range(m.n_darts):
            orbit, e = {d}, m.sigma[d]
            while e != d:
                orbit.add(e)
                e = m.sigma[e]
            dart_vertex.append(number.setdefault(frozenset(orbit), len(number)))
        edges = tuple(
            (dart_vertex[d], dart_vertex[a]) for d, a in enumerate(m.alpha) if d < a
        )
        assert underlying_graph(m) == (Multigraph(len(number), edges), tuple(dart_vertex))
        faces_seen.add(len(face_lengths))
        components_seen.add(components)
    # the families reach maps with several faces and several components
    assert max(faces_seen) >= 3 and max(components_seen) >= 2


def test_multigraph_conventions():
    g = Multigraph(3, ((1, 0), (2, 2), (0, 1)))
    assert g.edges == ((0, 1), (2, 2), (0, 1))  # endpoints normalized, order kept
    assert g.degrees == (2, 2, 2)  # the loop counts twice at vertex 2


def test_multigraph_text_round_trip():
    g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (1, 1)))
    assert parse_multigraph(write_multigraph(g)) == g
    with pytest.raises(ValueError):
        parse_multigraph("0 1\n")
    with pytest.raises(ValueError):
        parse_multigraph("p mg 2 3\n0 1\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_euler_formula_property(n, rng):
    m = from_polygon_gluing(sample_pairing(2 * n, rng), n)
    g = genus(m)
    assert m.n_vertices() - m.n_edges + m.n_faces() == 2 - 2 * g
    assert m.n_faces() == 1
    assert 0 <= 2 * g <= n
