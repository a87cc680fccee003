import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceholes.geometry import (
    Disk, Interval, MeshResolutionError, Rectangle, ThinRectangle,
    generate_mesh, hole_arcs, hole_from_facets, make_hole_from_arc,
    symmetry_generators,
)

from oracles import (
    boundary_measure, cell_volumes, disk_mesh_loops, hole_arcs_loop,
    hole_from_facets_by_loop, inscribed_polygon_perimeter, mesh_to_json,
    rectangle_mesh_loops,
)


def edge_multiplicities(mesh):
    counts = {}
    for tri in mesh.cells:
        pairs = [(0, 1), (1, 2), (2, 0)] if mesh.dim == 2 else [(0, 1)]
        for a, b in pairs:
            key = frozenset((int(tri[a]), int(tri[b])))
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_interval_mesh_example():
    mesh = generate_mesh(Interval(0, 1), 0.25)
    assert mesh.n_cells == 4
    assert mesh.n_facets == 2
    # point-mass convention: each endpoint carries measure 1
    assert mesh.facet_lengths.tolist() == [1.0, 1.0]
    assert mesh.facet_arclength.tolist() == [0.0, 1.0]
    assert mesh.perimeter == 2.0
    assert mesh.vertices[mesh.boundary[0, 0], 0] == 0.0
    assert mesh.vertices[mesh.boundary[1, 0], 0] == 1.0


def test_rectangle_boundary_measure_exact():
    mesh = generate_mesh(Rectangle(1, 1), 0.5)
    assert mesh.perimeter == pytest.approx(4.0, abs=0)
    assert np.all(cell_volumes(mesh) > 0)


def test_disk_perimeter_inscribed_polygon():
    mesh = generate_mesh(Disk(1), 0.1)
    n = mesh.n_facets
    # oracle: perimeter of the inscribed n-gon
    expected = inscribed_polygon_perimeter(n)
    assert mesh.perimeter == pytest.approx(expected, rel=1e-12)
    assert abs(mesh.perimeter - 2 * np.pi) / (2 * np.pi) < 0.01


def test_disk_mesh_is_conforming_and_oriented():
    mesh = generate_mesh(Disk(1), 0.2)
    assert np.all(cell_volumes(mesh) > 0)
    counts = edge_multiplicities(mesh)
    assert max(counts.values()) == 2
    for row in mesh.boundary:
        assert counts[frozenset(int(v) for v in row)] == 1
    # boundary vertices lie exactly on the circle
    bv = mesh.boundary_vertex_indices()
    assert np.allclose(np.hypot(*mesh.vertices[bv].T), 1.0, atol=1e-14)


def test_thin_rectangle_has_two_layers():
    mesh = generate_mesh(ThinRectangle(0, 1, 0.05), 0.1)
    nx, ny = mesh.meta["grid"]
    assert ny >= 2
    assert mesh.perimeter == pytest.approx(2.0 + 2 * 0.05, rel=1e-12)


def test_resolution_too_coarse_rejected():
    with pytest.raises(MeshResolutionError):
        generate_mesh(Disk(1), 10.0)
    with pytest.raises(MeshResolutionError):
        generate_mesh(Interval(0, 1), 1.0)
    with pytest.raises(MeshResolutionError):
        generate_mesh(Rectangle(1, 1), 5.0)


def test_refinement_doubles_boundary_facets():
    coarse = generate_mesh(Disk(1), 0.2)
    fine = generate_mesh(Disk(1), 0.1)
    assert fine.n_facets >= 2 * coarse.n_facets
    err_c = 2 * np.pi - coarse.perimeter
    err_f = 2 * np.pi - fine.perimeter
    # inscribed-polygon defect scales with resolution^2
    assert err_c / err_f == pytest.approx(4.0, rel=0.15)


def test_hole_from_arc_disk_half_circle():
    mesh = generate_mesh(Disk(1), 0.1)
    hole = make_hole_from_arc(mesh, 0.0, np.pi)
    assert abs(hole.measure - np.pi) <= mesh.facet_lengths.max()


def test_hole_from_arc_interval_endpoint():
    mesh = generate_mesh(Interval(0, 1), 0.25)
    hole = make_hole_from_arc(mesh, 0.0, 1.0)
    assert hole.facet_indices == frozenset({0})
    assert hole.measure == 1.0


def test_hole_from_arc_rectangle_walk():
    mesh = generate_mesh(Rectangle(1, 1), 0.25)
    hole = make_hole_from_arc(mesh, 0.0, 2.0)
    # bottom edge then right edge, i.e. facets 0..7 of the ccw walk
    assert hole.facet_indices == frozenset(range(8))
    assert hole.measure == pytest.approx(2.0, abs=0)


def test_arc_wraparound():
    mesh = generate_mesh(Disk(1), 0.2)
    P = mesh.perimeter
    hole = make_hole_from_arc(mesh, P - mesh.facet_lengths[0], 2 * mesh.facet_lengths[0])
    assert mesh.n_facets - 1 in hole.facet_indices
    assert 0 in hole.facet_indices


def test_arc_errors():
    mesh = generate_mesh(Disk(1), 0.2)
    with pytest.raises(ValueError):
        make_hole_from_arc(mesh, 0.0, -0.1)
    with pytest.raises(ValueError):
        make_hole_from_arc(mesh, 0.0, mesh.perimeter * 1.01)


def test_boundary_measure_empty_full_complement():
    mesh = generate_mesh(Rectangle(1, 1), 0.25)
    empty = hole_from_facets(mesh, [])
    full = hole_from_facets(mesh, range(mesh.n_facets))
    assert boundary_measure(mesh, empty) == 0.0
    assert boundary_measure(mesh, full) == mesh.perimeter
    some = hole_from_facets(mesh, range(5))
    comp = hole_from_facets(mesh, set(range(mesh.n_facets)) - set(range(5)))
    # dyadic facet lengths make finite additivity exact in floating point
    assert boundary_measure(mesh, some) + boundary_measure(mesh, comp) \
        == mesh.perimeter


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 15)), st.sets(st.integers(0, 15)))
def test_measure_additivity(ids_a, ids_b):
    mesh = generate_mesh(Rectangle(1, 1), 0.25)  # 16 facets of length 1/4
    a = hole_from_facets(mesh, ids_a)
    b = hole_from_facets(mesh, ids_b)
    union = hole_from_facets(mesh, ids_a | ids_b)
    inter = hole_from_facets(mesh, ids_a & ids_b)
    assert union.measure + inter.measure == a.measure + b.measure


_HOLE_MESHES = (generate_mesh(Disk(1), 0.15), generate_mesh(Rectangle(2, 1), 0.25),
                generate_mesh(Interval(0, 1), 0.25))
_CONTAINERS = {
    "list": list, "set": set, "frozenset": frozenset,
    "int32": lambda ids: np.array(ids, dtype=np.int32),
    "int64": lambda ids: np.array(ids, dtype=np.int64),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(_HOLE_MESHES))),
       st.sampled_from(sorted(_CONTAINERS)), st.data())
def test_hole_from_facets_matches_the_per_facet_construction(which, kind, data):
    # the array construction gives the same set and, bit for bit, the same
    # measure as the per-facet one, and rejects the same indices, for every
    # container a caller hands it, the empty hole included
    mesh = _HOLE_MESHES[which]
    ids = data.draw(st.lists(st.integers(-3, mesh.n_facets + 2), max_size=30)
                    | st.lists(st.integers(0, mesh.n_facets - 1), max_size=30))
    try:
        want = hole_from_facets_by_loop(mesh, _CONTAINERS[kind](ids))
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            hole_from_facets(mesh, _CONTAINERS[kind](ids))
        return
    got = hole_from_facets(mesh, _CONTAINERS[kind](ids))
    assert got.facet_indices == want.facet_indices
    assert all(type(i) is int for i in got.facet_indices)
    assert np.float64(got.measure).tobytes() == np.float64(want.measure).tobytes()
    if not ids:
        assert got.facet_indices == frozenset() and got.measure == 0.0


def test_arc_snapping_invariant():
    mesh = generate_mesh(Disk(1), 0.15)
    rng = np.random.default_rng(42)
    fmax = mesh.facet_lengths.max()
    for _ in range(50):
        start = rng.uniform(0, mesh.perimeter)
        length = rng.uniform(0, mesh.perimeter)
        hole = make_hole_from_arc(mesh, start, length)
        assert abs(hole.measure - length) <= fmax + 1e-12


def test_arc_exactly_aligned_roundtrip():
    mesh = generate_mesh(Disk(1), 0.2)
    for first, count in [(0, 5), (7, 3), (25, 10)]:
        facets = frozenset((first + k) % mesh.n_facets for k in range(count))
        hole = hole_from_facets(mesh, facets)
        arcs = hole_arcs(mesh, hole)
        assert len(arcs) == 1
        start = mesh.facet_arclength[first]
        rebuilt = make_hole_from_arc(mesh, start, hole.measure)
        assert rebuilt.facet_indices == facets


@pytest.mark.parametrize("resolution", [0.5, 0.2, 0.1])
def test_hole_arcs_match_facet_walk(resolution):
    mesh = generate_mesh(Disk(1), resolution)
    nf = mesh.n_facets
    rng = np.random.default_rng(5)
    holes = [set(), set(range(nf)), set(range(nf)) - {4},  # empty, (nearly) full
             {nf - 2, nf - 1, 0, 1}, {0, nf - 1}, {nf - 1, 0, 3},  # wrap
             set(range(3, 9)), {0}, {nf - 1}, set(range(nf - 5)),   # runs
             set(range(0, nf, 2)), set(range(1, nf, 3))]            # scattered
    holes += [set(np.flatnonzero(rng.random(nf) < f).tolist())
              for f in (0.2, 0.5, 0.8) for _ in range(4)]
    for facets in holes:
        hole = hole_from_facets(mesh, facets)
        arcs = hole_arcs(mesh, hole)
        assert arcs == hole_arcs_loop(mesh, hole)
        assert all(type(v) is int for arc in arcs for v in arc)


@pytest.mark.parametrize("domain,resolution", [
    (Rectangle(2, 1), 0.1), (Rectangle(1, 1), 0.1), (Rectangle(1, 1), 1.0),
    (ThinRectangle(0, 1, 1 / 16), 1 / 64),
    (ThinRectangle(0, 1, 1 / 64), 1 / 256),
    (Disk(1), 1.0), (Disk(1), 0.5), (Disk(1), 0.2), (Disk(1), 0.05),
    (Disk(1.3), 0.34)])
def test_mesh_matches_loop_construction(domain, resolution):
    mesh = generate_mesh(domain, resolution)
    if "rings" in mesh.meta:
        vertices, cells, boundary, arclength = disk_mesh_loops(mesh)
        pairs = [(mesh.vertices, vertices)]
    else:
        cells, boundary, arclength = rectangle_mesh_loops(mesh)
        pairs = []
    pairs += [(mesh.cells, cells), (mesh.boundary, boundary),
              (mesh.facet_arclength, arclength)]
    for built, reference in pairs:
        assert built.dtype == reference.dtype
        assert np.array_equal(built, reference)


def test_hole_vertices_and_invalid_facets():
    mesh = generate_mesh(Rectangle(1, 1), 0.5)
    hole = hole_from_facets(mesh, [0, 1])
    assert hole.vertex_indices(mesh).size == 3
    with pytest.raises(ValueError):
        hole_from_facets(mesh, [999])


def test_mesh_immutable_and_json():
    mesh = generate_mesh(Rectangle(1, 1), 0.5)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    for derived in (generate_mesh(Interval(0, 1), 0.25),
                    generate_mesh(Disk(1), 0.5)):
        for arr in (derived.facet_lengths, derived.facet_arclength):
            with pytest.raises(ValueError):
                arr[0] = 5.0
    blob = mesh_to_json(mesh)
    assert set(blob) == {"vertices", "cells", "boundary"}
    assert len(blob["vertices"]) == mesh.n_vertices


def _isometries(mesh):
    """The maps the generators stand for, from the mesh coordinates: the
    disk's rotation by 60 degrees and flip y -> -y, a rectangle's rotation
    by 180 degrees about its centre and, on a square, the flip across the
    diagonal x = y."""
    if isinstance(mesh.domain, Disk):
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        return [lambda x: x @ np.array([[c, s], [-s, c]]),
                lambda x: x * np.array([1.0, -1.0])]
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    centre = 0.5 * (lo + hi)
    maps = [lambda x: 2.0 * centre - x]
    if np.ptp(hi - lo) == 0:
        maps.append(lambda x: (x - lo)[:, ::-1] + lo)
    return maps


@pytest.mark.parametrize("domain,resolution", [
    (Disk(1), 0.2), (Disk(1), 0.1), (Disk(1), 0.05), (Rectangle(2, 1), 0.1),
    (ThinRectangle(0, 1, 1 / 16), 1 / 64),
    (ThinRectangle(0, 1, 1 / 64), 1 / 256),
    (Rectangle(1, 1), 0.1), (Rectangle(2, 2), 0.25)])
def test_symmetry_generators_are_mesh_isometries(domain, resolution):
    mesh = generate_mesh(domain, resolution)
    generators = symmetry_generators(mesh)
    maps = _isometries(mesh)
    assert len(generators) == len(maps)
    cells = {frozenset(c) for c in mesh.cells.tolist()}
    for perm, isometry in zip(generators, maps):
        image = isometry(mesh.vertices)
        dist = np.linalg.norm(image[:, None, :] - mesh.vertices[None], axis=2)
        vmap = dist.argmin(axis=1)
        assert dist[np.arange(mesh.n_vertices), vmap].max() <= 1e-14
        assert np.unique(vmap).size == mesh.n_vertices
        assert {frozenset(c) for c in vmap[mesh.cells].tolist()} == cells
        assert sorted(perm.tolist()) == list(range(mesh.n_facets))
        for k, facet in enumerate(mesh.boundary.tolist()):
            assert set(vmap[facet]) == set(mesh.boundary[perm[k]].tolist())


def test_meshes_without_symmetry_generators():
    assert symmetry_generators(generate_mesh(Interval(0, 1), 0.25)) == []
