"""Memory bounds of the mesh pipeline, traced with tracemalloc.

NumPy reports its array buffers to tracemalloc, and allocation sizes do not
depend on timing, so these bounds are deterministic.  The cap is the
kappa = -1 cap of the mesh-refine benchmark at s = rho sqrt(c) = 1.25.
"""

import math
import tracemalloc

from cmcradius import discrete, mesh as mm, numtext

CAP = (-1.0, 2.7, 1.25 / math.sqrt(6.29))  # kappa, H, rho, with c = kappa + H^2 = 6.29
KEPT = ("vertices", "faces", "edges", "by_hi", "boundary", "interior", "edge_lengths", "face_edges")


def _traced_peak(fn):
    """fn's result and the peak, in bytes, of the memory traced while it ran above that at its start."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_cap_build_peaks_below_two_and_a_half_times_the_mesh():
    # Measured: 18.0 MB at level 7, 1.81 times the 9.9 MB the mesh keeps.
    m, peak = _traced_peak(lambda: mm.build_cap_mesh(*CAP, 7))
    kept = sum(getattr(m, name).nbytes for name in KEPT)
    assert kept == sum(a.nbytes for a in vars(m).values())
    assert m.num_vertices > 40_000
    assert peak <= 2.5 * kept, f"peak {peak / 1e6:.1f} MB for a mesh of {kept / 1e6:.1f} MB"


def test_assembly_peaks_below_three_and_a_half_times_the_stiffness():
    m = mm.build_cap_mesh(*CAP, 7)
    problem, peak = _traced_peak(lambda: discrete.assemble_stability(m))
    K = problem.stiffness
    kept = K.columns.nbytes + K.values.nbytes
    assert peak <= 3.5 * kept, f"peak {peak / 1e6:.1f} MB for a stiffness of {kept / 1e6:.1f} MB"


def test_prolongation_peaks_below_three_and_three_quarters_times_its_arrays():
    # Measured: 7.6 MB for 2.15 MB of arrays (3.54 times) at level 7.
    P, peak = _traced_peak(lambda: mm.prolongation(*CAP, 7))
    kept = P.columns.nbytes + P.values.nbytes
    assert P.shape[0] > 40_000
    assert peak <= 3.75 * kept, f"peak {peak / 1e6:.1f} MB for a prolongation of {kept / 1e6:.1f} MB"


def test_export_peaks_below_eight_times_a_block_of_vertex_lines(tmp_path):
    # Measured: 2.96 MB at level 7, 7.1 times the 0.42 MB byte matrix of EXPORT_BLOCK vertex
    # lines, for a 5.5 MB file.  The bound follows the block, not the file.
    m = mm.build_cap_mesh(*CAP, 7)
    _, peak = _traced_peak(lambda: mm.save_mesh(m, str(tmp_path / "mesh.txt")))
    block = mm.EXPORT_BLOCK * (2 + m.vertices.shape[1] * (1 + numtext.TOKEN))
    assert (tmp_path / "mesh.txt").stat().st_size > 12 * block
    assert peak <= 8 * block, f"peak {peak / 1e6:.2f} MB for a block of {block / 1e6:.2f} MB"


def test_mesh_study_and_export_stay_under_26_4_mb(tmp_path):
    # Measured: 23.97 MB, at the level-7 assembly; the bound is that plus 10 %.
    def study():
        report = discrete.mesh_verify(*CAP, 0.1, [3, 4, 5, 6, 7])
        mm.save_mesh(report.finest_mesh, str(tmp_path / "mesh.txt"))
        return report

    report, peak = _traced_peak(study)
    assert report.levels[-1].vertices > 40_000
    assert peak < 26.4e6, f"peak {peak / 1e6:.1f} MB"


def test_study_result_holds_only_the_finest_vertices_and_faces():
    # Measured: 3.63 MB held for 3.62 MB of vertices and faces; each level's topology is released.
    tracemalloc.start()
    try:
        report = discrete.mesh_verify(*CAP, 0.1, [3, 4, 5, 6, 7])
        held = tracemalloc.get_traced_memory()[0]  # what was allocated since the start and is still alive
    finally:
        tracemalloc.stop()
    finest = report.finest_mesh
    assert finest.vertices.shape[0] == report.levels[-1].vertices > 40_000
    assert held <= 1.05 * (finest.vertices.nbytes + finest.faces.nbytes), f"held {held / 1e6:.2f} MB"
