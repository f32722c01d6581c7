"""The bench's layer tracer finds every program name it patches.

bench/layertrace.py replaces module attributes by name.  When a refactor
unbinds one, the tracer lists it as absent and its per-layer metrics read
0 instead of failing, so this test pins the set of absent names.
"""

from pathlib import Path

from cmcradius import algebra, bounds, cli, discrete, mesh, spaceforms

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Targets the bench still names although the program dropped them.
STALE_TARGETS = {"mesh.edge_face_counts", "discrete.face_edge_lengths", "spaceforms.solve_ivp"}


def test_tracer_targets_are_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace  # the standard library only

    modules = {"cli": cli, "bounds": bounds, "algebra": algebra, "spaceforms": spaceforms,
               "mesh": mesh, "discrete": discrete}
    originals = {name: vars(module).copy() for name, module in modules.items()}
    tracer = layertrace.Tracer(modules)
    tracer.install()
    tracer.uninstall()
    assert set(tracer.absent) <= STALE_TARGETS
    for name, module in modules.items():
        assert vars(module) == originals[name]
