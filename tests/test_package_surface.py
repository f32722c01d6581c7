"""The package holds only what the program reads.

Every public top-level function and class of `src/cmcradius` must be named
(an AST `Name` or `Attribute`) somewhere in the package outside its own
definition.  Formulas that only tests check against live in
`tests/reference.py` instead.
"""

import ast
from pathlib import Path

import cmcradius

PACKAGE = Path(cmcradius.__file__).resolve().parent

# No command reads coeff_B, but bench/layertrace.py counts its calls
# (`COUNT_TARGETS`), so it stays until that counter is dropped.
UNREFERENCED_ALLOWED = {"bounds.coeff_B"}


def _surface() -> tuple[dict[str, str], dict[tuple[str, str], set[str]]]:
    """Public top-level definitions as `module.name -> name`, and the
    identifiers each top-level statement references, keyed by
    (module, name the statement defines or "")."""
    public, references = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            owner = ""
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    public[f"{module}.{owner}"] = owner
            names = references.setdefault((module, owner), set())
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return public, references


def test_every_public_name_is_read_by_the_package():
    public, references = _surface()
    unreferenced = {
        qualified for qualified, name in public.items()
        if not any(name in names for (module, owner), names in references.items()
                   if f"{module}.{owner}" != qualified)
    }
    assert unreferenced == UNREFERENCED_ALLOWED


def test_the_scan_sees_the_whole_package():
    public, _ = _surface()
    assert {"bounds.best_bound", "cli.main", "discrete.mesh_verify", "mesh.save_mesh",
            "spaceforms.verify_cap_bound", "report.emit_report"} <= set(public)
