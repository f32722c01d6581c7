"""The package holds only what the program reads.

Every public top-level function and class of `src/cmcradius`, and every
public method and property of a public class, must be named (an AST `Name`
or `Attribute`) somewhere in the package outside its own definition.
Formulas that only tests check against live in `tests/reference.py` instead.
"""

import ast
from pathlib import Path

import cmcradius

PACKAGE = Path(cmcradius.__file__).resolve().parent

UNREFERENCED_ALLOWED: set[str] = set()


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _surface() -> tuple[dict[str, str], dict[str, set[str]]]:
    """Public definitions as `module.name` or `module.Class.method` -> name, and the
    identifiers each definition references, keyed by its qualified name: a class's
    methods apart from the rest of it, and the top-level statements that define
    nothing under `module.`."""
    public, references = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, DEFINITIONS):
                references.setdefault(f"{module}.", set()).update(_names(stmt))
                continue
            owner = f"{module}.{stmt.name}"
            if not stmt.name.startswith("_"):
                public[owner] = stmt.name
            if isinstance(stmt, ast.ClassDef):
                for method in [node for node in stmt.body if isinstance(node, DEFINITIONS[:2])]:
                    if owner in public and not method.name.startswith("_"):
                        public[f"{owner}.{method.name}"] = method.name
                    references[f"{owner}.{method.name}"] = _names(method)
                    stmt.body.remove(method)
            references[owner] = _names(stmt)
    return public, references


def test_every_public_name_is_read_by_the_package():
    public, references = _surface()
    unreferenced = {
        qualified for qualified, name in public.items()
        if not any(name in names for owner, names in references.items()
                   if owner != qualified and not owner.startswith(qualified + "."))
    }
    assert unreferenced == UNREFERENCED_ALLOWED


def test_the_scan_sees_the_whole_package():
    public, _ = _surface()
    assert {"bounds.best_bound", "cli.main", "discrete.mesh_verify", "mesh.save_mesh",
            "spaceforms.verify_cap_bound", "report.emit_report", "ell.Ell.rmatvec",
            "mesh.TriMesh.num_vertices", "bounds.KInterval.width"} <= set(public)
