"""Import hygiene: every name a module imports is used in its code, ``__all__`` or annotations."""

import ast
from pathlib import Path

import pytest

import randomx_eval

SRC = Path(randomx_eval.__file__).resolve().parent

#: Bound only so that the benchmark's tracer can wrap them where these modules look them up.
TRACER_ONLY = {
    ("decomp", "draw_covariates"),
    ("decomp", "_cholesky_spd"),
    ("decomp", "gaussian_bandwidth"),
    ("decomp", "kernel_matrix"),
    ("decomp", "neighbor_sets"),
    ("experiments", "draw_response"),
    ("experiments", "estimate_decomposition"),
    ("experiments", "fit"),
}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read in code, listed in ``__all__``, or read in an annotation, quoted or not.

    Any name node counts, so a local that shadows an import hides it.
    """
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(name, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {(path.stem, name) for name in imported_names(tree) - used_names(tree)}
    assert unused == {entry for entry in TRACER_ONLY if entry[0] == path.stem}
