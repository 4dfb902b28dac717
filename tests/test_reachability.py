"""Every public definition of the package is reached by a scenario, a
criterion or the benchmark.

A public top-level function or class of ``src/singleatom`` counts as reached
when a module of the package, ``tests/test_acceptance.py`` or a
``perfbench`` script loads it: a bare name bound to it (defined in that
module or imported from the package, through re-exports), or an attribute of
a package module (``bloch.four_level_g2``).  A public method or property
counts as reached when any of those files loads an attribute of its name.
A span that the benchmark's tracer requires by name ("lightshift.hyperfine_shift",
layer then function) reaches that function too, since the tracer wraps it.
Imports, re-exports and ``__all__`` strings alone do not count, and neither
do the unit tests: code that only its own tests call is dead.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "singleatom"
REACHERS = (sorted(PACKAGE.rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
            + sorted((ROOT / "perfbench").glob("*.py")))

# definition -> why it stays although nothing reaches it
UNREACHED_ALLOWED = {
    "loading.mean_number_ode": "the mean-number ODE is kept for its closed form "
                               "(ROADMAP item 2), which replaces its RK45 integration",
}


def _module_name(path: pathlib.Path) -> str | None:
    """Dotted name inside the package ('bloch.four_level', 'bloch'), or None."""
    try:
        parts = path.relative_to(PACKAGE).with_suffix("").parts
    except ValueError:
        return None
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_module(path: pathlib.Path, node: ast.ImportFrom) -> str | None:
    """The package module an ``ImportFrom`` reads from ('' for the package), or None."""
    if node.level == 0:
        name = node.module or ""
        if name != "singleatom" and not name.startswith("singleatom."):
            return None
        return name[len("singleatom."):] if "." in name else ""
    here = _module_name(path)
    if here is None:
        return None
    parts = here.split(".") if here else []
    if path.name != "__init__.py":
        parts = parts[:-1]  # the module's package
    parts = parts[:len(parts) - (node.level - 1)]
    if node.module:
        parts += node.module.split(".")
    return ".".join(parts)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions() -> dict[str, bool]:
    """Public definitions, 'module.name' or 'module.Class.method' -> is a method."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[f"{module}.{node.name}"] = False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{module}.{node.name}.{item.name}"] = True
    return found


def reached() -> tuple[set[str], set[str]]:
    """('module.name' of every loaded top-level binding, every loaded attribute name)."""
    defined = {name for name, is_method in definitions().items() if not is_method}
    reexports = {}  # 'module.name' bound by an import -> 'module.name' it came from
    loads = []      # (bindings of the file, loaded names, loaded attributes by base name)
    spans = set()   # string constants of the benchmark scripts
    for path in REACHERS:
        tree = _parse(path)
        module = _module_name(path)
        bindings = {}  # local name -> 'module.name' or 'module' (for module aliases)
        if module is not None:
            bindings.update({n.split(".")[-1]: n for n in defined
                             if n.rsplit(".", 1)[0] == module})
        names, attributes = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _imported_module(path, node)
                if source is None:
                    continue
                for alias in node.names:
                    target = f"{source}.{alias.name}".lstrip(".")
                    bindings[alias.asname or alias.name] = target
                    if module is not None and node.col_offset == 0:
                        reexports[f"{module}.{alias.asname or alias.name}".lstrip(".")] = target
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                base = node.value.id if isinstance(node.value, ast.Name) else None
                attributes.add((base, node.attr))
        loads.append((bindings, names, attributes))
        if path.parent.name == "perfbench":
            spans.update(node.value for node in ast.walk(tree)
                         if isinstance(node, ast.Constant) and isinstance(node.value, str))

    def resolve(target: str) -> str:
        seen = set()
        while target in reexports and target not in seen:
            seen.add(target)
            target = reexports[target]
        return target

    # a span 'layer.name' wraps 'name' in the modules of that layer
    used = set()
    for span in spans:
        layer, _, name = span.partition(".")
        used.update(n for n in defined
                    if n.split(".")[0] == layer and n.rsplit(".", 1)[1] == name)
    attribute_names = set()
    for bindings, names, attributes in loads:
        used.update(resolve(bindings[n]) for n in names if n in bindings)
        for base, attr in attributes:
            attribute_names.add(attr)
            if base in bindings:  # an attribute of a package module
                used.add(resolve(f"{bindings[base]}.{attr}"))
    return used, attribute_names


def test_every_public_definition_is_reached():
    used, attribute_names = reached()
    unreached = sorted(
        name for name, is_method in definitions().items()
        if (name.rsplit(".", 1)[1] not in attribute_names if is_method else name not in used)
        and name not in UNREACHED_ALLOWED)
    assert unreached == [], (
        "reached by no scenario, criterion or benchmark script (move a test oracle "
        "into its test, or delete it): " + ", ".join(unreached))


def test_allowed_exceptions_still_exist():
    assert set(UNREACHED_ALLOWED) <= set(definitions())
