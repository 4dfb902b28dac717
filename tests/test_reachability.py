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

The same holds for options.  A defaulted parameter of a public function or
method, or a defaulted field of a public class, counts as passed when one of
those files calls it by name or by position: a call of the function or class
(resolved like a reaching load) or, for a method, of an attribute of its
name.  A parameter that no caller passes holds one value, and belongs in the
body as a constant.

A private module-level function, class or constant (one leading underscore)
must be used by the package itself: a load of its name in its own module, or
in a package module that imports it, or an attribute of a package module
(``integrator._expm``).  Its unit tests do not count.

A name that a package module imports at module level (an alias of a name
defined elsewhere) must be loaded in that module, or loaded through it by a
reaching file: imported from it (``from .bloch import four_level_g2``) and
then loaded, or loaded as its attribute (``bloch.four_level_g2``).  A
re-export that only unit tests import through is dead.

An attribute that a method of a package class stores on its instance
(``self.matrix_real = ...``), or a field of a package dataclass, must be
loaded as an attribute of that name by a reaching file: state that nothing
reads is dead.
"""

import ast
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "singleatom"
REACHERS = (sorted(PACKAGE.rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
            + sorted((ROOT / "perfbench").glob("*.py")))

# definition -> why it stays although nothing reaches it
UNREACHED_ALLOWED = {}

# public method or property named like an attribute of a built-in or numpy
# type -> the load that reaches it.  Any load of such a name counts as a
# reach, though it may be the built-in's (``values.mean()`` of an array), so
# each one is checked by hand; a new one fails
# test_methods_named_like_builtin_attributes_checked until it is listed here
NAME_COLLISIONS_CHECKED = {
    "lightshift.LineTable.get": "LineTable.d_lines calls self.get",
}

# 'module.Class.field' of a dataclass -> why it stays although no reaching
# file loads it
FIELDS_UNREAD_ALLOWED = {
    "coherent.StirapResult.final_state":
        "the amplitudes that efficiency and norm_leak come from, for a caller that "
        "needs the phase or the |b> population",
    "coherent.StirapResult.magnus_steps":
        "a step diagnostic of the run record's trust numbers (ROADMAP item 3)",
    "coherent.StirapResult.step_norm":
        "a step diagnostic of the run record's trust numbers (ROADMAP item 3)",
}

# 'definition.parameter' -> why it stays although no caller passes it
UNPASSED_ALLOWED = {}


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """The fields of a dataclass, in order; none for another class."""
    return [item for item in node.body if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)] if _is_dataclass(node) else []


def _defaulted(args: ast.arguments, bound: int) -> dict[str, int | None]:
    """Defaulted parameter -> position among the positional parameters after
    the first ``bound`` (self or cls), or None for keyword-only ones."""
    positional = args.posonlyargs + args.args
    found = {arg.arg: i - bound
             for i, arg in enumerate(positional)
             if i >= len(positional) - len(args.defaults)}
    found.update({arg.arg: None for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None})
    return found


def defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """'module.function.parameter', 'module.Class.field' and
    'module.Class.method.parameter' of every defaulted one -> ("call",
    'module.name' of the callee, position) or ("method", method name, position)."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = f"{module}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                found.update({f"{name}.{p}": ("call", name, pos)
                              for p, pos in _defaulted(node.args, 0).items()})
            if not isinstance(node, ast.ClassDef):
                continue
            found.update({f"{name}.{item.target.id}": ("call", name, pos)
                          for pos, item in enumerate(_fields(node)) if item.value is not None})
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                params = _defaulted(item.args, 0 if static else 1)
                if item.name == "__init__":
                    found.update({f"{name}.{p}": ("call", name, pos) for p, pos in params.items()})
                elif not item.name.startswith("_"):
                    found.update({f"{name}.{item.name}.{p}": ("method", item.name, pos)
                                  for p, pos in params.items()})
    return found


def _scan():
    """(loads, calls, spans, resolve) of the reaching files.

    ``loads`` holds each file's bindings, loaded names and loaded attributes;
    ``calls`` every call as (callee 'module.name' or None, attribute name or
    None, positional count, keyword names), a starred argument counting as
    every position and a ``**`` one as every keyword (keyword None);
    ``spans`` the benchmark scripts' string constants; ``resolve`` follows a
    'module.name' through re-exports to its definition."""
    defined = {name for name, is_method in definitions().items() if not is_method}
    reexports = {}  # 'module.name' bound by an import -> 'module.name' it came from
    files = []      # (bindings, loaded names, loaded attributes by base name, calls)
    spans = set()   # string constants of the benchmark scripts
    for path in REACHERS:
        tree = _parse(path)
        module = _module_name(path)
        bindings = {}  # local name -> 'module.name' or 'module' (for module aliases)
        if module is not None:
            bindings.update({n.split(".")[-1]: n for n in defined
                             if n.rsplit(".", 1)[0] == module})
        names, attributes, calls = set(), set(), []
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
            elif isinstance(node, ast.Call):
                n_pos = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                         else len(node.args))
                keywords = {k.arg for k in node.keywords}
                calls.append((node.func, n_pos, keywords))
        files.append((bindings, names, attributes, calls))
        if path.parent.name == "perfbench":
            spans.update(node.value for node in ast.walk(tree)
                         if isinstance(node, ast.Constant) and isinstance(node.value, str))

    def resolve(target: str) -> str:
        seen = set()
        while target in reexports and target not in seen:
            seen.add(target)
            target = reexports[target]
        return target

    loads, resolved_calls = [], []
    for bindings, names, attributes, calls in files:
        loads.append((bindings, names, attributes))
        for func, n_pos, keywords in calls:
            callee, attr = None, None
            if isinstance(func, ast.Name) and func.id in bindings:
                callee = resolve(bindings[func.id])
            elif isinstance(func, ast.Attribute):
                attr = func.attr
                if isinstance(func.value, ast.Name) and func.value.id in bindings:
                    callee = resolve(f"{bindings[func.value.id]}.{attr}")
            resolved_calls.append((callee, attr, n_pos, keywords))
    return loads, resolved_calls, spans, resolve


def reached() -> tuple[set[str], set[str]]:
    """('module.name' of every loaded top-level binding, every loaded attribute name)."""
    defined = {name for name, is_method in definitions().items() if not is_method}
    loads, _, spans, resolve = _scan()
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


def unpassed_parameters() -> list[str]:
    """The defaulted parameters and fields that no reaching call passes."""
    _, calls, _, _ = _scan()
    unpassed = []
    for full, (kind, target, position) in defaulted_parameters().items():
        param = full.rsplit(".", 1)[1]
        if not any((callee == target if kind == "call" else attr == target)
                   and (param in keywords or None in keywords
                        or position is not None and position < n_pos)
                   for callee, attr, n_pos, keywords in calls):
            unpassed.append(full)
    return sorted(unpassed)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions() -> list[str]:
    """'module._name' of every private module-level function, class and
    assigned constant of the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module}.{name}" for name in names if _is_private(name)]
    return found


def privates_used_by_the_package() -> set[str]:
    """'module._name' of every private name that a package module loads."""
    defined = private_definitions()
    used = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        bindings = {n.rsplit(".", 1)[1]: n for n in defined if n.rsplit(".", 1)[0] == module}
        loads = []  # (name, attribute or None)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                source = _imported_module(path, node)
                if source is not None:
                    bindings.update({alias.asname or alias.name:
                                     f"{source}.{alias.name}".lstrip(".")
                                     for alias in node.names})
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((node.id, None))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)):
                loads.append((node.value.id, node.attr))
        used.update(bindings[name] if attr is None else f"{bindings[name]}.{attr}"
                    for name, attr in loads if name in bindings)
    return used


def _bound_names(path: pathlib.Path, node: ast.stmt) -> list[tuple[str, str | None]]:
    """(local name, 'module.name' or 'module' it binds in the package, or
    None outside it) of each name an import statement binds."""
    if isinstance(node, ast.ImportFrom):
        source = _imported_module(path, node)
        return [(alias.asname or alias.name,
                 None if source is None else f"{source}.{alias.name}".lstrip("."))
                for alias in node.names]
    found = []
    for alias in node.names:
        if alias.asname and alias.name.startswith("singleatom."):
            # 'import singleatom.cli as cli' binds the package module 'cli'
            found.append((alias.asname, alias.name[len("singleatom."):]))
        else:
            found.append((alias.asname or alias.name.split(".")[0], None))
    return found


def dead_module_imports() -> list[str]:
    """'module.name' of every module-level import of a package module whose
    name is neither loaded there nor loaded through it by a reaching file."""
    modules = {_module_name(path) for path in PACKAGE.rglob("*.py")}
    checked = set()  # (file index, local name) of the package's module-level imports
    imports = []     # (file index, local name, 'module.name' it imports)
    names = []       # names loaded, by file index
    through = set()  # 'module.name' loaded as an attribute of a package module
    for index, path in enumerate(REACHERS):
        tree = _parse(path)
        in_package = _module_name(path) is not None
        bindings, loaded, attributes = {}, set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for local, target in _bound_names(path, node):
                    bindings[local] = target
                    if target is not None:
                        imports.append((index, local, target))
                    if in_package and node in tree.body:
                        checked.add((index, local))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)):
                attributes.add((node.value.id, node.attr))
        names.append(loaded)
        through.update(f"{bindings[base]}.{attr}" for base, attr in attributes
                       if bindings.get(base) in modules)

    def live(index: int, name: str, seen: frozenset) -> bool:
        if name in names[index]:
            return True
        target = f"{_module_name(REACHERS[index])}.{name}".lstrip(".")
        if target in through:
            return True
        seen = seen | {(index, name)}
        # imported from here and loaded, or re-exported and loaded through in turn
        return any(imported == target and (i, local) not in seen
                   and (local in names[i] or (i, local) in checked and live(i, local, seen))
                   for i, local, imported in imports)

    return sorted(f"{_module_name(REACHERS[index])}.{name}".lstrip(".")
                  for index, name in checked if not live(index, name, frozenset()))


def stored_attributes() -> list[str]:
    """'module.Class.name' of every attribute that a method of a package
    class stores on its first argument (self)."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for node in _parse(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or not item.args.args:
                    continue
                this = item.args.args[0].arg
                found.update(f"{module}.{node.name}.{n.attr}" for n in ast.walk(item)
                             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                             and isinstance(n.value, ast.Name) and n.value.id == this)
    return sorted(found)


def dataclass_fields() -> list[str]:
    """'module.Class.name' of every field of a package dataclass."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        found += [f"{module}.{node.name}.{item.target.id}" for node in _parse(path).body
                  if isinstance(node, ast.ClassDef) for item in _fields(node)]
    return sorted(found)


def test_every_private_definition_is_used_by_the_package():
    unused = sorted(set(private_definitions()) - privates_used_by_the_package())
    assert unused == [], (
        "private, and used by no module of the package (tests do not count; move it "
        "into its test, or delete it): " + ", ".join(unused))


def test_every_public_definition_is_reached():
    used, attribute_names = reached()
    unreached = sorted(
        name for name, is_method in definitions().items()
        if (name.rsplit(".", 1)[1] not in attribute_names if is_method else name not in used)
        and name not in UNREACHED_ALLOWED)
    assert unreached == [], (
        "reached by no scenario, criterion or benchmark script (move a test oracle "
        "into its test, or delete it): " + ", ".join(unreached))


def test_every_stored_attribute_is_loaded():
    _, attribute_names = reached()
    unread = [name for name in stored_attributes()
              if name.rsplit(".", 1)[1] not in attribute_names]
    assert unread == [], (
        "stored on an instance and loaded by no scenario, criterion or benchmark "
        "script (delete it): " + ", ".join(unread))


def test_every_dataclass_field_is_loaded():
    _, attribute_names = reached()
    unread = [name for name in dataclass_fields()
              if name.rsplit(".", 1)[1] not in attribute_names
              and name not in FIELDS_UNREAD_ALLOWED]
    assert unread == [], (
        "a dataclass field loaded by no scenario, criterion or benchmark script "
        "(delete it): " + ", ".join(unread))


def test_allowed_unread_fields_still_exist():
    assert set(FIELDS_UNREAD_ALLOWED) <= set(dataclass_fields())


def _builtin_attribute_names() -> set[str]:
    """The attributes of the types whose methods a reaching file calls most."""
    import numpy as np

    names = set()
    for kind in (float, int, complex, str, list, tuple, dict, set, np.ndarray):
        names.update(dir(kind))
    return names


def test_methods_named_like_builtin_attributes_checked():
    attribute_names = _builtin_attribute_names()
    colliding = {name for name, is_method in definitions().items()
                 if is_method and name.rsplit(".", 1)[1] in attribute_names}
    assert colliding == set(NAME_COLLISIONS_CHECKED), (
        "a public method or property named like an attribute of a built-in or numpy "
        "type counts as reached by any load of that name; check that the package, "
        "a criterion or the benchmark really reaches it, then list it in "
        "NAME_COLLISIONS_CHECKED with the load that does (or remove a stale entry)")


def test_allowed_exceptions_still_exist():
    assert set(UNREACHED_ALLOWED) <= set(definitions())


def test_every_defaulted_parameter_is_passed():
    unpassed = [name for name in unpassed_parameters() if name not in UNPASSED_ALLOWED]
    assert unpassed == [], (
        "passed by no scenario, criterion or benchmark script (make it a constant "
        "of the body): " + ", ".join(unpassed))


def test_allowed_unpassed_parameters_still_exist():
    assert set(UNPASSED_ALLOWED) <= set(defaulted_parameters())


def test_every_module_import_is_loaded():
    dead = dead_module_imports()
    assert dead == [], (
        "imported at module level and loaded neither there nor through it by a "
        "scenario, criterion or benchmark script (unit tests do not count; import "
        "it from where it is defined, or delete it): " + ", ".join(dead))
