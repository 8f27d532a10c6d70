"""Every public name is used by the package, the CLI or the benchmark, not by tests alone.

The check reads the sources and imports nothing.  A name that ``__init__.py``
imports counts as used when another package module refers to it as an
identifier or an attribute, or when a ``perfbench`` script refers to it as an
identifier, an attribute or a string (the tracer names its targets as
strings).  A public method or property of any package class counts as used
when a package module refers to it as an attribute (``obj.name``) outside the
body of that class, or a ``perfbench`` script refers to it as above; a method
that only its own class calls should carry a leading underscore.  The names
are matched, not resolved: a reference to another class's attribute of the
same name counts too.  No module but ``__init__.py``, whose imports are the
exports, imports a name it never refers to.  Every field of ``CheckConfig``
is read as an attribute by a package module outside the class.  And each
check's verdict is built in its theorem module, not in the suite runner, and
reads derivatives through ``diff``'s public names: ``tangent_pass``, the one
reader of a pass, and the names the tracer's ``TARGETS`` list.  Per-row products go
through numpy's ``vecdot`` and ``matvec``, not stacked matmuls, and complex
Gaussian rows come from ``rng``.  The Carathéodory module builds no map tree,
and the rigidity module draws nothing keyed.  No public ``diff`` routine has a
knob: its only defaulted parameter may be ``seed``.  Every exception class is
raised by some package module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schwarz_lab"


def _references(path: pathlib.Path, strings: bool) -> set:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_name_is_referenced_outside_the_tests():
    init = PACKAGE / "__init__.py"
    public = {alias.asname or alias.name for node in ast.parse(init.read_text()).body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path != init:
            used |= _references(path, strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _references(path, strings=True)
    assert sorted(public - used) == []


def _attributes(node: ast.AST) -> set:
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_every_public_method_is_referenced_outside_its_class():
    statements = [node for path in PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text(), str(path)).body]
    attributes = [_attributes(node) for node in statements]
    bench = set().union(*(_references(path, strings=True)
                          for path in (ROOT / "perfbench").glob("*.py")))
    checked, unused = 0, []
    for cls in statements:
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {fn.name for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}
        used = bench.union(*(a for node, a in zip(statements, attributes) if node is not cls))
        checked += len(methods)
        unused += [f"{cls.name}.{name}" for name in sorted(methods - used)]
    assert checked
    assert unused == []


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_check_config_field_is_read_outside_its_class():
    # a tolerance or count that no check reads is a knob that does nothing
    fields, read = None, set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef) and node.name == "CheckConfig":
                fields = {stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)}
                continue
            read |= {sub.attr for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    assert fields
    assert sorted(fields - read) == []


def test_the_runner_builds_no_verdict_and_no_module_reads_diff_privately():
    suite = ast.parse((PACKAGE / "suite.py").read_text())
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(suite) if isinstance(node, ast.Call)}
    assert sorted(called & {"Verdict", "HypothesisCheck"}) == []
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "diff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "diff":
                private += [f"{path.name}: {a.name}" for a in node.names if a.name[0] == "_"]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "diff" and node.attr[0] == "_"):
                private.append(f"{path.name}: diff.{node.attr}")
    assert private == []


def test_check_modules_import_from_diff_only_the_pass_and_the_traced_names():
    # a name the tracer does not time is a second reader of the pass
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    [targets] = [node.value for node in tracer.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    allowed = {"tangent_pass"} | {node.value for node in ast.walk(targets)
                                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    extra = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "diff.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "diff":
                extra += [f"{path.name}: {a.name}" for a in node.names if a.name not in allowed]
    assert extra == []


def _last_index_is_none(node: ast.AST) -> bool:
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice.elts[-1] if isinstance(node.slice, ast.Tuple) else node.slice
    return isinstance(index, ast.Constant) and index.value is None


def test_per_row_products_use_gufuncs_and_normals_come_from_rng():
    # x[:, :, None] on the right of @ is the stacked per-row product that
    # np.matvec and np.vecdot replace; xis @ a.point[None, :], an outer
    # product, keeps its last axis and is allowed
    stacked, normals = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                    and _last_index_is_none(node.right)):
                stacked.append(f"{path.name}:{node.lineno}")
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "standard_normal"):
                    normals.append(f"{path.name}:{getattr(top, 'name', node.lineno)}")
    assert stacked == []
    # the Caratheodory ascent's starting thetas are real
    assert [n for n in normals if not n.startswith("rng.py:")] == [
        "caratheodory.py:_coordinate_ascent"]


def test_caratheodory_imports_nothing_from_maps():
    # a competitor is judged by the supremum its coefficients give, not by a
    # second, map-tree copy of it evaluated on samples
    tree = ast.parse((PACKAGE / "caratheodory.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [getattr(node, "module", None) or "" for node in imports]
    names = [alias.name for node in imports for alias in node.names]
    assert [m for m in modules + names if m.split(".")[-1] == "maps"] == []


def test_rigidity_imports_no_keyed_draw():
    # its self-map escape and identity residual both read the deterministic grid
    keyed = []
    for node in ast.walk(ast.parse((PACKAGE / "rigidity.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            keyed += [f"{module}: {a.name}" for a in node.names
                      if module == "rng" or a.name in ("rng", "sample_ball")]
        elif isinstance(node, ast.Import):
            keyed += [a.name for a in node.names if a.name.split(".")[-1] == "rng"]
    assert keyed == []


def test_public_diff_routines_default_no_parameter_but_the_seed():
    # steps and ladders are module constants; a default no caller sets is a knob
    knobs = []
    for node in ast.parse((PACKAGE / "diff.py").read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            knobs += [f"{node.name}({a.arg})" for a in defaulted if a.arg != "seed"]
    assert knobs == []


def test_every_exception_class_is_raised_by_the_package():
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    assert sorted(classes - raised) == []
