"""Modules depend only downward: each imports only modules earlier in ORDER;
only the _linalg kernel calls numpy's SVD, QR, pinv or lstsq; only io opens
files; arguments are coerced to float only by _linalg's rules (io parses
files, cli formats output); records are converted once, by hankel's stack,
so only segment_trajectory, whose output needs start times, builds a
SignalSegment; only the experiment generator raises ExcitationError;
certificate and rank errors are raised only by _linalg's certificate and
rank-requirement rules; no pipeline factors a formed window matrix;
records' windows are folded only by the stack, which a dictionary reads
through its factor, and only the fold and the sample read the byte limit;
and outside hankel only the record builders build a stack."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddlti"

#: Every module of the package, lowest layer first.
ORDER = ["errors", "_linalg", "lti", "io", "hankel", "willems", "ident", "lqr", "cli",
         "__init__"]


def relative_imports(path: Path) -> set[str]:
    """Package modules a source file imports, at top level or inside functions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import name
                found.update(alias.name for alias in node.names)
    return found


def kernel_calls(path: Path) -> list[str]:
    """Every ``<...>.linalg.svd``, ``qr``, ``pinv`` or ``lstsq`` call in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        f = node.func if isinstance(node, ast.Call) else None
        if (isinstance(f, ast.Attribute) and f.attr in ("svd", "qr", "pinv", "lstsq")
                and isinstance(f.value, ast.Attribute) and f.value.attr == "linalg"):
            found.append(f"{path.stem}:{node.lineno} {f.attr}")
    return found


def is_float_dtype(node: ast.expr) -> bool:
    """``float``, ``np.float64`` and the like, or a string naming one."""
    name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "value", None)
    return isinstance(name, str) and name.startswith("float")


def float_coercions(path: Path) -> list[str]:
    """Every ``<...>.asarray`` or ``<...>.array`` call with a float dtype,
    given by keyword or as the second positional argument."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        f = node.func if isinstance(node, ast.Call) else None
        if isinstance(f, ast.Attribute) and f.attr in ("asarray", "array"):
            dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(is_float_dtype(d) for d in dtypes):
                found.append(f"{path.stem}:{node.lineno} {f.attr}")
    return found


def constructions(path: Path, name: str) -> list[str]:
    """``module.definition`` of every call of ``name`` in a source file, by the
    top-level function or class it sits in."""
    found = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            f = node.func if isinstance(node, ast.Call) else None
            if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


#: The kernel calls that factor a matrix: none may be handed a formed window matrix.
FACTORS = ("gram_factor", "minnorm", "svd_rank")


def holds_formed_matrix(node: ast.AST, names: set[str]) -> bool:
    """Whether an expression holds a formed window matrix: a ``.matrix``
    attribute, a stack's ``mosaic(...)`` call or one of ``names``."""
    return any(isinstance(n, ast.Attribute) and n.attr == "matrix"
               or isinstance(n, ast.Call) and "mosaic" in (getattr(n.func, "id", None),
                                                         getattr(n.func, "attr", None))
               or isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))


def factored_formed_matrices(source: str, stem: str) -> list[str]:
    """``stem:line`` of every call in :data:`FACTORS` on a formed window
    matrix, directly or through names assigned from one in the same top-level
    definition."""
    found = []
    for top in ast.parse(source).body:
        assigns = [n for n in ast.walk(top) if isinstance(n, ast.Assign)]
        names: set[str] = set()
        while True:  # names assigned from formed matrices, or from those names
            new = {t.id for a in assigns if holds_formed_matrix(a.value, names)
                   for target in a.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
            if new <= names:
                break
            names |= new
        found += [f"{stem}:{n.lineno}" for n in ast.walk(top) if isinstance(n, ast.Call)
                  and {getattr(n.func, "id", None), getattr(n.func, "attr", None)} & set(FACTORS)
                  and any(holds_formed_matrix(arg, names) for arg in n.args)]
    return found


def test_no_pipeline_factors_a_formed_window_matrix():
    # Every factor or min-norm solve of a mosaic or dictionary works on the
    # factor folded from the walker's blocks (hankel._Stack.windows), so no
    # pipeline holds an N-column window matrix to factor it.  lqr._factor_ab
    # factors the batch matrices it is handed.  The sample route's k x 2k
    # mosaic is decided by rank_basis, which is not a FACTORS call.
    calls = [c for path in sorted(PACKAGE.glob("*.py"))
             for c in factored_formed_matrices(path.read_text(), path.stem)]
    assert calls == []
    source = ("def f(d, stack):\n    M = stack.mosaic(3)\n    A = M[:2]\n"
              "    return gram_factor([A]), gram_factor(d.matrix), gram_factor(d.blocks())\n"
              "def g(dictionary, b, stack):\n"
              "    g, res = minnorm(dictionary.matrix, b, dictionary.n_columns)\n"
              "    U = svd_rank(stack.mosaic(2), 0.0)\n"
              "    return minnorm(gram_factor(dictionary.blocks()), b, 1)\n")
    assert factored_formed_matrices(source, "f") == ["f:4", "f:4", "f:6", "f:7"]


def calls_within(source: str, stem: str, match, kind=ast.Call) -> list[str]:
    """``stem.definition`` of every node of ``kind``, a call by default, for
    which ``match(node)`` holds, by the function, or class and method, it sits in."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kind) and match(child):
                found.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)
    visit(ast.parse(source), stem)
    return found


def folds_windows(call: ast.Call) -> bool:
    """A ``gram_factor`` call on a stack's ``windows(...)`` or a dictionary's ``blocks()``."""
    walked = [a for a in call.args if isinstance(a, ast.Call)
              and getattr(a.func, "attr", None) in ("windows", "blocks")]
    return bool(walked) and "gram_factor" in (getattr(call.func, "id", None),
                                               getattr(call.func, "attr", None))


def test_records_are_folded_only_by_the_stack():
    # hankel._Stack.fold is the one fold of a family's windows, and a
    # dictionary reads it only through its factor, which it keeps: a
    # dictionary simulated from or tested against many times is factored
    # once.  A pipeline that folds the blocks itself refolds them per call.
    sources = [(path.read_text(), path.stem) for path in sorted(PACKAGE.glob("*.py"))]
    assert [c for src, stem in sources for c in calls_within(src, stem, folds_windows)] == \
        ["hankel._Stack.fold"]
    assert sorted(c for src, stem in sources for c in calls_within(
        src, stem, lambda call: getattr(call.func, "attr", None) == "fold")) == \
        ["hankel._excitation", "willems.DataDictionary.factor", "willems.check_rank_condition"]
    source = ("def datadriven_simulate(dictionary, wu, wy, fu, tol):\n"
              "    return _complete(dictionary, _completion(dictionary, "
              "gram_factor(dictionary.blocks())),\n"
              "                     wu, wy, fu, tol, DEFAULT_RANK_RTOL)\n"
              "class Stack:\n    def f(self, depth):\n"
              "        return (gram_factor(self.windows(depth)),\n"
              "                gram_factor([self.mosaic(depth)]))\n")
    assert calls_within(source, "willems", folds_windows) == \
        ["willems.datadriven_simulate", "willems.Stack.f"]


def builds_stack(call: ast.Call) -> bool:
    """A ``_Stack(...)`` call."""
    return "_Stack" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))


def test_only_the_record_builders_build_a_stack_outside_hankel():
    # hankel._Stack owns the records' layout, the order scan's sample of the
    # longest run included (_Stack.sample).  Outside hankel only the two
    # builders of records, the complete runs of a corrupted record and the
    # generated experiments, lay out a stack's columns themselves.
    sources = [(path.read_text(), path.stem) for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "hankel"]
    assert [c for src, stem in sources for c in calls_within(src, stem, builds_stack)] == \
        ["ident._complete_runs", "lqr.generate_experiments"]
    source = ("def _full_rank_through(stack, depth, cap, start, w_norm, rtol):\n"
              "    M = _Stack(stack.W[:, start:start + width], np.array([width]), "
              "stack.m).mosaic(top)\n"
              "def _sampled_depth(stack, depth, run, norm_bound, n_cols, rtol, previous):\n"
              "    sample = hankel._Stack(run, np.array([run.shape[1]]), stack.m)\n")
    assert calls_within(source, "ident", builds_stack) == \
        ["ident._full_rank_through", "ident._sampled_depth"]


def reads_fold_limit(node: ast.expr) -> bool:
    """A read of ``MAX_FOLD_BYTES``, as a name or an attribute."""
    return (isinstance(node.ctx, ast.Load)
            and "MAX_FOLD_BYTES" in (getattr(node, "id", None), getattr(node, "attr", None)))


def test_only_the_fold_reads_the_byte_limit():
    # Every fold of records' windows holds the limit, because the fold checks
    # it: a guard in front of one caller leaves the others unbounded.  The
    # stack's sample reads it too: a sample above it is not cut, so its depth
    # goes to the fold, which refuses.
    found = {c for path in sorted(PACKAGE.glob("*.py")) for c in calls_within(
        path.read_text(), path.stem, reads_fold_limit, (ast.Name, ast.Attribute))}
    assert found == {"hankel._Stack.fold", "hankel._Stack.sample"}
    source = ("def _excitation(stack, depth, rtol):\n"
              "    if held > MAX_FOLD_BYTES:\n"
              "        raise InputError(f'above the {hankel.MAX_FOLD_BYTES}-byte limit')\n"
              "    return rank_of(stack.fold(depth), rtol)\n")
    assert calls_within(source, "hankel", reads_fold_limit, (ast.Name, ast.Attribute)) == \
        ["hankel._excitation"] * 2


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(ORDER)


def test_modules_import_only_lower_layers():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ORDER:
            continue
        rank = ORDER.index(path.stem)
        for dep in sorted(relative_imports(path)):
            if dep not in ORDER or ORDER.index(dep) >= rank:
                upward.append(f"{path.stem} -> {dep}")
    assert upward == []


def test_only_the_kernel_calls_svd_pinv_or_lstsq():
    # QR too: every factorization, and so every rank decision's rounding, is
    # the kernel's.
    calls = [c for path in sorted(PACKAGE.glob("*.py")) if path.stem != "_linalg"
             for c in kernel_calls(path)]
    assert calls == []
    assert kernel_calls(PACKAGE / "_linalg.py")


def test_only_io_opens_files():
    # ``open`` as a name (the builtin) or an attribute (os.open, Path.open).
    opened = {c for path in PACKAGE.glob("*.py") for c in constructions(path, "open")}
    assert opened == {"io._open_text"}


def test_only_the_argument_rules_coerce_to_float():
    calls = [c for path in sorted(PACKAGE.glob("*.py")) if path.stem not in ("_linalg", "io", "cli")
             for c in float_coercions(path)]
    assert calls == []
    assert float_coercions(PACKAGE / "_linalg.py")


def test_records_are_converted_once():
    built = {c for path in PACKAGE.glob("*.py") for c in constructions(path, "SignalSegment")}
    assert built == {"ident.segment_trajectory"}


def test_only_the_experiment_generator_raises_excitation_errors():
    # A certified result is accepted by its certificate alone: an excitation
    # precheck in front of it refuses data the certificate accepts.  Only
    # generate_experiments, which draws inputs until they excite, refuses on it.
    raised = {c for path in PACKAGE.glob("*.py") for c in constructions(path, "ExcitationError")}
    assert raised == {"lqr.generate_experiments"}


def test_certificate_errors_are_raised_only_by_the_certificate_rule():
    # _linalg.certify and _linalg.require_rank raise the class they are given,
    # so a NaN certificate refuses and every refusal names its quantity and
    # bound, or its rank, the required rank and the singular values at the cut.
    # A subclass such as NoUsableDataError keeps its own sites.
    for name in ("CertificationError", "RiccatiDivergenceError", "InconsistentPastError",
                 "InsufficientDataError", "OrderInfeasibleError"):
        assert [c for path in PACKAGE.glob("*.py") for c in constructions(path, name)] == [], name
