"""The public API: ``ultraflow.__all__`` is pinned, so a name leaves it only
through a deliberate edit of this list.  A source check keeps the drift's
eps-deformation in its one owner, ``operators._deformation``, and rho^2
formed from points in ``operators._points``, and the Lp bracket of the
Lyapunov functional and its p = 2 limit, the log entropy, in
``functionals.lyapunov_terms``, and the Stieltjes
pass's norm update b_{k+1} = sqrt(<q, q>) in ``spectral._recurrence``; another
keeps each domain fact of the parameters in one private owner: the
critical exponent 2n/(n-2), the excluded exponent (n+2)m = n, the bounds
h0 and h1, the discriminant B^2 - A and the small-n threshold of the Gauss
rules; another keeps ``warnings.warn`` and ``stacklevel=`` in their one owner, ``errors._warn``;
another keeps ``build_quadrature`` calls free of ``kind=`` and ``Quadrature`` without
subclasses, another every module free of ``np.dot`` calls (``ndarray.dot`` is the same
routine without the dispatcher), another every module's imports to the standard library and numpy
without numpy.polynomial, another every ``functools`` cache to an
``lru_cache`` of integer size, with no ``weakref`` registry beside them, and
a fresh interpreter checks that ``import ultraflow.cli`` loads no part of
numpy.polynomial."""
import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import ultraflow
from ultraflow.admissibility import _check_bounds, _discriminant, _scaling_denominator
from ultraflow.errors import _warn
from ultraflow.functionals import lyapunov_terms
from ultraflow.measure import _critical_exponent, _warn_small_n
from ultraflow.operators import _deformation, _points
from ultraflow.spectral import _recurrence

PUBLIC_NAMES = [
    "AccuracyWarning", "AdmissibleRange", "AliasingError", "DEFAULT_NODES",
    "DeficitReport", "DomainError", "EPS_MIN", "FlowConfig", "FlowTrace",
    "FunctionExpr", "FunctionSpecError", "IdentityReport", "LyapunovValue",
    "NumericalError", "OrthoBasis", "PositivityError", "Quadrature",
    "ShapeError", "UltraParams", "abc", "apply_L", "apply_L_eps",
    "beta_excluded", "beta_for_m", "beta_range", "beta_window",
    "build_quadrature", "check_gamma2", "check_gamma2_eps", "check_lgamma",
    "check_lgamma_eps", "dF_dt_closed_form", "deficit", "delta_of_beta",
    "dissipation_witness", "drift", "drift_prime", "eigenvalue",
    "extremal_profile", "fisher", "get_basis",
    "get_regularized_basis", "interpolation_basis", "is_admissible",
    "lambda_eps", "logsob_deficit", "lp_norm", "lyapunov_F", "m_of_beta",
    "m_range", "make_test_function", "normalization_constant",
    "parse_function", "qform_coeffs", "qform_value",
    "refined_quadrature", "regularity_coeffs", "resample", "run_heat_flow",
    "run_nonlinear_flow", "run_regularized_flow", "spectral_derivative",
    "thresholds",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(ultraflow.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ultraflow, name) is not None, name


def test_eps_deformation_has_one_owner():
    # the plain-case branch lives in the owner and rho^2 formed from points in
    # _points; zeta = 1 + eps - z^2 is formed from z nowhere (code spellings)
    branch = r"\beps == 0 or n == d\b"
    rho2_from_z = r"\b1(\.0)? - z\s*\*\*\s*2|\(1(\.0)? - z\) \* \(1(\.0)? \+ z\)"
    zeta_from_z = r"\beps - z\s*\*\*"
    owners = {branch: inspect.getsource(_deformation), rho2_from_z: inspect.getsource(_points)}
    for pattern, owner in owners.items():
        assert re.search(pattern, owner)
    for path in sorted(Path(ultraflow.__file__).parent.glob("*.py")):
        text = path.read_text()
        for pattern in (branch, rho2_from_z, zeta_from_z):
            rest = text.replace(owners.get(pattern, ""), "")
            assert not re.search(pattern, rest), f"{path.name} matches {pattern!r}"


def test_entropy_bracket_has_one_owner():
    # F's bracket ||w||_p^2 = (int w^p)^(2/p) and its p = 2 limit, the log entropy
    # log(g / l2), are formed only in lyapunov_terms, which deficit, logsob_deficit,
    # lyapunov_F and the flow recorder share
    bracket = r"\*\*\s*\(2(\.0)?\s*/\s*p\)"
    log_entropy = r"\bnp\.log\(\s*\w+\s*/"  # a code spelling: the docstrings say log(f^2 / ...)
    owner = inspect.getsource(lyapunov_terms)
    for pattern in (bracket, log_entropy):
        assert re.search(pattern, owner)
        for path in sorted(Path(ultraflow.__file__).parent.glob("*.py")):
            rest = path.read_text().replace(owner, "")
            assert not re.search(pattern, rest), (pattern, path.name)


def test_stieltjes_pass_has_one_owner():
    # recurrence coefficients are formed from a rule only in spectral._recurrence,
    # which every basis and the stepping rule share: the discrete inner product
    # b_{k+1}^2 = <q, q> against the weights w, spelled w.dot(q * q) or
    # np.dot(w, q * q), is taken nowhere else (under a square root or not)
    norm = r"(?:\bw\.dot\(|dot\(\s*w\s*,)\s*([][\w.]+)\s*\*\s*\1\b"
    owner = inspect.getsource(_recurrence)
    assert re.search(norm, owner)
    for path in sorted(Path(ultraflow.__file__).parent.glob("*.py")):
        rest = path.read_text().replace(owner, "")
        assert not re.search(norm, rest), path.name


def test_parameter_domain_facts_have_one_owner():
    # each fact is formed or checked only in its owner (code spellings: the
    # docstrings write 2n/(n-2), (n+2)m and B^2); every other module calls it
    owners = {
        r"2(\.0)? \* n / \(n - 2": _critical_exponent,
        r"\(\s*(\w+\.)?n \+ 2(\.0)?\s*\)\s*\*\s*(\w+\.)?m\b": _scaling_denominator,
        r"0 < (\w+\.)?h0 < 1|(\w+\.)?h1 <= 0": _check_bounds,
        r"\bB \* B - A\b": _discriminant,
        r"1\.8e-19": _warn_small_n,
    }
    for pattern, owner in owners.items():
        source = inspect.getsource(owner)
        assert re.search(pattern, source), pattern
        for path in sorted(Path(ultraflow.__file__).parent.glob("*.py")):
            rest = path.read_text().replace(source, "")
            code = re.sub(r'"""[\s\S]*?"""', "", rest)  # the docstrings may cite the fact
            assert not re.search(pattern, code), (pattern, path.name)


def test_accuracy_warnings_have_one_owner():
    # errors._warn aims every AccuracyWarning at the innermost line outside the
    # package; no other code calls warnings.warn or counts a stacklevel
    owner = inspect.getsource(_warn)
    calls = 0
    for path in sorted(Path(ultraflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text().replace(owner, ""))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                assert name != "warn", (path.name, node.lineno)
                assert "stacklevel" not in {k.arg for k in node.keywords}, (path.name, node.lineno)
                calls += name == "_warn"
            if isinstance(node, ast.arg):
                assert node.arg != "stacklevel", (path.name, node.lineno)
    assert calls == 3  # _warn_small_n, _warn_unresolved and _warn_near_two
    assert re.search(r"warnings\.warn\(.*stacklevel=", owner)


def test_every_rule_integrates_the_measure_it_echoes():
    # a rule is chosen by (n, eps, N) alone: no call passes the kind echo to
    # build_quadrature, and no Quadrature subclass carries weights that do not
    # integrate its measure
    for path in sorted(Path(ultraflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) \
                    == "build_quadrature":
                assert "kind" not in {k.arg for k in node.keywords}, (path.name, node.lineno)
            if isinstance(node, ast.ClassDef):
                bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
                assert "Quadrature" not in bases, (path.name, node.name)


def test_no_module_calls_np_dot():
    # ndarray.dot is the C routine of np.dot without its Python-level
    # dispatcher, so the same bits for about 0.25 µs less a call; the stage
    # products and the integrals run tens of thousands of times a flow
    for path in sorted(Path(ultraflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert f"{node.value.id}.{node.attr}" not in ("np.dot", "numpy.dot"), (path.name, node.lineno)
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                assert "dot" not in {alias.name for alias in node.names}, (path.name, node.lineno)


def test_no_module_imports_numpy_polynomial_or_scipy():
    # numpy is the one dependency in pyproject.toml: scipy, mpmath, sympy and
    # hypothesis are test extras.  numpy.polynomial costs about 2 ms of import,
    # so the Gauss rules and the test functions are built on plain arrays
    allowed = sys.stdlib_module_names | {"numpy"}
    banned = "numpy.polynomial"
    for path in sorted(Path(ultraflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy"):
                names = [f"numpy.{node.attr}"]  # np.polynomial.legendre.leggauss and the like
            else:
                continue
            for name in names:
                where = (path.name, node.lineno, name)
                assert name.split(".")[0] in allowed, where
                assert not f"{name}.".startswith(f"{banned}."), where


def test_every_cache_is_a_bounded_lru_cache():
    # functools.cache and lru_cache(maxsize=None) grow with every key a long
    # scan visits; each memo in the package states its size as an integer,
    # and no weakref registry keeps objects beside the caches
    caches = 0
    for path in sorted(Path(ultraflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "weakref" not in {alias.name.split(".")[0] for alias in node.names}, (path.name, node.lineno)
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "weakref", (path.name, node.lineno)
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cache" not in {alias.name for alias in node.names}, (path.name, node.lineno)
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, (ast.Name, ast.Attribute)) and name in ("cache", "lru_cache"):
                assert name == "lru_cache" and id(node) in calls, (path.name, node.lineno, "unsized")
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lru_cache":
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                assert len(sizes) == 1 and isinstance(sizes[0], ast.Constant), (path.name, node.lineno)
                assert type(sizes[0].value) is int, (path.name, node.lineno, sizes[0].value)
                caches += 1
    assert caches == 7  # measure 3, spectral 3, identities 1


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # a fresh interpreter: the test session itself has imported numpy.polynomial
    root = str(Path(ultraflow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ultraflow.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
