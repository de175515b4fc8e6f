"""The lazy package namespace binds the same names as the eager one did, and
every name the package defines is used, or public and kept for a stated
reason."""

import ast
import importlib
from pathlib import Path

import pytest

import gfwigner

# every public name that gfwigner/__init__.py imported eagerly, with the
# submodule it came from
EAGER_NAMES = {
    "errors": ["AmbiguousInference", "DegreeMismatch", "DimensionMismatch",
               "DimensionTooLarge", "FieldMismatch", "GfwignerError",
               "InconsistentStabilizer", "InvalidDensityMatrix", "MalformedInput",
               "NonCommutingGenerators", "NonPrimitivePolynomial"],
    "galois": ["GF2Field", "PRIMITIVE_POLYS", "field_new", "power_ordering"],
    "net": ["QuantumNet", "all_plus_signs", "build_net", "line_state", "mub_bases",
            "net_from_json", "ray_generators", "u_omega_gates", "u_omega_matrix"],
    "pauli": ["DENSE_MAX_QUBITS", "IDENTITY_ATOL", "INPUT_ATOL", "PauliTranslation",
              "commutes", "compose", "format_pauli", "parse_pauli", "pauli_sum",
              "to_matrix", "translation", "translation_for"],
    "phasespace": ["BinaryPoint", "HORIZONTAL", "Line", "PhasePoint", "Striation",
                   "VERTICAL", "all_striations", "from_binary", "ray_through",
                   "striation", "striation_labels", "to_binary", "wedge"],
    "wigner": ["StabilizerGroup", "WignerGrid", "all_stabilizer_groups",
               "check_density_matrix", "expectation_translation", "point_operator",
               "purity_identity_residual", "reconstruct", "stabilizer_wigner",
               "stabilizer_wigner_value", "state_density", "wigner_of"],
}
PAIRS = [(module, name) for module, names in EAGER_NAMES.items() for name in names]


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_each_eager_name_is_the_submodule_attribute(module, name):
    submodule = importlib.import_module(f"gfwigner.{module}")
    assert getattr(gfwigner, name) is getattr(submodule, name)
    assert name in dir(gfwigner)


def test_star_import_binds_every_eager_name():
    namespace = {}
    exec("from gfwigner import *", namespace)
    for module, name in PAIRS:
        assert namespace[name] is getattr(importlib.import_module(f"gfwigner.{module}"), name)


def test_submodules_and_version_are_attributes():
    for module in [*EAGER_NAMES, "apps", "cli"]:
        assert getattr(gfwigner, module) is importlib.import_module(f"gfwigner.{module}")
    assert gfwigner.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    # as are the stated removals
    for name in ("no_such_name", "dual_basis", "SingularBasis"):
        with pytest.raises(AttributeError, match=name):
            getattr(gfwigner, name)
    with pytest.raises(ImportError):
        from gfwigner import no_such_name  # noqa: F401


# public names that nothing in the package or the acceptance tests refers
# to, each kept for a reason
UNREFERENCED_BY_DESIGN = {
    "expectation_translation": "the README's <T_beta> = f(beta) hat W(beta)",
    "stabilizer_wigner_value": "the only exact route past n = 8",
    "import_grid": "the library entry point for grid files",
    "grid_from_parameters": "builds the code's grid from its eight slot values",
    "QuantumNet.to_json": "writes the net files that --net reads",
    "compose": "the exact product of two translations; StabilizerGroup walks "
               "the same rule on plain (a, b, s) ints",
    "WignerGrid.value": "reads one cell by its point, where values builds all N^2",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(nodes) -> tuple[set, set]:
    """The Name ids and the Attribute names anywhere under nodes."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
    return names, attrs


def _definitions(package: Path) -> tuple[dict, list]:
    """Each module-level function and class of the package, and each method
    as "Class.name", with the nodes whose references count once it is used
    (a class: its bases, decorators and statements other than methods), its
    class (None for a module-level name); and the module-level code outside
    them, where dunder functions count as module code, since Python calls
    them."""
    defs, module_code = {}, []
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods = [sub for sub in node.body if isinstance(sub, ast.FunctionDef)]
                rest = [sub for sub in node.body if sub not in methods]
                defs[node.name] = ([*rest, *node.bases, *node.decorator_list], None)
                defs |= {f"{node.name}.{sub.name}": ([sub], node.name) for sub in methods}
            elif isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
                defs[node.name] = ([node], None)
            else:
                module_code.append(node)
    return defs, module_code


def _used_definitions(defs: dict, roots: list) -> set:
    """The definitions that code reachable from roots refers to.  A
    module-level name is used by a Name or an Attribute (module.name); a
    method only by an Attribute (obj.name), and only once its class is used,
    which also uses its dunder methods.  References from a definition count
    only once it is used itself, so dead callers keep nothing alive."""
    names, attrs = _references(roots)
    used, grown = set(), True
    while grown:
        grown = False
        for key, (nodes, cls) in defs.items():
            name = key.rpartition(".")[2]
            if key in used:
                continue
            if cls is None:
                hit = name in names or name in attrs
            else:
                hit = cls in used and (_is_dunder(name) or name in attrs)
            if hit:
                used.add(key)
                more_names, more_attrs = _references(nodes)
                names |= more_names
                attrs |= more_attrs
                grown = True
    return used


def test_every_public_name_is_used_or_kept_for_a_stated_reason():
    # the roots are the package's module-level code, the acceptance tests
    # and the bodies of the allow-listed names; a name that only those
    # bodies use is used, and an allow-list entry that something else uses
    # is stale
    package = Path(gfwigner.__file__).parent
    acceptance = Path(__file__).with_name("test_acceptance.py")
    defs, module_code = _definitions(package)
    kept = [node for key in UNREFERENCED_BY_DESIGN for node in defs[key][0]]
    used = _used_definitions(defs, [*module_code, ast.parse(acceptance.read_text()), *kept])
    unused = defs.keys() - used
    public = {key for key in unused if not key.rpartition(".")[2].startswith("_")}
    assert public - UNREFERENCED_BY_DESIGN.keys() == set(), "dead public code"
    assert UNREFERENCED_BY_DESIGN.keys() - public == set(), "stale allow-list entry"
    assert unused - public == set(), "dead private code"


# every private name that one package module imports from another
# (from .x import _y), as (importer, module, name): a decision that leaks
# into a second module shows here
PRIVATE_IMPORTS = {
    ("apps", "pauli", "_phase_factor"),
    ("cli", "apps", "_meanking_phi1_grid"),
    ("net", "pauli", "_basis_order"),
}


def test_private_names_imported_across_modules_are_the_listed_ones():
    # module-level and function-level imports alike
    found = set()
    for path in Path(gfwigner.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS
