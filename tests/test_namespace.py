"""The lazy package namespace binds the same names as the eager one did, and
every public name of the package is used."""

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
               "NonCommutingGenerators", "NonPrimitivePolynomial", "SingularBasis"],
    "galois": ["GF2Field", "PRIMITIVE_POLYS", "dual_basis", "field_new",
               "power_ordering"],
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
    with pytest.raises(AttributeError, match="no_such_name"):
        gfwigner.no_such_name
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
    "dual_basis": "the dual basis that the p axis is expanded in",
    "compose": "the exact product of two translations; StabilizerGroup walks "
               "the same rule on plain (a, b, s) ints",
}


def test_every_public_name_is_used_or_kept_for_a_stated_reason():
    # a reference is a Name, an Attribute or an import alias anywhere in
    # src/gfwigner or the acceptance tests
    package = Path(gfwigner.__file__).parent
    acceptance = Path(__file__).with_name("test_acceptance.py")
    defined, references = set(), set()
    for path in [*package.glob("*.py"), acceptance]:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.add(node.id)
            elif isinstance(node, ast.Attribute):
                references.add(node.attr)
            elif isinstance(node, ast.alias):
                references.add(node.asname or node.name)
        if path == acceptance:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, ast.FunctionDef)}
    unreferenced = {name for name in defined
                    if not name.rpartition(".")[2].startswith("_")
                    and name.rpartition(".")[2] not in references}
    assert unreferenced - UNREFERENCED_BY_DESIGN.keys() == set(), "dead public code"
    assert UNREFERENCED_BY_DESIGN.keys() - unreferenced == set(), "stale allow-list entry"
