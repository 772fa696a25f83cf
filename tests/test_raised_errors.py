"""Every weylkit error class is raised somewhere in the package, and the API-only refusals name their fault."""

import ast
from pathlib import Path

import pytest

from weylkit import (
    AlgebraElement,
    AlgebraKind,
    FreeExpression,
    Generator,
    IllegalGenerator,
    KindMismatch,
    NakayamaMap,
    ShriekElement,
    ShriekWord,
    SizeMismatch,
    basis_of_degree,
    dehomogenize,
    divide_by_z,
    dual_presentation,
    evaluate,
    gram_matrix,
    homogenize,
    loc_add,
    loc_equals,
    loc_multiply,
    make,
    nakayama,
    normal_form,
    parse,
    relations_of,
    render,
    shriek_basis,
    z_shift,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "weylkit"
A, B, B_SHRIEK = AlgebraKind.A, AlgebraKind.B, AlgebraKind.B_SHRIEK


def error_classes(path: Path) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)}


def raised_names(path: Path) -> set[str]:
    """Names that ``raise X``, ``raise X(...)`` or ``raise mod.X(...)`` in ``path`` raise."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def test_every_error_class_is_raised():
    raised = set().union(*(raised_names(path) for path in SRC.glob("*.py")))
    assert error_classes(SRC / "errors.py") - {"WeylkitError"} - raised == set()


def test_raised_names_sees_every_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from . import errors\n"
        "raise A\n"
        "raise B('text') from None\n"
        "raise errors.C(1)\n"
        "try:\n    pass\nexcept D:\n    raise\n"
    )
    assert raised_names(path) == {"A", "B", "C"}


def _one_fraction_each_n():
    return make(evaluate("x1", 1, B)), make(evaluate("x1", 2, B))


def _nakayama_map_with(name, text):
    """The Nakayama map of n = 1 with the image of ``name`` replaced by ``text`` in B!."""
    return NakayamaMap(1, {**nakayama(1).images, name: evaluate(text, 1, B_SHRIEK)})


# refusals no CLI argv reaches: (call, exception type, message fragment)
_API_REFUSALS = {
    "loc-add-size": (lambda: loc_add(*_one_fraction_each_n()), SizeMismatch, "pair counts differ: 1 vs 2"),
    "loc-equals-size": (lambda: loc_equals(*_one_fraction_each_n()), SizeMismatch, "pair counts differ: 1 vs 2"),
    "loc-multiply-size": (lambda: loc_multiply(*_one_fraction_each_n()), SizeMismatch, "pair counts differ: 1 vs 2"),
    "dehomogenize-kind-a": (lambda: dehomogenize(evaluate("x1", 1, A)), KindMismatch, "expects kind B, got A"),
    "homogenize-kind-b": (lambda: homogenize(evaluate("x1", 1, B)), KindMismatch, "expects kind A, got B"),
    "z-shift-kind-a": (lambda: z_shift(evaluate("x1", 1, A), 1), IllegalGenerator, "no z in this algebra"),
    "relations-of-a": (lambda: relations_of(A, 1), ValueError, "kinds B and C, not A"),
    "dual-presentation-b-shriek": (lambda: dual_presentation(B_SHRIEK, 1), ValueError, "kinds B and C, not B!"),
    "gram-degree-out-of-range": (lambda: gram_matrix(1, 5), ValueError, "degree 5 out of range 0..3"),
    "gram-negative-n": (lambda: gram_matrix(-1, 0), ValueError, "pair count must be nonnegative, got -1"),
    "gram-str-n": (lambda: gram_matrix("2", 0), TypeError, "the pair count must be an int, got '2'"),
    "nakayama-degree-two-image": (
        lambda: _nakayama_map_with("x1", "x1*d1"), ValueError, "image of x1 is not homogeneous of degree 1"
    ),
    "z-scalar-not-z-multiple": (
        lambda: _nakayama_map_with("z", "x1").z_scalar, ValueError, "sigma(z) is not a scalar multiple of z"
    ),
    "generator-family-y": (lambda: Generator("y", 1), ValueError, "bad generator family 'y'"),
    "generator-z-index": (lambda: Generator("z", 1), ValueError, "z carries no index"),
    "generator-x-index-0": (lambda: Generator("x", 0), ValueError, "x/d indices are 1-based"),
    "render-xml": (lambda: render(evaluate("x1", 1, B), "xml"), ValueError, "unknown render format 'xml'"),
    # a pair count that is not a nonnegative int: each printed, built, or failed with an unnamed error
    "element-str-n": (lambda: AlgebraElement(B, "x", {}), TypeError, "pair count must be an int, got 'x'"),
    "shriek-element-str-n": (lambda: ShriekElement("2"), TypeError, "pair count must be an int, got '2'"),
    "element-negative-n": (lambda: AlgebraElement(B, -1, {}), ValueError, "pair count must be nonnegative, got -1"),
    "shriek-element-negative-n": (lambda: ShriekElement(-1), ValueError, "pair count must be nonnegative, got -1"),
    "free-expression-negative-n": (lambda: FreeExpression(-1, ()), ValueError, "pair count must be nonnegative"),
    "generator-negative-n": (
        lambda: AlgebraElement.generator(B, -1, Generator.z()), ValueError, "pair count must be nonnegative"
    ),
    "normal-form-negative-n": (lambda: normal_form(parse("z", -1, B), B), ValueError, "pair count must be nonnegative"),
    "shriek-one-negative-n": (lambda: ShriekElement.one(-1), ValueError, "pair count must be nonnegative"),
    "shriek-generator-negative-n": (
        lambda: ShriekElement.generator(-1, Generator.z()), ValueError, "pair count must be nonnegative"
    ),
    "shriek-word-negative-n": (
        lambda: ShriekElement.word(-1, ShriekWord(0, 0)), ValueError, "pair count must be nonnegative"
    ),
    "one-negative-n": (lambda: AlgebraElement.one(B, -1), ValueError, "pair count must be nonnegative, got -1"),
    "evaluate-negative-n": (lambda: evaluate("z", -1, B), ValueError, "pair count must be nonnegative, got -1"),
    "one-float-n": (lambda: AlgebraElement.one(B, 1.5), TypeError, "pair count must be an int, got 1.5"),
    "one-bool-n": (lambda: AlgebraElement.one(B, True), TypeError, "pair count must be an int, got True"),
    # the graded bases took True as one pair: 3 monomials, 8 words and [[1]]
    "basis-of-degree-bool-n": (lambda: basis_of_degree(B, True, 1), TypeError, "pair count must be an int, got True"),
    "shriek-basis-bool-n": (lambda: shriek_basis(True), TypeError, "pair count must be an int, got True"),
    "gram-bool-n": (lambda: gram_matrix(True, 0), TypeError, "pair count must be an int, got True"),
}


@pytest.mark.parametrize("call, error, fragment", list(_API_REFUSALS.values()), ids=list(_API_REFUSALS))
def test_api_refusal_names_its_fault(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


def test_divide_by_z_zero_returns_its_argument():
    a = evaluate("z*x1 + d1", 1, B)
    assert divide_by_z(a, 0) is a


def test_repr_names_the_algebra_and_an_empty_free_expression_prints_zero():
    assert repr(evaluate("d1*x1", 1, B)) == "<B(n=1) x1*d1 + z^2>"
    assert str(FreeExpression(1, ())) == "0"
