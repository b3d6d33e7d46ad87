"""Every public function and method of the package has a caller in the
package, a demo or the benchmark, or a stated reason to stay: code that no
path reaches is deleted, not kept in case.  Read by `ast` from the
sources; docstrings are not references, the other strings are (the
benchmark names spans as "layer.function" strings)."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the public names that nothing in src/, demos/ or perfbench/ reaches, each
# with the reason it stays
ALLOWED = {
    "resolve_subgroup": "tests/test_acceptance.py",
    "central_idempotents": "tests/test_acceptance.py",
    "embed_truncate": "tests/test_acceptance.py",
    "diagonal_tensor_check": "tests/test_acceptance.py",
    "local_pointed_groups": "ROADMAP item 7",
    "pointed_group_contains": "ROADMAP item 7",
}


def public_definitions() -> dict:
    """name -> the places it is defined, module or module.Class."""
    out = {}
    for path in sorted((ROOT / "src" / "blockfusion").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [(node, path.stem)]
            if isinstance(node, ast.ClassDef):
                members = [(m, f"{path.stem}.{node.name}") for m in node.body]
            for m, where in members:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    out.setdefault(m.name, []).append(where)
    return out


def referenced_names() -> set:
    """Every identifier, attribute, imported name and word of a non-doc
    string in the Python files of src/, demos/ and perfbench/."""
    out = set()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            docs = {id(n.body[0].value) for n in ast.walk(tree)
                    if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))
                    and n.body and isinstance(n.body[0], ast.Expr)
                    and isinstance(n.body[0].value, ast.Constant)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    out.add(node.id)
                elif isinstance(node, ast.Attribute):
                    out.add(node.attr)
                elif isinstance(node, ast.alias):
                    out.add(node.name.rsplit(".", 1)[-1])
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in docs):
                    out.update(re.findall(r"\w+", node.value))
    return out


def test_every_public_function_has_a_caller_or_a_reason():
    defined, referenced = public_definitions(), referenced_names()
    unreached = set(defined) - referenced
    assert unreached == set(ALLOWED), {n: defined.get(n) for n in unreached ^ set(ALLOWED)}
