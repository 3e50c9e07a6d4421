"""Every public definition of obskit has a user outside the tests.

A public top-level function or class counts as used when its name is read
somewhere in `src/obskit` outside its own definition, or in `scripts/`.
The allowlist names the definitions that only the tests read, on purpose.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> why it stays although only the tests read it
TEST_ONLY = {
    "immersion_by_liftings": "the lifting-walk oracle the immersion engine is checked against",
    "immersion_reachable_set": "the lifting-walk oracle the immersion engine is checked against",
    "layout_treewidth_cost": "prices a layout independently of the treewidth search",
    "layout_pathwidth_cost": "prices a layout independently of the pathwidth search",
    "layout_cutwidth_cost": "prices a layout independently of the cutwidth search",
    "to_graph6": "the writer that pins the graph6 reader the CLI uses",
    "format_poset_text": "the writer that pins the poset parser the CLI uses",
    "format_class_spec": "the writer that pins the class-spec parser",
    "fan": "perfbench builds its fan patterns through it by name",
    "complete_bipartite": "perfbench builds its K_{2,3} pattern through it by name",
}


def _names_read(tree, skip=None):
    skipped = {id(n) for n in ast.walk(skip)} if skip else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_public_definition_has_a_user_outside_the_tests():
    modules = {p.stem: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "obskit").glob("*.py"))}
    scripts = set().union(*(_names_read(ast.parse(p.read_text()))
                            for p in sorted((ROOT / "scripts").glob("*.py"))))
    unused = set()
    for name, tree in modules.items():
        elsewhere = scripts.union(*(_names_read(t) for other, t in modules.items()
                                    if other != name))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in elsewhere
                    and node.name not in _names_read(tree, skip=node)):
                unused.add(node.name)
    assert unused == set(TEST_ONLY)
