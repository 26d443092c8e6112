"""Every public top-level function and class of the package and the demos
has a caller outside tests, or is a named oracle that tests compare the
lab against.

A name counts as used when it appears outside its own definition as a
`Name` (`f(...)`), an `Attribute` (`lm.f(...)`) or a string constant equal
to it (`objectives._TABLE` dispatches by string), in `src/unlearnlab/` or
`demos/`. The check is by name only, so it is approximate: a name that
some unrelated attribute shares counts as used, so a dead name can hide
that way: a graph op `log` would pass on the strength of `np.log`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "unlearnlab").glob("*.py")) + sorted(
    (ROOT / "demos").glob("*.py"))

# Public names that only tests call, each with why `src/` keeps it.
ORACLES = {
    "autodiff.finite_diff": "central differences that every reverse-mode "
                            "gradient test is checked against",
    "dynamics.softmax_jacobian": "the A matrix that akg_check applies "
                                 "without forming it",
    "dynamics.entk_block": "the explicit eNTK block that akg_check's "
                           "contracted J_o @ g is checked against",
    "lm.token_logprobs": "the one-pair oracle that the batched scorers "
                         "are compared against",
}


def _definitions_and_uses():
    defs = {}   # "module.name" -> the node defining it
    uses = []   # (name, the top-level statement the use sits in)
    for path in SOURCES:
        mod = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not top.name.startswith("_")):
                defs[f"{mod}.{top.name}"] = top
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.append((node.id, top))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, top))
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    uses.append((node.value, top))
    return defs, uses


def _unreferenced():
    defs, uses = _definitions_and_uses()
    used = {}
    for name, top in uses:
        used.setdefault(name, set()).add(id(top))
    return sorted(full for full, node in defs.items()
                  if used.get(full.split(".", 1)[1], set()) - {id(node)}
                  == set())


def test_every_public_name_has_a_caller_or_is_an_oracle():
    dead = [name for name in _unreferenced() if name not in ORACLES]
    assert not dead, f"public names with no caller outside tests: {dead}"


def test_every_oracle_is_defined_and_still_caller_free():
    stale = [name for name in ORACLES if name not in _unreferenced()]
    assert not stale, f"ORACLES entries gone or now called: {stale}"
