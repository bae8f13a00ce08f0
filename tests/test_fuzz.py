"""Mutated input files through the whole CLI: every outcome is an exit code and at most one error line.

Four seed documents (the Kummer surface as explicit sectors, the K3 diamond
file and both generator files) are mutated by replacing one value with a
hostile one, dropping a key or adding an unknown key, then run through
`diamond` in every format, `check` and `partners <file> kummer2`.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from orbikit import build_kummer
from orbikit.cli import RENDERERS, main
from orbikit.formats import diamond_to_obj, presentation_to_obj
from support import K3_DIAMOND

SEEDS = [
    presentation_to_obj(build_kummer(2)),
    diamond_to_obj("k3", K3_DIAMOND),
    {"family": "kummer", "params": {"torus_dim_n": 2}, "name": "kummer2"},
    {"family": "projective_quotient", "params": {"proj_dim_n": 2, "cyclic_orders": [3], "weights": [[0, 1, 2]]}},
]

POOL = [-1, 0, 1, 2, 3, 10**9, True, False, None, 0.5, 2.0, "1/2", "2/4", "x", [], [1], [[0]], {}, {"p": 0}]

COMMANDS = [["diamond", "{}", "--format", fmt] for fmt in RENDERERS] + [["check", "{}"], ["partners", "{}", "kummer2"]]


def _paths(doc, path=()):
    """The path of `doc` itself and of every value nested in it."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(["replace", "drop", "add"]))
        if kind == "replace":
            path = draw(st.sampled_from(paths))
            value = copy.deepcopy(draw(st.sampled_from(POOL)))
            if not path:
                doc = value
                continue
            _at(doc, path[:-1])[path[-1]] = value
        elif kind == "drop":
            keyed = [p for p in paths if p and isinstance(p[-1], str)]
            if keyed:
                path = draw(st.sampled_from(keyed))
                del _at(doc, path[:-1])[path[-1]]
        else:
            objects = [p for p in paths if isinstance(_at(doc, p), dict)]
            if objects:
                _at(doc, draw(st.sampled_from(objects)))["unknown_field"] = 1
    return doc


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(doc=mutated_documents())
def test_mutated_files_exit_with_a_code_and_one_error_line(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([arg.format(path) for arg in command])
        assert code in range(6), (command, doc)
        stderr = err.getvalue()
        assert stderr == "" or (stderr.count("\n") == 1 and stderr.startswith("error: ")), (command, stderr)
