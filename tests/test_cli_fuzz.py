"""The command-line driver on generated documents, in process.

Systems are drawn close to their schema, with any field liable to be
replaced by arbitrary JSON.  Other documents start from a valid system,
precubical set or alphabet and have a few nodes replaced, dropped, or
moved to a key that looks like an integer but is not.  Whatever the input,
``check``, ``realize``, ``cubify`` and ``export`` must exit 0, 1 or 2
and raise nothing.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from hdts import DEFAULT_ALPHABET, cube, make_precube, standard_cube
from hdts.cli import main
from hdts.serialize import alphabet_to_json, hdts_to_json, precube_to_json

LABELS = ["a", "abar", "b", "tau"]
ODD_KEYS = ["\u00b2", "\u00b2,1", "--1", "1,2", "x"]

scalars = st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from(LABELS + ODD_KEYS)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(ODD_KEYS + ["0", "1"]), inner, max_size=3),
    max_leaves=6,
)


def maybe(strategy):
    """``strategy`` seven times in eight, arbitrary JSON otherwise."""
    return st.one_of(*[strategy] * 7, junk)


ids = st.integers(0, 3)

action = maybe(
    st.fixed_dictionaries({"id": maybe(st.integers(1, 3)), "label": maybe(st.sampled_from(LABELS))})
)
transition_ = maybe(
    st.fixed_dictionaries(
        {
            "src": maybe(ids),
            "acts": maybe(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(sorted)),
            "tgt": maybe(ids),
        }
    )
)
systems = st.fixed_dictionaries(
    {"states": maybe(st.lists(ids, max_size=4, unique=True))},
    optional={
        "actions": maybe(st.lists(action, max_size=3)),
        "transitions": maybe(st.lists(transition_, max_size=4)),
    },
)

SEEDS = [
    hdts_to_json(cube(("a", "b"))),
    precube_to_json(standard_cube(("a", "b"))),
    precube_to_json(make_precube({0: (0,)}, {}, {}, {}, {0: "p"}, 0)),
    alphabet_to_json(DEFAULT_ALPHABET),
]


@st.composite
def mutated(draw, seed):
    """``seed`` with up to three nodes replaced by arbitrary JSON, dropped,
    or (in an object) moved to a key that only looks right."""
    doc = copy.deepcopy(seed)
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and draw(st.integers(0, 3)):
                node = node[key]
                continue
            how = draw(st.sampled_from(["junk", "drop", "rename"]))
            if how == "junk":
                node[key] = draw(junk)
            elif how == "drop" or isinstance(node, list):
                del node[key]
            else:
                node[draw(st.sampled_from(ODD_KEYS))] = node.pop(key)
            break
    return doc


commands = st.sampled_from(
    [
        ["check"],
        ["check", "--alphabet"],
        ["realize"],
        ["cubify"],
        ["export"],
        ["export", "--format", "json"],
        ["export", "--alphabet"],
    ]
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    doc=st.one_of(systems, *map(mutated, SEEDS[:3]), junk),
    alphabet=mutated(SEEDS[3]),
    command=commands,
)
def test_cli_exits_0_1_or_2_and_raises_nothing(tmp_path, doc, alphabet, command):
    path, alphabet_path = tmp_path / "input.json", tmp_path / "alphabet.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    alphabet_path.write_text(json.dumps(alphabet), encoding="utf-8")
    argv = [command[0], str(path)] + command[1:]
    if argv[-1] == "--alphabet":
        argv.append(str(alphabet_path))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
