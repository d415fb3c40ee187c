"""JSON and DOT serialization.

Readers are strict: any violation of the documented schemas (unsorted
action multisets, dangling references, malformed words, a JSON boolean
where an integer belongs, a key the schema does not use) is rejected
with a path-qualified message.  Writers sort everything, so identical
values produce byte-identical documents.  Sets, systems and the cubify
document are written from their fields, to the bytes ``json.dumps`` gives
for their dict forms (``precube_to_json``, ``hdts_to_json``, indent 2).
"""

from __future__ import annotations

import json
from functools import lru_cache

from .alphabet import Alphabet
from .core import Action, Transition, WeakHDTS
from .precube import PrecubeError, PrecubicalSet, make_precube

DEFAULT_TAU = "tau"
_quote_json = json.encoder.encode_basestring_ascii  # the escaper of json.dumps
_ROW_KEYS = {0: ("id",), 1: ("id", "d10", "d11", "label")}  # higher cells: faces, syms


class SchemaError(ValueError):
    pass


def _need(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _known(obj: dict, keys: tuple, path: str) -> None:
    """Reject the first key of ``obj`` that is not one of ``keys``."""
    for key in obj:
        _need(key in keys, path + key, "unexpected key")


def _int_key(key: str, signed: bool = False) -> bool:
    """Is ``key`` a plain integer, as ``str`` writes it: ASCII digits with
    no leading zero, after a minus sign only if ``signed``?  ``"05"`` and
    ``"5"`` would otherwise name one id, and the later key would win."""
    digits = key[1:] if signed and key.startswith("-") else key
    return digits.isascii() and digits.isdigit() and str(int(key)) == key


def _int(x) -> bool:
    """Is ``x`` a JSON integer?  ``bool`` is an ``int`` subclass, but
    ``true`` and ``false`` are not ids."""
    return isinstance(x, int) and not isinstance(x, bool)


def dumps(doc) -> str:
    """``doc`` as sorted JSON indented by 2, with a final newline.

    ``doc`` is a JSON value, a ``PrecubicalSet``, a ``WeakHDTS``, or a dict
    with string keys holding some of them.  Sets and systems are written
    from their fields, to the bytes ``json.dumps`` gives for their dict
    forms; a dict holding them, from its values' texts indented once more.
    """
    if isinstance(doc, dict) and any(isinstance(v, (PrecubicalSet, WeakHDTS))
                                     for v in doc.values()):
        parts = (f"  {_quote_json(k)}: " + _text(doc[k])[:-1].replace("\n", "\n  ")
                 for k in sorted(doc))
        return "{\n" + ",\n".join(parts) + "\n}\n"
    return _text(doc)


def _text(doc) -> str:
    """``dumps`` of a set, a system or a JSON value."""
    if isinstance(doc, PrecubicalSet):
        return _precube_text(doc)
    if isinstance(doc, WeakHDTS):
        return _hdts_text(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# alphabets


def alphabet_to_json(cfg: Alphabet) -> dict:
    """The alphabet as JSON: the inverse of ``alphabet_from_json``."""
    pairs = sorted({tuple(sorted((a, b))) for a, b in cfg.pairs})
    return {
        "labels": sorted(cfg.labels),
        "tau": cfg.tau,
        "involution": [list(p) for p in pairs],
    }


def alphabet_from_json(doc) -> Alphabet:
    _need(isinstance(doc, dict), "$", "alphabet must be an object")
    _known(doc, ("labels", "tau", "involution"), "")
    _need(isinstance(doc.get("labels"), list), "labels", "must be a list")
    for k, x in enumerate(doc["labels"]):
        _need(isinstance(x, str), f"labels[{k}]", "must be a string")
    _need(isinstance(doc.get("tau"), str), "tau", "must be a string")
    pairs = doc.get("involution", [])
    _need(isinstance(pairs, list), "involution", "must be a list of pairs")
    for k, p in enumerate(pairs):
        _need(
            isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p),
            f"involution[{k}]",
            "must be a pair of labels",
        )
    return Alphabet(frozenset(doc["labels"]), doc["tau"], tuple(tuple(p) for p in pairs))


# ---------------------------------------------------------------------------
# transition systems


def hdts_to_json(X: WeakHDTS) -> dict:
    return {
        "states": sorted(X.states),
        "actions": [{"id": a.id, "label": a.label} for a in X.actions],
        "transitions": [
            {"src": t.src, "acts": list(t.acts), "tgt": t.tgt}
            for t in sorted(X.transitions)
        ],
    }


_ACTION_ROW = '    {\n      "id": %s,\n      "label": %s\n    }'
_TRANSITION_ROW = '    {\n      "acts": [\n%s\n      ],\n      "src": %s,\n      "tgt": %s\n    }'


def _hdts_text(X: WeakHDTS) -> str:
    """``dumps(hdts_to_json(X))``, written from ``X``'s fields."""
    rows = {
        "actions": [_ACTION_ROW % (a.id, _quote_json(a.label)) for a in X.actions],
        "states": [f"    {s}" for s in sorted(X.states)],
        "transitions": [_TRANSITION_ROW % (",\n".join(f"        {a}" for a in t.acts), t.src, t.tgt)
                        for t in sorted(X.transitions, key=lambda t: (t.src, t.acts, t.tgt))],
    }
    out = (f'  "{k}": ' + ("[\n" + ",\n".join(r) + "\n  ]" if r else "[]") for k, r in rows.items())
    return "{\n" + ",\n".join(out) + "\n}\n"


def hdts_from_json(doc) -> WeakHDTS:
    _need(isinstance(doc, dict), "$", "system must be an object")
    _known(doc, ("states", "actions", "transitions"), "")
    states = doc.get("states")
    _need(isinstance(states, list) and all(_int(s) for s in states),
          "states", "must be a list of integers")
    _need(len(set(states)) == len(states), "states", "duplicate state ids")
    for key in ("actions", "transitions"):
        _need(isinstance(doc.get(key, []), list), key, "must be a list")
    actions = []
    seen = set()
    for k, a in enumerate(doc.get("actions", ())):
        path = f"actions[{k}]"
        _need(isinstance(a, dict), path, "must be an object")
        _known(a, ("id", "label"), f"{path}.")
        _need(_int(a.get("id")), f"{path}.id", "must be an integer")
        _need(isinstance(a.get("label"), str), f"{path}.label", "must be a string")
        _need(a["id"] not in seen, f"{path}.id", "duplicate action id")
        seen.add(a["id"])
        actions.append(Action(a["id"], a["label"]))
    state_set = set(states)
    transitions = []
    for k, t in enumerate(doc.get("transitions", ())):
        path = f"transitions[{k}]"
        _need(isinstance(t, dict), path, "must be an object")
        _known(t, ("src", "acts", "tgt"), f"{path}.")
        acts = t.get("acts")
        _need(isinstance(acts, list) and acts, f"{path}.acts", "must be a non-empty list")
        _need(all(_int(a) for a in acts), f"{path}.acts", "must hold integers")
        _need(acts == sorted(acts), f"{path}.acts", "must be sorted ascending")
        _need(all(a in seen for a in acts), f"{path}.acts", "unknown action id")
        for end in ("src", "tgt"):
            _need(_int(t.get(end)), f"{path}.{end}", "must be an integer")
            _need(t[end] in state_set, f"{path}.{end}", "unknown state id")
        transitions.append(Transition(t["src"], tuple(acts), t["tgt"]))
    return WeakHDTS(frozenset(states), tuple(actions), frozenset(transitions))


# ---------------------------------------------------------------------------
# precubical sets


def precube_to_json(K: PrecubicalSet) -> dict:
    dims: dict[str, list] = {}
    for n in K.dims():
        faces, syms, labels = K.faces[n], K.syms[n], K.labels[n]
        rows = []
        for c in K.ncells(n):
            row = {"id": c}
            if n == 1:
                row["d10"], row["d11"] = faces[c]
            elif n >= 2:
                keys = (f"{i},{alpha}" for i in range(1, n + 1) for alpha in (0, 1))
                row["faces"] = dict(zip(keys, faces[c]))
                row["syms"] = {str(i): s for i, s in enumerate(syms[c], 1)}
            if n:
                row["label"] = list(labels[c])
            rows.append(row)
        dims[str(n)] = rows
    doc: dict = {"dims": dims}
    if K.initial is not None:
        doc["initial"] = K.initial
    if K.decoration:
        doc["decoration"] = {str(v): d for v, d in sorted(K.decoration.items())}
    return doc


@lru_cache(maxsize=None)
def _row_template(n: int) -> tuple[str, list | None, list | None]:
    """The %-template of an n-cell's row in ``dumps``'s precube text,
    and the order in which it takes the entries of the cell's face row
    and swap row, or None where that is the rows' own order.  Keys sort
    as strings, as under ``sort_keys``: "10,0" comes before "2,0".
    Slots: faces, id, letters, swaps."""
    pad = " " * 8
    if n == 0:
        return f"      {{\n{pad}\"id\": %s\n      }}", None, None
    letters = ",\n".join([f"{pad}  %s"] * n)
    label = f"{pad}\"label\": [\n{letters}\n{pad}]"
    if n == 1:
        head = f"{pad}\"d10\": %s,\n{pad}\"d11\": %s,\n"
        return f"      {{\n{head}{pad}\"id\": %s,\n{label}\n      }}", None, None
    faces = sorted(range(2 * n), key=lambda j: f"{j // 2 + 1},{j % 2}")
    syms = sorted(range(n - 1), key=lambda j: str(j + 1))
    face_rows = ",\n".join(f"{pad}  \"{j // 2 + 1},{j % 2}\": %s" for j in faces)
    sym_rows = ",\n".join(f"{pad}  \"{j + 1}\": %s" for j in syms)
    text = (
        f"      {{\n{pad}\"faces\": {{\n{face_rows}\n{pad}}},\n{pad}\"id\": %s,\n"
        f"{label},\n{pad}\"syms\": {{\n{sym_rows}\n{pad}}}\n      }}"
    )
    in_order = faces == sorted(faces) and syms == sorted(syms)
    return text, None if in_order else faces, None if in_order else syms


def _precube_text(K: PrecubicalSet) -> str:
    """``dumps(precube_to_json(K))``, written from ``K``'s rows.  Rows
    are joined per dimension and the pieces once at the end, so the
    text is held at most twice over."""
    out = ["{\n"]
    if K.decoration:
        entries = sorted((str(v), _quote_json(d)) for v, d in K.decoration.items())
        rows = ",\n".join(f'    "{v}": {d}' for v, d in entries)
        out.append(f'  "decoration": {{\n{rows}\n  }},\n')
    out.append('  "dims": {' if K.cells else '  "dims": {}')
    sep = "\n"
    for n in sorted(K.cells, key=str):
        template, face_order, sym_order = _row_template(n)
        faces, syms, labels = K.faces[n], K.syms[n], K.labels[n]
        rows = []
        for c in K.cells[n]:
            frow, srow = faces[c], syms[c]
            if face_order:
                frow, srow = [frow[j] for j in face_order], [srow[j] for j in sym_order]
            rows.append(template % (*frow, c, *map(_quote_json, labels[c]), *srow))
        out += (f'{sep}    "{n}": [\n', ",\n".join(rows), "\n    ]")
        sep = ",\n"
    if K.cells:
        out.append("\n  }")
    if K.initial is not None:
        out.append(f',\n  "initial": {K.initial}')
    out.append("\n}\n")
    return "".join(out)


def precube_from_json(doc) -> PrecubicalSet:
    _need(isinstance(doc, dict), "$", "precubical set must be an object")
    _known(doc, ("dims", "initial", "decoration"), "")
    dims = doc.get("dims")
    _need(isinstance(dims, dict), "dims", "must be an object")
    cells: dict[int, list[int]] = {}
    faces, syms, labels = {}, {}, {}
    for key in sorted(dims, key=lambda s: int(s) if _int_key(s) else -1):
        _need(_int_key(key), f"dims.{key}", "dimension keys must be plain integers")
        n = int(key)
        rows = dims[key]
        _need(isinstance(rows, list), f"dims.{key}", "must be a list of cells")
        ids = []
        for k, row in enumerate(rows):
            path = f"dims.{key}[{k}]"
            _need(isinstance(row, dict), path, "must be an object")
            _known(row, _ROW_KEYS.get(n, ("id", "faces", "syms", "label")), f"{path}.")
            _need(_int(row.get("id")), f"{path}.id", "must be an integer")
            c = row["id"]
            ids.append(c)
            if n == 1:
                for fld, (i, alpha) in (("d10", (1, 0)), ("d11", (1, 1))):
                    _need(_int(row.get(fld)), f"{path}.{fld}", "must be an integer")
                    faces[(1, c, i, alpha)] = row[fld]
            elif n >= 2:
                fobj = row.get("faces")
                _need(isinstance(fobj, dict), f"{path}.faces", "must be an object")
                for fk, v in fobj.items():
                    parts = fk.split(",")
                    _need(
                        len(parts) == 2 and _int_key(parts[0]) and parts[1] in ("0", "1"),
                        f"{path}.faces.{fk}",
                        "keys must look like 'i,alpha'",
                    )
                    _need(1 <= int(parts[0]) <= n, f"{path}.faces.{fk}",
                          f"face index must be in 1..{n}")
                    _need(_int(v), f"{path}.faces.{fk}", "must be an integer")
                    faces[(n, c, int(parts[0]), int(parts[1]))] = v
                sobj = row.get("syms", {})
                _need(isinstance(sobj, dict), f"{path}.syms", "must be an object")
                for sk, v in sobj.items():
                    _need(_int_key(sk), f"{path}.syms.{sk}", "keys must be plain integers")
                    _need(1 <= int(sk) < n, f"{path}.syms.{sk}",
                          f"swap index must be in 1..{n - 1}")
                    _need(_int(v), f"{path}.syms.{sk}", "must be an integer")
                    syms[(n, c, int(sk))] = v
            if n >= 1:
                word = row.get("label")
                _need(
                    isinstance(word, list) and all(isinstance(x, str) for x in word),
                    f"{path}.label",
                    "must be a list of labels",
                )
                _need(len(word) == n, f"{path}.label", f"must have {n} letters")
                labels[(n, c)] = tuple(word)
        _need(len(set(ids)) == len(ids), f"dims.{key}", "duplicate cell ids")
        cells[n] = ids
    vertices = set(cells.get(0, ()))
    decoration = {}
    _need(isinstance(doc.get("decoration", {}), dict), "decoration", "must be an object")
    for vk, d in doc.get("decoration", {}).items():
        _need(_int_key(vk, signed=True) and int(vk) in vertices, f"decoration.{vk}",
              "keys must be vertex ids")
        _need(isinstance(d, str), f"decoration.{vk}", "must be a string")
        decoration[int(vk)] = d
    initial = doc.get("initial")
    if initial is not None:
        _need(_int(initial) and initial in vertices, "initial", "must be a vertex id")
    try:
        return make_precube(cells, faces, syms, labels, decoration, initial)
    except PrecubeError as exc:
        raise SchemaError(f"dims: {exc}") from exc


def detect_kind(doc) -> str:
    if isinstance(doc, dict) and "dims" in doc:
        return "precube"
    if isinstance(doc, dict) and "states" in doc:
        return "hdts"
    raise SchemaError("$: neither a transition system nor a precubical set")


# ---------------------------------------------------------------------------
# DOT


def _quote(s) -> str:
    return '"%s"' % str(s).replace("\\", "\\\\").replace('"', '\\"')


def hdts_to_dot(X: WeakHDTS, tau: str = DEFAULT_TAU) -> str:
    labels = X.label_map()
    lines = ["digraph hdts {"]
    for s in sorted(X.states):
        lines.append(f"  s{s} [shape=circle, label={_quote(s)}];")
    for t in sorted(X.transitions):
        if t.arity != 1:
            continue
        lab = labels[t.acts[0]]
        style = ", style=dashed" if lab == tau else ""
        lines.append(f"  s{t.src} -> s{t.tgt} [label={_quote(lab)}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def precube_to_dot(K: PrecubicalSet, tau: str = DEFAULT_TAU) -> str:
    lines = ["digraph precube {"]
    for v in K.vertices:
        name = K.decoration.get(v, str(v))
        shape = "doublecircle" if v == K.initial else "circle"
        lines.append(f"  v{v} [shape={shape}, label={_quote(name)}];")
    for e in K.ncells(1):
        lab = K.label(1, e)[0]
        style = ", style=dashed" if lab == tau else ""
        lines.append(
            f"  v{K.face(1, e, 1, 0)} -> v{K.face(1, e, 1, 1)} "
            f"[label={_quote(lab)}{style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
