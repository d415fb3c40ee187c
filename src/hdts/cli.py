"""Command-line driver.

Commands: check, realize, cubify, export, ccs compile, fixtures.
Exit codes: 0 success / all axioms pass, 1 axiom failure, 2 input
error (a term that nests too deeply, or whose product or region is too
large, to compile, an input file that is not UTF-8 text and an output
that cannot be written included), 3 internal error.  All output is
deterministic: identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import ccs, fixtures, serialize
from .alphabet import Alphabet, ConfigError
from .core import StructureError, validate
from .precube import PrecubeError, hda_check
from .realize import cubify, realize
from .serialize import SchemaError


class _InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise _InputError(f"{path} nests too deeply to read")


def _load_alphabet(path: str | None) -> Alphabet | None:
    if path is None:
        return None
    return serialize.alphabet_from_json(_load_json(path))


def _load_any(path: str):
    doc = _load_json(path)
    kind = serialize.detect_kind(doc)
    if kind == "hdts":
        return kind, serialize.hdts_from_json(doc)
    return kind, serialize.precube_from_json(doc)


def _check_labels(obj, kind, cfg: Alphabet | None):
    if cfg is None:
        return
    if kind == "hdts":
        for a in obj.actions:
            cfg.check_label(a.label)
    else:
        for n in obj.dims():
            for c in obj.ncells(n):
                for lab in obj.label(n, c):
                    cfg.check_label(lab)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write {out}: {exc}")


def cmd_check(args) -> int:
    kind, obj = _load_any(args.path)
    if args.kind != "auto" and args.kind != kind:
        raise _InputError(f"{args.path} holds a {kind}, not a {args.kind}")
    _check_labels(obj, kind, _load_alphabet(args.alphabet))
    if kind == "hdts":
        report = validate(obj).as_dict()
        passing = all(v for k, v in report.items() if k != "witnesses")
    else:
        shells = hda_check(obj)
        r = validate(realize(obj).system)
        report = {
            "strong": r.uisa,
            "hda": not shells,
            "csa1": r.csa1,
            "uisa": r.uisa,
            "witnesses": [
                {"dim": n, "first": x, "second": y} for n, x, y in shells
            ]
            + [dict(w, axiom=name) for name, w in sorted(r.witnesses.items())],
        }
        passing = report["strong"] and report["hda"] and report["csa1"]
    _emit(serialize.dumps(report), args.out)
    return 0 if passing else 1


def cmd_realize(args) -> int:
    kind, obj = _load_any(args.path)
    if kind != "precube":
        raise _InputError(f"{args.path} does not hold a precubical set")
    system = realize(obj).system
    _emit(serialize.dumps(system), args.out)
    return 0


def cmd_cubify(args) -> int:
    kind, obj = _load_any(args.path)
    if kind != "hdts":
        raise _InputError(f"{args.path} does not hold a transition system")
    result = cubify(obj)
    attestation = {"state_bijection": True, "states": len(obj.states),
                   "actions_in": len(obj.actions), "actions_out": len(result.system.actions)}
    parts = {"complex": result.complex, "system": result.system}
    if args.out_prefix:
        prefix = Path(args.out_prefix)
        try:
            prefix.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _InputError(f"cannot write {prefix.parent}: {exc}")
        for part, value in parts.items():
            _emit(serialize.dumps(value), f"{prefix}.{part}.json")
    shown = attestation if args.out_prefix else {**parts, "attestation": attestation}
    sys.stdout.write(serialize.dumps(shown))
    return 0


def cmd_export(args) -> int:
    kind, obj = _load_any(args.path)
    cfg = _load_alphabet(args.alphabet)
    _check_labels(obj, kind, cfg)
    tau = cfg.tau if cfg is not None else serialize.DEFAULT_TAU
    if args.format == "json":
        text = serialize.dumps(obj)
    elif kind == "hdts":
        text = serialize.hdts_to_dot(obj, tau)
    else:
        text = serialize.precube_to_dot(obj, tau)
    _emit(text, args.out)
    return 0


def cmd_ccs_compile(args) -> int:
    cfg = _load_alphabet(args.alphabet)
    if cfg is None:
        raise _InputError("ccs compile requires --alphabet")
    try:
        K = ccs.semantics(ccs.parse(args.term, cfg), cfg, args.unfold)
    except RecursionError:
        raise _InputError("the term nests too deeply to compile")
    if K.truncated:
        print("warning: recursion truncated at the unfold bound", file=sys.stderr)
    if args.out == "json":
        _emit(serialize.dumps(K), args.output)
    else:
        _emit(serialize.precube_to_dot(K, cfg.tau), args.output)
    return 0


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in fixtures.fixture_names():
            print(name)
        return 0
    _, obj = fixtures.build_fixture(args.name)
    _emit(serialize.dumps(obj), args.out)
    return 0


def _unfold_depth(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        depth = -1
    if depth < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return depth


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdts",
        description="Check, realize, cubify and export higher dimensional "
        "transition systems and labelled symmetric precubical sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom checks on a file")
    p.add_argument("path")
    p.add_argument("--kind", choices=["auto", "hdts", "precube"], default="auto")
    p.add_argument("--alphabet", help="alphabet config JSON; labels are validated")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("realize", help="realize a precubical set as a system")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("cubify", help="rebuild a system from its cubes")
    p.add_argument("path")
    p.add_argument("--out-prefix", help="write PREFIX.complex.json and PREFIX.system.json")
    p.set_defaults(func=cmd_cubify)

    p = sub.add_parser("export", help="export a file as DOT or canonical JSON")
    p.add_argument("path")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--alphabet")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("ccs", help="process-term commands")
    ccs_sub = p.add_subparsers(dest="ccs_command", required=True)
    c = ccs_sub.add_parser("compile", help="compile a term to a precubical set")
    c.add_argument("term")
    c.add_argument("--alphabet", required=True)
    c.add_argument("--unfold", type=_unfold_depth, default=8)
    c.add_argument("--out", choices=["json", "dot"], default="json")
    c.add_argument("--output", help="file to write instead of stdout")
    c.set_defaults(func=cmd_ccs_compile)

    p = sub.add_parser("fixtures", help="list or emit bundled fixtures")
    fx = p.add_subparsers(dest="action", required=True)
    fx.add_parser("list").set_defaults(func=cmd_fixtures)
    e = fx.add_parser("emit")
    e.add_argument("name")
    e.add_argument("--out")
    e.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        _InputError,
        SchemaError,
        ConfigError,
        StructureError,
        PrecubeError,
        ccs.CcsSyntaxError,
        fixtures.FixtureError,
    ) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never an axiom verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
