"""Command line interface.

Three verbs:

  verify NAME   run a named verification suite, exit 0 iff it passes
  search KIND   identity survey, counterexample hunt, or witness search
  dump WHAT     serialize a model, monoid, orbit, or Hasse diagram

Reports are deterministic for fixed flags.  Wall-clock facts go on
comment lines starting with "# " so byte comparison after dropping
that header is stable across runs.  Every command runs in one
process; --workers is still accepted (at least 1) but changes nothing.
A flag the command does not read, a flag out of its bounds and a
needed flag left out are usage errors, found in one table before any
work; verify passes a suite only the flags that are given, so an unset
one takes the suite's own default.
Exit codes: 0 pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional, Union

from . import idlab, models
from . import monoid as monoid_mod
from .opalg import MAX_GROUND_SIZE, complement_table, elements_of, parse_word
from .suites import SUITES, SuiteReport

OUT_DIR_ENV = "CLOSURELAB_OUT"


def _writable(path: str) -> bool:
    """Whether path names a file that can be written, checked without
    creating it: an existing non-directory the process may write, or a
    new name in a directory it may write."""
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(path) or "."
    return os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)


def _emit(text: Union[str, Iterable[str]], out: Optional[str]) -> None:
    """Write text, or each string it yields, to stdout or to out."""
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)


#: the exact types the C encoder writes as json.dumps does
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encoder(depth: int):
    """The C encoder, with a list's items one per line at this depth."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


def _plain(text: str) -> bool:
    """Whether the C encoder would write text between quotes as it is:
    printable ASCII with no quote or backslash."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _json_key(key) -> str:
    """A dict key's text, with the ": " that follows it."""
    if isinstance(key, str):
        return encode_basestring_ascii(key) + ": "
    return _encoder(0)({key: 0})[1:-2]


def _json_chunks(obj, depth: int = 0) -> Iterator[str]:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2) + "\\n",
    in chunks; at a depth past 0, obj's text as an item there, with no
    newline.  A dict or a list of anything but scalars is written a key
    or an item at a time, so no text longer than one flat item is built.
    A str or an exact int, and a list of only those, is spelled here;
    any other list of scalars is written by one call to the C encoder."""
    pad = "\n" + "  " * (depth + 1)
    end = "" if depth else "\n"
    if isinstance(obj, dict) and obj:
        # keys are sorted, then spelled: 8 before 10
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield ("," if i else "{") + pad + _json_key(key)
            yield from _json_chunks(value, depth + 1)
        yield pad[:-2] + "}" + end
    elif isinstance(obj, (list, tuple)) and obj:
        items = _flat_items(obj, pad, depth)
        if items is None:
            for i, value in enumerate(obj):
                yield ("," if i else "[") + pad
                yield from _json_chunks(value, depth + 1)
            yield pad[:-2] + "]" + end
        else:
            yield f"[{pad}{items}{pad[:-2]}]{end}"
    elif isinstance(obj, str):
        yield encode_basestring_ascii(obj) + end
    elif type(obj) is int:
        yield int.__repr__(obj) + end
    else:
        yield _encoder(0)(obj) + end  # another scalar, [] or {}


def _flat_items(items, pad: str, depth: int) -> Optional[str]:
    """The text between the brackets of a list of only scalars, its
    items joined by "," + pad; None for a list holding anything else.
    A list that starts with a str is classified by one join, which
    fails on any item that is not a str; the types are looked at only
    when it fails or the list starts with something else."""
    if isinstance(items[0], str):
        try:
            text = "".join(items)
        except TypeError:
            pass
        else:
            if _plain(text):
                return '"' + ('",' + pad + '"').join(items) + '"'
            return _encoder(depth + 1)(items)[1:-1]
    kinds = set(map(type, items))
    if kinds == {int}:
        return ("," + pad).join(map(int.__repr__, items))
    if _SCALARS.issuperset(kinds):
        return _encoder(depth + 1)(items)[1:-1]
    return None


def _meta_header(argv_echo: str, elapsed: float) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return (
        f"# closurelab {argv_echo}\n"
        f"# generated: {stamp} elapsed: {elapsed:.3f}s\n"
    )


def _render_suite(report: SuiteReport, fmt: str, argv_echo: str,
                  elapsed: float) -> Union[str, Iterable[str]]:
    if fmt == "json":
        return _json_chunks(report.data)
    body = "\n".join(report.lines) + "\n"
    return _meta_header(argv_echo, elapsed) + body


# ---------------------------------------------------------------------------
# flags


#: every flag each command reads, with the values it accepts as
#: inclusive (low, high) bounds, None for no bound; main refuses any
#: other flag or value as a usage error before any work starts.  --n is
#: capped by the exhaustive enumeration a command walks, --samples by
#: the seeds one lockstep draw holds, and --maxlen by the identity
#: search's word budget (see the README for its cost); a seed is 0 or
#: more, as random.Random(-s) replays random.Random(s).  Windows span
#: at least 2 elements, and verify's flagged cycle (ground size 2m + 2)
#: and each segment {0..M} (ground size M + 1) fit the table cap.  A
#: dump's cycle is capped lower by its model, except in dump orbit
#: --model section4, which walks it as functions: there --m 1024 and
#: --iters 4096 take about 0.3 s and 31 MB, and --m 4096 about 10 s.
_ANY, _WINDOW = (None, None), {"m": (2, 1024), "M": (2, MAX_GROUND_SIZE - 1)}
_FLAGS = {
    "verify theorem1": {"n": (0, idlab.ENUMERATION_CAP)},
    "verify kuratowski14": {"n": (0, idlab.BLOCKED_ENUMERATION_CAP)},
    "verify theorem2": {
        "n": (0, idlab.PAIR_ENUMERATION_CAP),
        "samples": (1, idlab.SAMPLE_COUNT_CAP),
        "seed": (0, None),
    },
    "verify fixtures": {"n": (0, idlab.PAIR_ENUMERATION_CAP)},
    "verify section4": {"m": (2, (MAX_GROUND_SIZE - 2) // 2)},
    "verify example3": {"M": (2, MAX_GROUND_SIZE - 1)},
    "verify lemma6": {},
    "verify interior": {"n": (0, idlab.ENUMERATION_CAP)},
    "verify pq-closure": {"n": (0, idlab.PAIR_ENUMERATION_CAP)},
    "verify remark-involution": {"n": (0, idlab.ENUMERATION_CAP)},
    "search identities": {
        "n": (0, idlab.PAIR_ENUMERATION_CAP),
        "maxlen": (0, idlab.MAXLEN_CAP),
        "limit": (0, None),
    },
    "search counterexample": {"n": (0, idlab.PAIR_ENUMERATION_CAP), "eq": _ANY},
    "search witness14": {},
    "dump model": dict(_WINDOW, name=_ANY),
    "dump monoid": dict(_WINDOW, model=_ANY, gens=_ANY, cap=(1, None)),
    "dump orbit": dict(_WINDOW, model=_ANY, word=_ANY, start=_ANY, iters=(1, 4096)),
    "dump hasse": dict(_WINDOW, model=_ANY, gens=_ANY, cap=(1, None)),
}

#: the flags a command cannot do without
_NEEDS = {"search counterexample": ("eq",), "dump model": ("name",),
          "dump monoid": ("model",), "dump hasse": ("model",),
          "dump orbit": ("model", "word", "start")}

_SHARED = ("command", "target", "out", "format", "workers")  # checked apart from _FLAGS


def _flag_error(command: str, args) -> Optional[str]:
    """The usage error for the first flag given that command does not
    read or that is out of its bounds, else for the flags it needs and
    lacks; None when there is none."""
    bounds = _FLAGS[command]
    for flag, value in vars(args).items():
        if value is None or flag in _SHARED:
            continue
        if flag not in bounds:
            return f"usage error: {command} does not take --{flag}"
        low, high = bounds[flag]
        if (low is None or low <= value) and (high is None or value <= high):
            continue
        span = f"{low} or more" if high is None else f"{low}..{high}"
        return f"usage error: {command} takes --{flag} {span}, got {value}"
    missing = [f"--{flag}" for flag in _NEEDS.get(command, ()) if getattr(args, flag) is None]
    return f"{command} requires " + ", ".join(missing) if missing else None


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    name = args.target
    # a flag left unset takes the suite's own default
    kwargs = {flag: getattr(args, flag) for flag in _FLAGS[f"verify {name}"]
              if getattr(args, flag) is not None}

    # A ValueError raised inside a suite is a bug, not a usage error,
    # and propagates.
    started = time.perf_counter()
    try:
        report = SUITES[name](**kwargs)
    except RuntimeError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    echo = f"verify {name}"
    _emit(_render_suite(report, args.format, echo, elapsed), args.out)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    n = 2 if args.n is None else args.n
    if args.target == "identities":
        maxlen = 13 if args.maxlen is None else args.maxlen
        equations, scope_desc, examined = idlab.search_identities(
            maxlen, n=n, limit=args.limit
        )
        if args.format == "json":
            # streamed, as json.dumps(payload, sort_keys=True, indent=2)
            entry = ('\n  {{\n    "lhs": {},\n    "rhs": {},\n    "scope": {},\n'
                     '    "status": "holds"\n  }}')
            scope = encode_basestring_ascii(scope_desc)
            entries = (("," if i else "[")
                       + entry.format(encode_basestring_ascii(lhs), encode_basestring_ascii(rhs),
                                      scope)
                       for i, (lhs, rhs) in enumerate(equations))
            _emit(chain(entries, ["\n]\n"]) if equations else "[]\n", args.out)
        else:
            lines = [
                f"search identities maxlen={maxlen} scope={scope_desc}",
                f"words examined: {examined}",
                f"equations found: {len(equations)}",
            ]
            lines += [f"{lhs or '1'} = {rhs or '1'}" for lhs, rhs in equations]
            _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.target == "counterexample":
        if "=" not in args.eq:
            print(f"usage error: search counterexample takes --eq LHS=RHS, got {args.eq!r}",
                  file=sys.stderr)
            return 2
        # a word that does not parse is a usage error, and nothing else
        try:
            lhs, rhs = (parse_word(side.strip()) for side in args.eq.split("=", 1))
        except ValueError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return 2
        cert = idlab.search_counterexample(lhs, rhs, max_n=n)
        if args.format == "json":
            _emit(_json_chunks(cert.to_json()), args.out)
        else:
            _emit(f"search counterexample {lhs} = {rhs}\n{cert.summary()}\n", args.out)
        return 0 if not cert.holds else 1

    # witness14
    try:
        n, fixed, seed = idlab.find_kuratowski_witness()
    except RuntimeError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    payload = {
        "ground_size": n,
        "fixed_points": [elements_of(m) for m in fixed],
        "seed": elements_of(seed),
    }
    if args.format == "json":
        _emit(_json_chunks(payload), args.out)
    else:
        lines = [
            "search witness14",
            f"ground size: {n}",
            "fixed points: "
            + " ".join("{" + ",".join(map(str, f)) + "}" for f in payload["fixed_points"]),
            "seed: {" + ",".join(map(str, payload["seed"])) + "}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# dump


#: the most table entries, --cap elements of 2**n masks each, that a
#: monoid or hasse dump may hold: its peak memory grows with them, and
#: a monoid dump of 2**22 entries (--M 8, 10 or 12 with p,q,c) peaks at
#: about 100 MB in a fresh process.  An unset --cap is DEFAULT_CAP, or
#: less where that many elements would pass this bound.
DUMP_ENTRIES_CAP = 1 << 22


def _reads_window(name: str, args, flag: Optional[str]) -> None:
    """Refuse, before model name is built, a window flag it does not
    read: it reads flag (M or m) or, when flag is None, neither."""
    for unread in {"m", "M"} - {flag}:
        if getattr(args, unread) is not None:
            raise ValueError(f"model {name} does not take --{unread}")


def _model_from_flags(name: str, args) -> tuple[int, Callable]:
    """The ground size of model name under the window flags, and a call
    that builds it; a name or window flag that names nothing is refused
    before anything is built."""
    if name in ("example3-literal", "example3-repaired", "example3"):
        _reads_window(name, args, "M")
        variant = "literal" if name == "example3-literal" else "repaired"
        M = args.M if args.M is not None else 10
        return M + 1, functools.partial(models.example3, M, variant=variant)
    _reads_window(name, args, "m")  # section4 and pij(i,j) read --m
    m = args.m if args.m is not None else 4
    if name == "section4":
        # an orbit reads no table, so it walks the cycle as functions
        return 2 * m + 2, functools.partial(models.section4_model, m,
                                            materialize=args.target != "orbit")
    if name.startswith("pij(") and name.endswith(")"):
        inner = name[4:-1].split(",")
        if len(inner) != 2:
            raise ValueError(f"bad pij name {name!r}, expected pij(i,j)")
        i, j = (int(part) for part in inner)
        return 2 * m, functools.partial(models.pij_pair, i, j, m)
    raise ValueError(f"unknown model name {name!r}")


def _named_generators(model_name: str, args) -> dict:
    """Letter -> operator table for monoid and hasse dumps: k and c for
    witness14, p, q and c for any other model."""
    if model_name == "witness14":
        k, _seed = models.kuratowski_witness()
        return {"k": k, "c": complement_table(k.ground_size)}
    model = _model_from_flags(model_name, args)[1]()
    return {
        "p": model.p,
        "q": model.q,
        "c": complement_table(model.ground_size),
    }


def cmd_dump(args) -> int:
    what = args.target
    # A --word that does not parse, or a model name, window or --start
    # that names nothing, is a usage error; a model failing its own
    # screen, or any later ValueError, is a bug and propagates.
    try:
        if what in ("monoid", "hasse"):
            n = (models.KURATOWSKI_GROUND if args.model == "witness14"
                 else _model_from_flags(args.model, args)[0])
            most = DUMP_ENTRIES_CAP >> n
            cap = args.cap or min(monoid_mod.DEFAULT_CAP, most)  # a --cap given is at least 1
            # a model past the table cap is refused by its constructor,
            # before it builds anything
            if cap > most and n <= MAX_GROUND_SIZE:
                print(f"usage error: dump {what} takes --cap 1..{most} at ground size {n},"
                      f" got {cap}", file=sys.stderr)
                return 2
            # the letters a model offers follow from its name, so they
            # are checked before it is built
            offered = ("p", "q", "c")
            if args.model == "witness14":
                _reads_window(args.model, args, None)
                offered = ("k", "c")
            gens = "c,k" if args.gens is None else args.gens
            letters = [part.strip() for part in gens.split(",") if part.strip()]
            missing = [g for g in letters if g not in offered]
            if missing or not letters:
                print(f"generators {missing} not available for model {args.model}"
                      f" (available: {sorted(offered)})", file=sys.stderr)
                return 2
            named = _named_generators(args.model, args)
        elif what == "model":
            model = _model_from_flags(args.name, args)[1]()
        else:
            word = parse_word(args.word)
            model = _model_from_flags(args.model, args)[1]()
            start = model.mask_of_names(args.start)
    except models.ModelConstructionError:
        raise
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2

    if what == "model":
        _emit(_json_chunks(model.to_json()), args.out)
        return 0

    if what == "orbit":
        rep = monoid_mod.orbit(word, model, start, max_iter=args.iters or 10)
        if args.format == "json":
            payload = {
                "word": rep.word,
                "start": model.format_mask(rep.start),
                "images": [model.format_mask(a) for a in rep.images],
                "cycle_entry": rep.cycle_entry,
                "truncated": rep.truncated,
            }
            _emit(_json_chunks(payload), args.out)
        else:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["step", "image"])
            for i, a in enumerate(rep.images):
                writer.writerow([i, model.format_mask(a)])
            _emit(buf.getvalue(), args.out)
        return 0

    mon = monoid_mod.generate_monoid([named[g] for g in letters], cap=cap,
                                     names=tuple(letters))
    if what == "monoid":
        _emit(_json_chunks(mon.to_json()), args.out)
        return 0
    if mon.truncated:
        print(f"usage error: dump hasse orders the whole monoid, which has more"
              f" than --cap {cap} elements", file=sys.stderr)
        return 2
    edges = monoid_mod.hasse(mon)
    nodes = [w or "1" for w in mon.witnesses]
    payload = {
        "nodes": nodes,
        "edges": [[nodes[lo], nodes[hi]] for lo, hi in edges],
    }
    _emit(_json_chunks(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1; a bad value
    is a usage error (exit 2) before any work starts."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state
    from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="closurelab",
        description="verification and search workbench for complement "
        "plus closure operator algebras on finite ground sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", default=None,
                       help="output format (default depends on the verb)")
        # accepted for old command lines, checked, and otherwise unused
        p.add_argument("--workers", type=_positive_int, default=1,
                       help=argparse.SUPPRESS)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("target", choices=sorted(SUITES), metavar="name", help="%(choices)s")
    v.add_argument("--n", type=int, default=None, help="ground size scope")
    v.add_argument("--m", type=int, default=None, help="cycle half-length")
    v.add_argument("--M", type=int, default=None, help="segment endpoint")
    v.add_argument("--samples", type=int, default=None,
                   help="sampled pairs per size for theorem2")
    v.add_argument("--seed", type=int, default=None, help="sampling seed for theorem2")
    common(v)

    s = sub.add_parser("search", help="identity survey or counterexample hunt")
    s.add_argument("target", choices=["identities", "counterexample", "witness14"],
                   metavar="kind", help="%(choices)s")
    s.add_argument("--n", type=int, default=None, help="exhaustive scope bound")
    s.add_argument("--maxlen", type=int, default=None)
    s.add_argument("--limit", type=int, default=None)
    s.add_argument("--eq", default=None, help='equation "LHS=RHS" to refute')
    common(s)

    # no prefix matching, or a stray --n would be taken for --name
    d = sub.add_parser("dump", help="serialize models and derived artifacts",
                       allow_abbrev=False)
    d.add_argument("target", choices=["model", "monoid", "orbit", "hasse"], metavar="what",
                   help="%(choices)s")
    d.add_argument("--name", default=None, help="model name for dump model")
    d.add_argument("--model", default=None, help="model name for monoid/orbit/hasse")
    d.add_argument("--iters", type=int, default=None, help="orbit steps (default 10)")
    d.add_argument("--cap", type=int, default=None, help="monoid size cap")
    d.add_argument("--gens", default=None, help="generator letters (default c,k)")
    d.add_argument("--word", default=None)
    d.add_argument("--start", default=None, help="comma list of element names")
    d.add_argument("--m", type=int, default=None)
    d.add_argument("--M", type=int, default=None)
    common(d)

    return parser


#: the output formats each command renders, its default first
_FORMATS = {"verify": ("text", "json"), "search": ("text", "json"), "dump model": ("json",),
            "dump monoid": ("json",), "dump hasse": ("json",), "dump orbit": ("csv", "json")}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"{args.command} {args.target}"
    rendered = command if args.command == "dump" else args.command
    formats = _FORMATS[rendered]
    if args.format is None:
        args.format = formats[0]
    elif args.format not in formats:
        print(f"{rendered} supports --format {' or '.join(formats)}", file=sys.stderr)
        return 2
    if args.out is not None:
        # a relative --out is taken in $CLOSURELAB_OUT when that is set
        args.out = os.path.join(os.environ.get(OUT_DIR_ENV, ""), args.out)
        if not _writable(args.out):
            print(f"usage error: cannot write --out {args.out}", file=sys.stderr)
            return 2
    error = _flag_error(command, args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "search":
        return cmd_search(args)
    return cmd_dump(args)


if __name__ == "__main__":
    sys.exit(main())
