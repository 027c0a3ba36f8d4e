"""Command line interface.

Three verbs:

  verify NAME   run a named verification suite, exit 0 iff it passes
  search KIND   identity survey, counterexample hunt, or witness search
  dump WHAT     serialize a model, monoid, orbit, or Hasse diagram

Reports are deterministic for fixed flags.  Wall-clock facts go on
comment lines starting with "# " so byte comparison after dropping
that header is stable across runs.  JSON is written in chunks and
never held whole: any payload a dict key or a list item at a time,
and a monoid dump's tables and Cayley rows from their arrays, a block
of rows at a time.  Every command runs in one process; --workers is
still accepted (at least 1) but changes nothing.
One table, _FLAGS, declares each command and the flags it reads; the
parser is built from it.  A flag the command does not read, a flag
out of its bounds, a needed flag left out and an abbreviated flag are
usage errors, found before any work; verify passes a suite only the
flags that are given, so an unset one takes the suite's own default.
A dump resolves its model's name once, to the ground size, generator
letters and builder that its --cap and --gens checks and its build
all read.
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
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

import numpy as np

from . import idlab, models
from . import monoid as monoid_mod
from .opalg import (MAX_GROUND_SIZE, complement_table, elements_of, format_set, format_word,
                    parse_word)

if TYPE_CHECKING:
    from .suites import SuiteReport

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


#: the command surface: every command, and every flag it reads with
#: the values it accepts as inclusive (low, high) bounds, None for no
#: bound, or _ANY for any text and _NEEDED for text it cannot do
#: without.  The parser is built from this table, and main refuses any
#: other flag or value as a usage error before any work starts.  --n is
#: capped by the exhaustive enumeration a command walks, --samples by
#: the seeds one lockstep draw holds, and --maxlen by the identity
#: search's word budget (see the README for its cost); a seed is 0 or
#: more, as random.Random(-s) replays random.Random(s).  Windows span
#: at least 2 elements, and verify's flagged cycle (ground size 2m + 2)
#: and each segment {0..M} (ground size M + 1) fit the table cap.  A
#: dump refuses a cycle whose tables pass the table cap when it resolves
#: the model, except in dump orbit --model section4, which walks it as
#: functions: there --m 1024 and --iters 4096 take about 0.3 s and
#: 31 MB, and --m 4096 about 10 s.
_ANY, _NEEDED = "any", "needed"
_WINDOW = {"m": (2, 1024), "M": (2, MAX_GROUND_SIZE - 1)}
_FLAGS = {
    "verify example3": {"M": (2, MAX_GROUND_SIZE - 1)},
    "verify fixtures": {"n": (0, idlab.PAIR_ENUMERATION_CAP)},
    "verify interior": {"n": (0, idlab.ENUMERATION_CAP)},
    "verify kuratowski14": {"n": (0, idlab.BLOCKED_ENUMERATION_CAP)},
    "verify lemma6": {},
    "verify pq-closure": {"n": (0, idlab.PAIR_ENUMERATION_CAP)},
    "verify remark-involution": {"n": (0, idlab.ENUMERATION_CAP)},
    "verify section4": {"m": (2, (MAX_GROUND_SIZE - 2) // 2)},
    "verify theorem1": {"n": (0, idlab.ENUMERATION_CAP)},
    "verify theorem2": {
        "n": (0, idlab.PAIR_ENUMERATION_CAP),
        "samples": (1, idlab.SAMPLE_COUNT_CAP),
        "seed": (0, None),
    },
    "search identities": {
        "n": (0, idlab.PAIR_ENUMERATION_CAP),
        "maxlen": (0, idlab.MAXLEN_CAP),
        "limit": (0, None),
    },
    "search counterexample": {"n": (0, idlab.PAIR_ENUMERATION_CAP), "eq": _NEEDED},
    "search witness14": {},
    "dump model": dict(_WINDOW, name=_NEEDED),
    "dump monoid": dict(_WINDOW, model=_NEEDED, gens=_ANY, cap=(1, None)),
    "dump orbit": dict(_WINDOW, model=_NEEDED, word=_NEEDED, start=_NEEDED, iters=(1, 4096)),
    "dump hasse": dict(_WINDOW, model=_NEEDED, gens=_ANY, cap=(1, None)),
}

#: each flag's help text, in the order the parser declares the flags,
#: which is the order a usage error looks at the flags given in
_HELP = {
    "n": "ground size scope",
    "maxlen": "longest word the identity search examines",
    "limit": "most equations the identity search reports",
    "eq": 'equation "LHS=RHS" to refute',
    "name": "model name for dump model",
    "model": "model name for dump monoid, orbit or hasse",
    "iters": "orbit steps (default 10)",
    "cap": "monoid size cap",
    "gens": "generator letters (default c,k: witness14's, so a pair model needs --gens)",
    "word": "word whose orbit is walked",
    "start": "comma list of element names",
    "m": "cycle half-length",
    "M": "segment endpoint",
    "samples": "sampled pairs per size for theorem2",
    "seed": "sampling seed for theorem2",
}

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
        if bounds[flag] in (_ANY, _NEEDED):
            continue
        low, high = bounds[flag]
        if (low is None or low <= value) and (high is None or value <= high):
            continue
        span = f"{low} or more" if high is None else f"{low}..{high}"
        return f"usage error: {command} takes --{flag} {span}, got {value}"
    missing = [f"--{flag}" for flag, bound in bounds.items()
               if bound == _NEEDED and getattr(args, flag) is None]
    return f"{command} requires " + ", ".join(missing) if missing else None


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .suites import SUITES  # here, so search and dump load neither suites nor theory

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
            lines += [f"{format_word(lhs)} = {format_word(rhs)}" for lhs, rhs in equations]
            _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.target == "counterexample":
        if "=" not in args.eq:
            print(f"usage error: search counterexample takes --eq LHS=RHS, got {args.eq!r}",
                  file=sys.stderr)
            return 2
        # a word that does not parse is a usage error, and nothing else;
        # a side that is 1 is the empty word
        try:
            lhs, rhs = (parse_word("" if side.strip() == "1" else side.strip())
                        for side in args.eq.split("=", 1))
        except ValueError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return 2
        cert = idlab.search_counterexample(lhs, rhs, max_n=n)
        if args.format == "json":
            _emit(_json_chunks(cert.to_json()), args.out)
        else:
            _emit(f"search counterexample {format_word(lhs)} = {format_word(rhs)}\n"
                  f"{cert.summary()}\n", args.out)
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
            "fixed points: " + " ".join(map(format_set, fixed)),
            f"seed: {format_set(seed)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# dump


#: the most table entries, --cap elements of 2**n masks each, that a
#: monoid or hasse dump may hold: its peak memory grows with them, and
#: a monoid dump of 2**22 entries (--M 8, 10 or 12 with p,q,c) peaks at
#: about 60 MB in a fresh process, and one of 4 tables at --M 19, where
#: the text of each of the 2**20 masks is built, at about 160 MB.  An
#: unset --cap is DEFAULT_CAP, or less where that many elements would
#: pass this bound.
DUMP_ENTRIES_CAP = 1 << 22


#: the most values one chunk of a monoid dump spells: about 200 KB of
#: table entries
_BLOCK_ENTRIES = 1 << 14


def _spelled_rows(rows: np.ndarray, texts: np.ndarray, head: str, sep: str,
                  tail: str) -> Iterator[str]:
    """The items of a JSON list, in chunks: each row of rows, indices
    into the strings texts, is spelled head, its texts joined by sep,
    then tail, and the items are joined by ",".  A chunk is one gather
    of texts and one join per row, over a block of rows of at most
    _BLOCK_ENTRIES values, or over that many values of one wider row."""
    k, w = rows.shape
    step, piece = max(1, _BLOCK_ENTRIES // w), min(w, _BLOCK_ENTRIES)
    for start in range(0, k, step):
        for at in range(0, w, piece):
            block = texts[rows[start:start + step, at:at + piece]].tolist()
            yield ((sep if at else ("," if start else "") + head)
                   + (tail + "," + head).join(map(sep.join, block))
                   + (tail if at + piece >= w else ""))


def _monoid_chunks(mon: monoid_mod.GeneratedMonoid) -> Iterator[str]:
    """The bytes of json.dumps(payload, sort_keys=True, indent=2) + "\\n"
    for a monoid of tables, whose payload holds its generator names,
    size, truncated flag, witnesses, Cayley rows and elements, each
    {"n": n, "entries": its table as "%x" strings}.  The tables and
    Cayley rows are spelled from arrays by _spelled_rows, each value's
    text built once per dump; the rest goes through _json_chunks."""
    n = mon.generators[0].ground_size
    # an edge the cap cut short is -1, which picks the last text
    numbers = np.array([*map(str, range(len(mon))), "-1"], dtype=object)
    yield '{\n  "cayley": ['
    yield from _spelled_rows(np.array(mon.cayley, dtype=np.intp), numbers,
                             "\n    [\n      ", ",\n      ", "\n    ]")
    yield '\n  ],\n  "elements": ['
    digits = np.array(['"%x"' % a for a in range(1 << n)], dtype=object)
    yield from _spelled_rows(mon.rows, digits, '\n    {\n      "entries": [\n        ',
                             ",\n        ", f'\n      ],\n      "n": {n}\n    }}')
    yield "\n  ]"
    for key, value in (("generator_names", list(mon.generator_names)), ("size", len(mon)),
                       ("truncated", mon.truncated), ("witnesses", mon.witnesses)):
        yield ",\n  " + _json_key(key)
        yield from _json_chunks(value, 1)
    yield "\n}\n"


#: the spellings of the staircase and pij model names
_EXAMPLE3 = ("example3-literal", "example3-repaired", "example3")
_PIJ = {f"pij({i},{j})": (i, j) for i in (0, 1) for j in (0, 1)}


def _pair_generators(build: Callable) -> dict:
    """The generators p and q of the pair model build makes."""
    model = build()
    return {"p": model.p, "q": model.q}


def _model_from_flags(name: str, args) -> tuple[int, tuple[str, ...], tuple[str, ...], Callable]:
    """Model name resolved under the window flags, once per dump: its
    ground size, its element names, the generator letters a monoid or
    hasse dump of it may take, and a call that builds it.  In those two
    dumps the call gives the generators, letter -> operator, but c; in
    the others, the model.
    witness14, the pinned closure k, is a model of those two dumps only
    and reads no window flag; the example3 names read --M and any other
    name --m.  A window flag the model does not read is refused, then a
    name that names nothing, then a model whose tables would pass the
    table cap, all before anything is built."""
    generators = args.target in ("monoid", "hasse")
    witness = generators and name == "witness14"
    window = None if witness else "M" if name in _EXAMPLE3 else "m"
    for unread in ("m", "M"):
        if unread != window and getattr(args, unread) is not None:
            raise ValueError(f"model {name} does not take --{unread}")
    if witness:
        n = models.KURATOWSKI_GROUND
        return (n, tuple(map(str, range(n))), ("k", "c"),
                lambda: {"k": models.kuratowski_witness()[0]})
    # an orbit reads no table, so it walks the flagged cycle as functions
    tables = name != "section4" or args.target != "orbit"
    if window == "M":
        size = args.M if args.M is not None else 10
        variant = "literal" if name == "example3-literal" else "repaired"
        n, build = size + 1, functools.partial(models.example3, size, variant=variant)
    else:
        size = args.m if args.m is not None else 4
        if name == "section4":
            n, build = 2 * size + 2, functools.partial(models.section4_model, size,
                                                       materialize=tables)
        elif name in _PIJ:
            n, build = 2 * size, functools.partial(models.pij_pair, *_PIJ[name], size)
        elif name.startswith("pij(") and name.endswith(")"):
            raise ValueError(f"bad pij name {name!r}, expected pij(i,j) with i and j 0 or 1")
        else:
            raise ValueError(f"unknown model name {name!r}")
    if tables and n > MAX_GROUND_SIZE:
        raise ValueError(f"model {name} at --{window} {size} has ground size {n},"
                         f" past the table cap {MAX_GROUND_SIZE}")
    names = models.flagged_cycle_names(size) if name == "section4" else tuple(map(str, range(n)))
    return (n, names, ("p", "q", "c"),
            functools.partial(_pair_generators, build) if generators else build)


def cmd_dump(args) -> int:
    what = args.target
    # A --word that does not parse, or a model name, window or --start
    # that names nothing, is a usage error; any ValueError while the
    # model is built, or later, is a bug and propagates.
    name = args.name if what == "model" else args.model
    try:
        if what == "orbit":
            word = parse_word(args.word)
        n, names, offered, build = _model_from_flags(name, args)
        if what == "orbit":
            start = models.mask_of_names(args.start, names)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    if what in ("monoid", "hasse"):
        most = DUMP_ENTRIES_CAP >> n
        cap = args.cap or min(monoid_mod.DEFAULT_CAP, most)  # a --cap given is at least 1
        if cap > most:
            print(f"usage error: dump {what} takes --cap 1..{most} at ground size {n},"
                  f" got {cap}", file=sys.stderr)
            return 2
        gens = "c,k" if args.gens is None else args.gens
        letters = [part.strip() for part in gens.split(",") if part.strip()]
        missing = [g for g in letters if g not in offered]
        if missing or not letters:
            print(f"generators {missing} not available for model {name}"
                  f" (available: {sorted(offered)})", file=sys.stderr)
            return 2
    model = build()  # in a monoid or hasse dump, its generators but c

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

    named = dict(model, c=complement_table(n))
    mon = monoid_mod.generate_monoid([named[g] for g in letters], cap=cap,
                                     names=tuple(letters))
    if what == "monoid":
        _emit(_monoid_chunks(mon), args.out)
        return 0
    if mon.truncated:
        print(f"usage error: dump hasse orders the whole monoid, which has more"
              f" than --cap {cap} elements", file=sys.stderr)
        return 2
    edges = monoid_mod.hasse(mon)
    nodes = list(map(format_word, mon.witnesses))
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


#: each verb's help, and the name its target goes by in usage lines
_VERBS = {"verify": ("run a named verification suite", "name"),
          "search": ("identity survey or counterexample hunt", "kind"),
          "dump": ("serialize models and derived artifacts", "what")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process from _FLAGS: each verb takes
    its commands' targets and the flags they read, an int for a bounded
    flag and text otherwise, and no abbreviation of a flag.  parse_args
    keeps no state from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="closurelab",
        description="verification and search workbench for complement "
        "plus closure operator algebras on finite ground sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (summary, metavar) in _VERBS.items():
        p = sub.add_parser(verb, help=summary, allow_abbrev=False)
        commands = [command for command in _FLAGS if command.startswith(verb + " ")]
        p.add_argument("target", choices=[command.split(" ")[1] for command in commands],
                       metavar=metavar, help="%(choices)s")
        read = {flag: bound for command in commands for flag, bound in _FLAGS[command].items()}
        for flag in _HELP:
            if flag in read:
                p.add_argument(f"--{flag}", type=str if read[flag] in (_ANY, _NEEDED) else int,
                               help=_HELP[flag])
        p.add_argument("--out", help="write output to this path")
        p.add_argument("--format", help="output format (default depends on the verb)")
        # accepted for old command lines, checked, and otherwise unused
        p.add_argument("--workers", type=_positive_int, default=1, help=argparse.SUPPRESS)
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
