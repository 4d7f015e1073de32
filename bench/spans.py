"""Outside-in span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the e8g2 modules from the
outside; no file of the package changes.  Each wrapped call records one span
(name, start, end, parent) in flat in-memory arrays, and some wrappers also
bump exact counters (term pairs, result sizes, raised exceptions).  Spans
are written to disk once, after the measured work.

Wrappers are installed only in the traced worker, so the untraced runs that
give the end-to-end numbers pay nothing.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, probe=None, raises=()):
        """A traced stand-in for ``fn``.  ``probe(tracer, args, result)``
        runs after a successful call; exceptions of the ``raises`` types
        are counted under ``name`` and re-raised."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            except raises:
                raised[name] += 1
                raise
            finally:
                stack.pop()
                end[i] = clock()
            if probe is not None:
                probe(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def bump_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    # -- aggregation ---------------------------------------------------

    def aggregate(self, window: tuple[float, float]) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not double counted) and self seconds
        (duration minus the time covered by child spans).  Also the share
        of ``window`` that top-level spans starting inside it cover."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        anc = [0] * n  # bitmask of span-name ids among the ancestors
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                anc[i] = anc[p] | (1 << self.name_id[p])
        calls = Counter()
        incl = Counter()
        self_s = Counter()
        covered = 0.0
        lo, hi = window
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if not (anc[i] >> self.name_id[i]) & 1:
                incl[name] += dur[i]
            if self.parent[i] < 0 and lo <= self.start[i] <= hi:
                covered += dur[i]
        return {"calls": calls, "incl": incl, "self": self_s,
                "raised": self.raised, "counters": self.counters,
                "maxima": self.maxima,
                "span_share": covered / (hi - lo) if hi > lo else 0.0}

    def write(self, path: str) -> None:
        """All spans as gzip'd TSV: a header naming the span ids, then one
        ``name_id start end parent`` row per span in start order."""
        with gzip.open(path, "wt") as fh:
            fh.write("# " + "\t".join(self.names) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name_id[i]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")


# -- probes: exact counters taken at the layer boundary ---------------------


def _mul_probe(tr, args, out):
    a, b = args
    if hasattr(out, "coeffs"):
        tr.counters["symra.mul.pairs"] += len(a.coeffs) * (
            len(b.coeffs) if hasattr(b, "coeffs") else 1)
        tr.bump_max("symra.mul.max_terms", len(out.coeffs))


def _mul_trunc_probe(tr, args, out):
    tr.counters["symra.mul_trunc.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _left_reps_probe(tr, args, out):
    tr.counters["weyl.left_reps"] += len(out)


def _word_probe(tr, args, out):
    tr.counters["weyl.word.letters"] += len(out)


def _replace_everywhere(tracer, owner, attr, name, probe=None, raises=()):
    """Wrap ``owner.attr`` and rebind every e8g2 module global or class
    attribute that refers to the same object, so names bound by
    ``from .x import f`` are traced too."""
    orig = getattr(owner, attr)
    traced = tracer.wrap(name, orig, probe, raises)
    targets = [m for k, m in sys.modules.items() if k.startswith("e8g2")]
    if isinstance(owner, type):
        targets.append(owner)
    for target in targets:
        for key, value in list(vars(target).items()):
            if value is orig:
                setattr(target, key, traced)


def install(tracer: Tracer):
    """Install every wrapper; returns the original ``zeta._p_char``, whose
    ``cache_info()`` gives the cache misses."""
    from e8g2 import cheval, cli, g2chars, rootsys, symra, weyl, zeta

    LP, RF = symra.LaurentPoly, symra.RatFunc
    table = (
        (weyl, "enumerate_double_cosets", "weyl.enumerate", None),
        (weyl, "enumerate_min_left_reps", "weyl.min_left_reps", _left_reps_probe),
        (weyl, "words_json", "weyl.words", None),
        (weyl.WeylElt, "length", "weyl.length", None),
        (weyl.WeylElt, "right_mul", "weyl.right_mul", None),
        (weyl.WeylElt, "word", "weyl.word", _word_probe),
        (LP, "__mul__", "symra.mul", _mul_probe),  # __rmul__ is the same object
        (LP, "mul_trunc", "symra.mul_trunc", _mul_trunc_probe),
        (LP, "__add__", "symra.add", None),
        (RF, "truncate", "symra.truncate", None),
        (RF, "equals", "symra.equals", None),
        (zeta, "_measure_sum", "zeta.measure_sum", None),
        (zeta, "_p_char", "zeta.p_char", None),
        (zeta, "j_oracle", "zeta.j_oracle", None),
        (zeta, "closed_I", "zeta.closed_I", None),
        (zeta, "named", "zeta.named", None),
        (g2chars, "alt_sum", "g2chars.alt_sum", None),
        (cheval, "build_constants", "cheval.build_constants", None),
        (cheval.StructureConstants, "jacobi_triangle_report", "cheval.jacobi", None),
        (cheval.UnipotentWord, "canonical", "cheval.canonical", None),
        (rootsys.RootSystem, "__init__", "rootsys.build", None),
        (cli, "run", "cli.run", None),
        (cli, "emit", "cli.emit", None),
        (cli, "main", "cli.main", None),
    )
    p_char = zeta._p_char
    for owner, attr, name, probe in table:
        _replace_everywhere(tracer, owner, attr, name, probe)
    _replace_everywhere(tracer, LP, "divexact", "symra.divexact",
                        raises=symra.InexactDivision)
    for cid, (fn, params, report_only) in list(cli.REGISTRY.items()):
        cli.REGISTRY[cid] = (tracer.wrap(f"cli.check.{cid}", fn), params, report_only)
    return p_char


def layer_metrics(agg: dict, p_char) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced op."""
    calls, incl, self_s = agg["calls"], agg["incl"], agg["self"]
    counters, maxima = agg["counters"], agg["maxima"]
    div_calls = calls["symra.divexact"]
    return {
        "weyl.enumerate_s": incl["weyl.enumerate"],
        "weyl.words_s": incl["weyl.words"],
        "weyl.length.calls": calls["weyl.length"],
        "weyl.length.self_s": self_s["weyl.length"],
        "weyl.right_mul.calls": calls["weyl.right_mul"],
        "weyl.left_reps": counters["weyl.left_reps"],
        "weyl.word.letters": counters["weyl.word.letters"],
        "symra.mul.self_s": self_s["symra.mul"],
        "symra.mul.calls": calls["symra.mul"],
        "symra.mul.pairs": counters["symra.mul.pairs"],
        "symra.mul.max_terms": maxima.get("symra.mul.max_terms", 0),
        "symra.mul_trunc.self_s": self_s["symra.mul_trunc"],
        "symra.mul_trunc.pairs": counters["symra.mul_trunc.pairs"],
        "symra.truncate_s": incl["symra.truncate"],
        "symra.divexact.self_s": self_s["symra.divexact"],
        "symra.divexact.calls": div_calls,
        "symra.divexact.inexact_share":
            agg["raised"]["symra.divexact"] / div_calls if div_calls else 0.0,
        "symra.add.self_s": self_s["symra.add"],
        "zeta.measure_sum_s": incl["zeta.measure_sum"],
        "zeta.p_char_s": incl["zeta.p_char"],
        "zeta.p_char.misses": p_char.cache_info().misses,
        "zeta.j_oracle_s": incl["zeta.j_oracle"],
        "zeta.closed_I_s": incl["zeta.closed_I"],
        "g2chars.alt_sum_s": incl["g2chars.alt_sum"],
        "cheval.build_constants_s": incl["cheval.build_constants"],
        "cheval.jacobi_s": incl["cheval.jacobi"],
        "cheval.canonical_s": incl["cheval.canonical"],
        "rootsys.build_s": incl["rootsys.build"],
        "cli.overhead_s": self_s["cli.run"] + self_s["cli.main"],
        "cli.emit_s": incl["cli.emit"],
        "trace.span_share": agg["span_share"],
    }


# exact counters that must repeat across two traced runs of one seed
EXACT_COUNTERS = (
    "weyl.length.calls", "weyl.right_mul.calls", "weyl.left_reps",
    "weyl.word.letters", "symra.mul.pairs", "symra.divexact.calls",
    "symra.divexact.inexact_share", "zeta.p_char.misses",
)
